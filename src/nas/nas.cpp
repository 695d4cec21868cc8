#include "emc/nas/nas.hpp"

#include <stdexcept>

namespace emc::nas {

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kCG: return "CG";
    case Kernel::kFT: return "FT";
    case Kernel::kMG: return "MG";
    case Kernel::kLU: return "LU";
    case Kernel::kBT: return "BT";
    case Kernel::kSP: return "SP";
    case Kernel::kIS: return "IS";
  }
  return "?";
}

const char* class_name(ProblemClass c) {
  switch (c) {
    case ProblemClass::kS: return "S";
    case ProblemClass::kW: return "W";
    case ProblemClass::kA: return "A";
  }
  return "?";
}

std::vector<Kernel> all_kernels() {
  // The paper's reporting order (Tables IV/VIII): CG FT MG LU BT SP IS.
  return {Kernel::kCG, Kernel::kFT, Kernel::kMG, Kernel::kLU,
          Kernel::kBT, Kernel::kSP, Kernel::kIS};
}

Kernel kernel_by_name(const std::string& name) {
  for (Kernel k : all_kernels()) {
    if (name == kernel_name(k)) return k;
  }
  throw std::invalid_argument("unknown NAS kernel: " + name);
}

ProblemClass class_by_name(const std::string& name) {
  if (name == "S" || name == "s") return ProblemClass::kS;
  if (name == "W" || name == "w") return ProblemClass::kW;
  if (name == "A" || name == "a") return ProblemClass::kA;
  throw std::invalid_argument("unknown problem class: " + name);
}

KernelResult run_kernel(Kernel k, mpi::Communicator& comm,
                        mpi::Comm& plain, ProblemClass cls) {
  switch (k) {
    case Kernel::kCG: return run_cg(comm, plain, cls);
    case Kernel::kFT: return run_ft(comm, plain, cls);
    case Kernel::kMG: return run_mg(comm, plain, cls);
    case Kernel::kLU: return run_lu(comm, plain, cls);
    case Kernel::kBT: return run_bt(comm, plain, cls);
    case Kernel::kSP: return run_sp(comm, plain, cls);
    case Kernel::kIS: return run_is(comm, plain, cls);
  }
  throw std::invalid_argument("unknown kernel");
}

}  // namespace emc::nas
