// Mini NAS Parallel Benchmarks (communication-pattern-faithful,
// scaled-down re-implementations of CG, FT, MG, LU, BT, SP, IS).
//
// The paper evaluates encrypted MPI with the NAS suite, Class C, on
// 64 ranks / 8 nodes (Tables IV and VIII). These kernels reproduce the
// communication structure that drives those results:
//   CG  — 1-D row-partitioned sparse CG: neighbour halo exchange per
//         matvec + dot-product allreduces.
//   FT  — 3-D FFT with a slab decomposition: local FFTs + a global
//         alltoall transpose per step (the alltoall-heavy workload).
//   MG  — multigrid V-cycles: halo exchanges at every level, with the
//         surface/volume ratio growing on coarse grids.
//   LU  — SSOR with a pipelined wavefront: many small boundary
//         messages with tight dependencies (latency-sensitive).
//   BT  — ADI with block line solves: pipelined forward/backward
//         sweeps across the partition, heavier per-cell compute.
//   SP  — ADI with scalar penta-diagonal solves: same pipeline, less
//         compute per cell (higher comm/compute ratio than BT).
//   IS  — integer bucket sort: key histogram allreduce + alltoallv
//         redistribution + boundary check.
//
// All compute executes for real and is charged to the virtual clock at
// sweep granularity, so the comm/compute overlap behaviour — the thing
// that makes NAS overheads modest in the paper — is preserved.
// Every kernel self-verifies (residual/idempotence/sortedness).
#pragma once

#include <string>
#include <vector>

#include "emc/mpi/comm.hpp"
#include "emc/mpi/communicator.hpp"

namespace emc::nas {

enum class Kernel { kCG, kFT, kMG, kLU, kBT, kSP, kIS };

/// Scaled-down problem classes (the paper runs real Class C; these
/// keep 64 simulated ranks runnable on a laptop-scale host).
enum class ProblemClass { kS, kW, kA };

struct KernelResult {
  std::string name;
  bool verified = false;
  double residual = 0.0;    ///< kernel-specific verification value
  double comm_fraction = 0.0;  ///< rough fraction of virtual time in comm
};

[[nodiscard]] const char* kernel_name(Kernel k);
[[nodiscard]] const char* class_name(ProblemClass c);
[[nodiscard]] std::vector<Kernel> all_kernels();
[[nodiscard]] Kernel kernel_by_name(const std::string& name);
[[nodiscard]] ProblemClass class_by_name(const std::string& name);

/// Runs one kernel on the calling rank. Collective: every rank of
/// @p comm must call with identical arguments. @p plain is the rank's
/// plain communicator (the same object as @p comm on a plain run);
/// compute time is billed through plain.charge.
KernelResult run_kernel(Kernel k, mpi::Communicator& comm,
                        mpi::Comm& plain, ProblemClass cls);

// Individual kernels (same contract as run_kernel).
KernelResult run_cg(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls);
KernelResult run_ft(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls);
KernelResult run_mg(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls);
KernelResult run_lu(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls);
KernelResult run_bt(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls);
KernelResult run_sp(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls);
KernelResult run_is(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls);

}  // namespace emc::nas
