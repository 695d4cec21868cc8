// End-to-end mini-NAS CG run: baseline vs every registered provider,
// printing runtimes, verification status, and per-provider overhead —
// a single-kernel slice of the paper's Table IV experiment.
//
//   ./nas_cg_demo [class]     (S, W, or A; default S)
#include <iomanip>
#include <iostream>

#include "emc/nas/nas.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

int main(int argc, char** argv) {
  using namespace emc;

  const nas::ProblemClass cls =
      nas::class_by_name(argc > 1 ? argv[1] : "S");

  mpi::WorldConfig world;
  world.cluster.num_nodes = 4;
  world.cluster.ranks_per_node = 4;
  world.cluster.inter = net::ethernet_10g();

  std::cout << "mini-NAS CG, class " << nas::class_name(cls) << ", "
            << world.cluster.total_ranks() << " ranks / "
            << world.cluster.num_nodes << " nodes, "
            << world.cluster.inter.name << "\n\n";
  std::cout << std::left << std::setw(18) << "configuration"
            << std::setw(14) << "time (ms)" << std::setw(12) << "overhead"
            << std::setw(12) << "verified" << "comm-fraction\n";

  // Baseline first.
  double baseline_ms = 0.0;
  {
    nas::KernelResult result;
    const double t = mpi::run_world(world, [&](mpi::Comm& comm) {
      result = nas::run_cg(comm, comm, cls);
    });
    baseline_ms = t * 1e3;
    std::cout << std::left << std::setw(18) << "unencrypted"
              << std::setw(14) << baseline_ms << std::setw(12) << "-"
              << std::setw(12) << (result.verified ? "yes" : "NO")
              << result.comm_fraction << "\n";
  }

  for (const crypto::Provider& provider : crypto::providers()) {
    secure::SecureConfig config;
    config.provider = provider.name;
    nas::KernelResult result;
    const double t = secure::run_secure_world(
        world, config, [&](secure::SecureComm& comm) {
          result = nas::run_cg(comm, comm.plain(), cls);
        });
    const double ms = t * 1e3;
    std::cout << std::left << std::setw(18) << provider.name
              << std::setw(14) << ms << std::setw(12)
              << std::to_string(
                     static_cast<int>((ms / baseline_ms - 1.0) * 100.0)) +
                     "%"
              << std::setw(12) << (result.verified ? "yes" : "NO")
              << result.comm_fraction << "\n";
  }

  std::cout << "\n(the paper's qualitative NAS result: with real compute "
               "between messages,\n encryption overhead stays modest and "
               "orders by library speed)\n";
  return 0;
}
