// Partitioning-independence checks: a kernel's verification residual
// is a global numerical property, so it must agree across rank counts
// up to floating-point reduction-order noise. This catches halo /
// pipeline bugs that still "verify" at one specific partition.
#include <gtest/gtest.h>

#include <cmath>

#include "emc/mpi/comm.hpp"
#include "emc/nas/nas.hpp"

namespace emc::nas {
namespace {

mpi::WorldConfig world_of(int nodes, int rpn) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = rpn;
  config.cluster.inter = net::ethernet_10g();
  return config;
}

double residual_with_ranks(Kernel kernel, int nodes, int rpn) {
  double residual = 0.0;
  mpi::run_world(world_of(nodes, rpn), [&](mpi::Comm& comm) {
    const KernelResult result =
        run_kernel(kernel, comm, comm, ProblemClass::kS);
    EXPECT_TRUE(result.verified) << kernel_name(kernel);
    if (comm.rank() == 0) residual = result.residual;
  });
  return residual;
}

class PartitionConsistencyTest : public ::testing::TestWithParam<Kernel> {};

TEST_P(PartitionConsistencyTest, ResidualAgreesAcrossRankCounts) {
  const Kernel kernel = GetParam();
  const double serial = residual_with_ranks(kernel, 1, 1);
  const double par4 = residual_with_ranks(kernel, 2, 2);
  const double par8 = residual_with_ranks(kernel, 4, 2);

  // Reduction order differs across partitions, so compare with a
  // relative tolerance; the scale is the serial residual (or 1 when
  // the residual is a tiny round-off quantity, e.g. BT/SP's direct-
  // solve error or FT's energy drift).
  const double scale = std::max(std::abs(serial), 1e-12);
  EXPECT_NEAR(par4, serial, 0.05 * scale + 1e-10) << kernel_name(kernel);
  EXPECT_NEAR(par8, serial, 0.05 * scale + 1e-10) << kernel_name(kernel);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, PartitionConsistencyTest,
    ::testing::Values(Kernel::kCG, Kernel::kFT, Kernel::kMG, Kernel::kLU),
    [](const ::testing::TestParamInfo<Kernel>& param) {
      return kernel_name(param.param);
    });

TEST(PartitionConsistency, IsSortsIdenticallyEverywhere) {
  // IS verification is exact (sortedness + conservation), so just run
  // it at an irregular rank count for the ragged-bucket path.
  mpi::run_world(world_of(5, 1), [](mpi::Comm& comm) {
    const KernelResult result =
        run_is(comm, comm, ProblemClass::kS);
    EXPECT_TRUE(result.verified);
  });
}

TEST(PartitionConsistency, AdiDirectSolveExactEverywhere) {
  // BT/SP verification is a direct-solve residual (< 1e-9 by
  // construction); check it stays at round-off for several partitions.
  for (int nodes : {1, 2, 4}) {
    mpi::run_world(world_of(nodes, 2), [](mpi::Comm& comm) {
      const KernelResult bt = run_bt(comm, comm, ProblemClass::kS);
      EXPECT_TRUE(bt.verified);
      EXPECT_LT(bt.residual, 1e-9);
      const KernelResult sp = run_sp(comm, comm, ProblemClass::kS);
      EXPECT_TRUE(sp.verified);
      EXPECT_LT(sp.residual, 1e-9);
    });
  }
}

}  // namespace
}  // namespace emc::nas
