// Every mini-NAS kernel must self-verify on the plain communicator
// across rank counts, and produce identical verification results over
// the encrypted communicator (ciphertext transport must be invisible
// to the numerics).
#include <gtest/gtest.h>

#include "emc/nas/nas.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::nas {
namespace {

mpi::WorldConfig world_of(int nodes, int ranks_per_node) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = ranks_per_node;
  config.cluster.inter = net::ethernet_10g();
  return config;
}

struct KernelCase {
  Kernel kernel;
  int nodes;
  int ranks_per_node;
};

class NasKernelTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(NasKernelTest, VerifiesOnPlainComm) {
  const KernelCase& param = GetParam();
  mpi::run_world(world_of(param.nodes, param.ranks_per_node),
                 [&](mpi::Comm& comm) {
                   const KernelResult result = run_kernel(
                       param.kernel, comm, comm, ProblemClass::kS);
                   EXPECT_TRUE(result.verified)
                       << result.name << " residual " << result.residual
                       << " on " << comm.size() << " ranks";
                   EXPECT_EQ(result.name, kernel_name(param.kernel));
                   EXPECT_GE(result.comm_fraction, 0.0);
                   EXPECT_LE(result.comm_fraction, 1.0);
                 });
}

TEST_P(NasKernelTest, VerifiesOnSecureComm) {
  const KernelCase& param = GetParam();
  secure::SecureConfig secure_config;
  secure_config.provider = "boringssl-sim";
  secure::run_secure_world(
      world_of(param.nodes, param.ranks_per_node), secure_config,
      [&](secure::SecureComm& comm) {
        const KernelResult result = run_kernel(
            param.kernel, comm, comm.plain(), ProblemClass::kS);
        EXPECT_TRUE(result.verified)
            << result.name << " residual " << result.residual;
      });
}

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  for (Kernel k : all_kernels()) {
    cases.push_back({k, 1, 1});   // serial sanity
    cases.push_back({k, 2, 2});   // 4 ranks, 2 nodes
    cases.push_back({k, 4, 2});   // 8 ranks, 4 nodes
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, NasKernelTest, ::testing::ValuesIn(kernel_cases()),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(kernel_name(info.param.kernel)) + "_" +
             std::to_string(info.param.nodes) + "n" +
             std::to_string(info.param.ranks_per_node) + "r";
    });

TEST(NasRegistry, NamesRoundTrip) {
  for (Kernel k : all_kernels()) {
    EXPECT_EQ(kernel_by_name(kernel_name(k)), k);
  }
  EXPECT_THROW((void)kernel_by_name("EP"), std::invalid_argument);
  EXPECT_EQ(class_by_name("S"), ProblemClass::kS);
  EXPECT_EQ(class_by_name("a"), ProblemClass::kA);
  EXPECT_THROW((void)class_by_name("C"), std::invalid_argument);
  EXPECT_EQ(all_kernels().size(), 7u);
}

TEST(NasEncryption, SecureRunIsSlowerInVirtualTime) {
  // Encryption must add measurable virtual time to a comm-heavy kernel.
  const auto config = world_of(2, 2);
  const double plain = mpi::run_world(config, [](mpi::Comm& comm) {
    (void)run_ft(comm, comm, ProblemClass::kS);
  });

  secure::SecureConfig slow;
  slow.provider = "cryptopp-sim";  // slowest tier: visible overhead
  const double encrypted =
      secure::run_secure_world(config, slow, [](secure::SecureComm& comm) {
        (void)run_ft(comm, comm.plain(), ProblemClass::kS);
      });
  EXPECT_GT(encrypted, plain);
}

}  // namespace
}  // namespace emc::nas
