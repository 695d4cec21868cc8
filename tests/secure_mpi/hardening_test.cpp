// Hardening properties of the encrypted layer: nonce-space separation
// across ranks, 128-bit-key operation, error surfaces for truncated or
// cross-key traffic, and collective tamper injection.
#include <gtest/gtest.h>

#include <set>

#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::secure {
namespace {

using mpi::Comm;
using mpi::Status;
using mpi::WorldConfig;

WorldConfig world_of(int nodes, int rpn) {
  WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = rpn;
  config.cluster.inter = net::ethernet_10g();
  return config;
}

TEST(SecureHardening, CounterNoncesNeverCollideAcrossRanks) {
  // Counter mode embeds the rank, so two ranks' nonce streams are
  // disjoint even though both count from zero. Verify on the wire.
  SecureConfig config;
  config.provider = "libsodium-sim";
  config.nonce_mode = NonceMode::kCounter;
  config.cost_model = CryptoCostModel{};

  std::set<Bytes> nonces;
  run_secure_world(world_of(3, 1), config, [&](SecureComm& comm) {
    // Ranks 1 and 2 each send 20 messages to rank 0.
    if (comm.rank() == 0) {
      for (int i = 0; i < 40; ++i) {
        Bytes wire(SecureComm::wire_size(8));
        comm.plain().recv(wire, mpi::kAnySource, 5);
        nonces.insert(Bytes(wire.begin(), wire.begin() + 12));
      }
    } else {
      for (int i = 0; i < 20; ++i) {
        comm.send(Bytes(8, static_cast<std::uint8_t>(i)), 0, 5);
      }
    }
  });
  EXPECT_EQ(nonces.size(), 40u) << "nonce collision across ranks";
}

TEST(SecureHardening, Aes128KeysWorkEndToEnd) {
  // The paper benchmarks both 128- and 256-bit keys (§III-A).
  SecureConfig config;
  config.provider = "boringssl-sim";
  config.key = crypto::demo_key(16);
  config.cost_model = CryptoCostModel{};
  run_secure_world(world_of(2, 1), config, [](SecureComm& comm) {
    Bytes data = comm.rank() == 0 ? bytes_of("short key") : Bytes(9);
    comm.bcast(data, 0);
    EXPECT_EQ(std::string(data.begin(), data.end()), "short key");
  });
}

TEST(SecureHardening, MismatchedKeysCannotTalk) {
  // Two ranks configured with different keys: decryption must fail
  // (the scenario a broken key-distribution step would create).
  EXPECT_THROW(
      mpi::run_world(world_of(2, 1),
                     [](Comm& comm) {
                       SecureConfig config;
                       config.cost_model = CryptoCostModel{};
                       config.key = crypto::demo_key(32);
                       if (comm.rank() == 1) config.key[0] ^= 0x01;
                       SecureComm secure(comm, config);
                       if (comm.rank() == 0) {
                         secure.send(Bytes(16, 0x55), 1, 0);
                       } else {
                         Bytes buf(16);
                         secure.recv(buf, 0, 0);  // wrong key -> throw
                       }
                     }),
      IntegrityError);
}

TEST(SecureHardening, TamperedAllgatherBlockIsRejected) {
  // Corrupt one contributor's ciphertext inside a collective: the
  // decrypt loop on the receiving side must throw, not deliver junk.
  EXPECT_THROW(
      mpi::run_world(
          world_of(2, 1),
          [](Comm& comm) {
            SecureConfig config;
            config.cost_model = CryptoCostModel{};
            SecureComm secure(comm, config);
            const std::size_t block = 64;
            const std::size_t wire_block = SecureComm::wire_size(block);
            if (comm.rank() == 0) {
              // Play a corrupted allgather participant: run the plain
              // collective with garbage where a sealed block belongs.
              Bytes bogus(wire_block, 0xEE);
              Bytes all(wire_block * 2);
              comm.allgather(bogus, all);
            } else {
              Bytes all(block * 2);
              secure.allgather(Bytes(block, 0x01), all);  // must throw
            }
          }),
      IntegrityError);
}

TEST(SecureHardening, GatherRootChecksItsBufferBeforeSealing) {
  // A root with a wrong-sized receive buffer fails before spending any
  // crypto on its own block, like every other secure collective.
  SecureConfig config;
  config.cost_model = CryptoCostModel{};
  run_secure_world(world_of(2, 1), config, [](SecureComm& comm) {
    const Bytes block(64, 0x01);
    if (comm.rank() == 0) {
      Bytes too_small(block.size());
      EXPECT_THROW(comm.gather(block, too_small, 0), mpi::MpiError);
      EXPECT_EQ(comm.counters().messages_sealed, 0u);
    } else {
      comm.gather(block, {}, 0);
    }
  });
}

TEST(SecureHardening, StatusReportsPlaintextSizesWithWildcards) {
  SecureConfig config;
  config.cost_model = CryptoCostModel{};
  run_secure_world(world_of(3, 1), config, [](SecureComm& comm) {
    if (comm.rank() == 0) {
      std::size_t total = 0;
      for (int i = 0; i < 2; ++i) {
        Bytes buf(512);
        const Status st = comm.recv(buf, mpi::kAnySource, mpi::kAnyTag);
        EXPECT_EQ(st.bytes, static_cast<std::size_t>(st.source) * 100);
        total += st.bytes;
      }
      EXPECT_EQ(total, 300u);
    } else {
      comm.send(Bytes(static_cast<std::size_t>(comm.rank()) * 100, 1), 0,
                comm.rank());
    }
  });
}

}  // namespace
}  // namespace emc::secure
