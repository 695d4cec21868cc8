// Untrusted-relay trust policy: plaintext-exposure accounting under
// hop-trusted vs end-to-end sealing, per-hop vs end-to-end corruption
// recovery on multi-hop routes, and the per-relay crypto surcharge.
#include <gtest/gtest.h>

#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::secure {
namespace {

using mpi::Comm;
using mpi::Status;
using mpi::WorldConfig;

/// Three single-rank nodes; rank 0 <-> rank 2 traffic relays via node 1.
WorldConfig relayed_world() {
  WorldConfig config;
  config.cluster.num_nodes = 3;
  config.cluster.ranks_per_node = 1;
  config.cluster.routes.push_back({0, 2, {1}});
  config.cluster.routes.push_back({2, 0, {1}});
  return config;
}

SecureConfig secure_with_trust(RelayTrust trust) {
  SecureConfig config;
  config.cost_model = CryptoCostModel{};
  config.relay_trust = trust;
  return config;
}

TEST(RelayTrust, HopTrustedCountsExposuresEndToEndCountsNone) {
  // The central security-vs-cost trade of the untrusted-overlay
  // scenario: hop-trusted relays see plaintext (one exposure event per
  // relay node per delivered payload), end-to-end relays never do.
  for (const RelayTrust trust :
       {RelayTrust::kHopTrusted, RelayTrust::kEndToEnd}) {
    run_secure_world(
        relayed_world(), secure_with_trust(trust), [&](SecureComm& comm) {
          constexpr int kMsgs = 5;
          for (int i = 0; i < kMsgs; ++i) {
            if (comm.rank() == 0) {
              comm.send(Bytes(256, static_cast<std::uint8_t>(i)), 2, i);
            } else if (comm.rank() == 2) {
              Bytes buf(256);
              const Status st = comm.recv(buf, 0, i);
              EXPECT_EQ(st.bytes, 256u);
              EXPECT_EQ(buf, Bytes(256, static_cast<std::uint8_t>(i)));
            }
          }
          if (comm.rank() == 2) {
            // Every payload crossed exactly one relay; nothing else
            // has touched the relayed pairs yet. (A later barrier
            // would add exposures of its own — its dissemination
            // rounds cross the 0 <-> 2 route too.)
            if (trust == RelayTrust::kHopTrusted) {
              EXPECT_EQ(comm.exposure_events(),
                        static_cast<std::uint64_t>(kMsgs));
            } else {
              EXPECT_EQ(comm.exposure_events(), 0u);
            }
          }
          comm.barrier();
          if (trust == RelayTrust::kEndToEnd) {
            EXPECT_EQ(comm.exposure_events(), 0u);  // sealed everywhere
          }
        });
  }
}

TEST(RelayTrust, HopTrustedCatchesCorruptionAtTheFaultyHop) {
  // hop_integrity: the relay re-authenticates before forwarding, so a
  // corrupted hop frame is NACKed and retransmitted at that hop — the
  // destination's GCM open never even sees damage.
  WorldConfig config = relayed_world();
  config.cluster.faults.triggers.push_back(
      {.src = -1, .dst = -1, .nth = 0, .kind = net::FaultKind::kCorrupt});
  config.reliability.enabled = true;
  run_secure_world(
      config, secure_with_trust(RelayTrust::kHopTrusted),
      [](SecureComm& comm) {
        if (comm.rank() == 0) {
          comm.send(Bytes(512, 0x5A), 2, 1);
        } else if (comm.rank() == 2) {
          Bytes buf(512);
          Status st{};
          EXPECT_NO_THROW(st = comm.recv(buf, 0, 1));
          EXPECT_EQ(st.bytes, 512u);
          EXPECT_EQ(buf, Bytes(512, 0x5A));
          EXPECT_EQ(comm.counters().auth_failures, 0u);
          EXPECT_EQ(comm.counters().nacks_sent, 0u);  // no e2e recovery
        }
      });
}

TEST(RelayTrust, EndToEndLetsCorruptionRideAndRecoversAtDestination) {
  // Sealed forwarding: the relay cannot check what it cannot read, so
  // the damaged envelope rides to rank 2, fails authentication there,
  // and recovery costs a full end-to-end NACK dialogue.
  WorldConfig config = relayed_world();
  config.cluster.faults.triggers.push_back(
      {.src = -1, .dst = -1, .nth = 0, .kind = net::FaultKind::kCorrupt});
  config.reliability.enabled = true;
  mpi::World world(config);
  world.run([](Comm& plain) {
    SecureComm comm(plain, secure_with_trust(RelayTrust::kEndToEnd));
    if (comm.rank() == 0) {
      comm.send(Bytes(512, 0x5A), 2, 1);
    } else if (comm.rank() == 2) {
      Bytes buf(512);
      Status st{};
      EXPECT_NO_THROW(st = comm.recv(buf, 0, 1));
      EXPECT_EQ(st.bytes, 512u);
      EXPECT_EQ(buf, Bytes(512, 0x5A));
      EXPECT_EQ(comm.counters().auth_failures, 0u);  // recovered, not fatal
      EXPECT_EQ(comm.counters().nacks_sent, 1u);
      EXPECT_EQ(comm.counters().retransmits_recovered, 1u);
      EXPECT_EQ(comm.exposure_events(), 0u);
    }
  });
  EXPECT_GE(world.reliability()->stats().e2e_nacks, 1u);
}

TEST(RelayTrust, HopTrustedReSealsSpendTheNonceBudgetFailClosed) {
  // Each hop-trusted relay re-seals the payload under the same group
  // key, so a route with one relay burns two AEAD invocations per
  // message. With a threshold of 5, the third message (invocations 5
  // and 6) must be refused at the sender — fail closed before an
  // unaccountable relay overruns the (key, nonce) budget — while the
  // same traffic under end-to-end trust (one invocation per message)
  // sails through five messages.
  for (const RelayTrust trust :
       {RelayTrust::kHopTrusted, RelayTrust::kEndToEnd}) {
    SecureConfig sc = secure_with_trust(trust);
    sc.nonce_mode = NonceMode::kCounter;
    sc.nonce_rekey_threshold = 5;
    int sent = 0;
    bool exhausted = false;
    run_secure_world(relayed_world(), sc, [&](SecureComm& comm) {
      if (comm.rank() == 0) {
        try {
          for (int i = 0; i < 5; ++i) {
            comm.send(Bytes(64, static_cast<std::uint8_t>(i)), 2, i);
            ++sent;
          }
        } catch (const NonceExhaustedError&) {
          exhausted = true;
        }
      } else if (comm.rank() == 2) {
        Bytes buf(64);
        const int expect = trust == RelayTrust::kHopTrusted ? 2 : 5;
        for (int i = 0; i < expect; ++i) (void)comm.recv(buf, 0, i);
      }
    });
    if (trust == RelayTrust::kHopTrusted) {
      EXPECT_TRUE(exhausted);
      EXPECT_EQ(sent, 2);  // messages 1-2 spent 2 invocations each
    } else {
      EXPECT_FALSE(exhausted);
      EXPECT_EQ(sent, 5);
    }
  }
}

TEST(RelayTrust, HopTrustedPaysThePerRelayCryptoSurcharge) {
  // With an analytic cost model, every hop-trusted relay bills one
  // open + one seal per payload; end-to-end forwarding is free. Same
  // traffic, same network — the timeline difference is pure relay
  // crypto.
  const auto campaign = [](RelayTrust trust) {
    SecureConfig sc;
    sc.relay_trust = trust;
    CryptoCostModel model;
    model.seal_per_op = 2e-6;
    model.seal_per_byte = 1e-9;
    model.open_per_op = 2e-6;
    model.open_per_byte = 1e-9;
    sc.cost_model = model;
    return run_secure_world(relayed_world(), sc, [](SecureComm& comm) {
      for (int i = 0; i < 10; ++i) {
        if (comm.rank() == 0) {
          comm.send(Bytes(4096, 0x11), 2, i);
        } else if (comm.rank() == 2) {
          Bytes buf(4096);
          (void)comm.recv(buf, 0, i);
        }
      }
    });
  };
  const double hop_trusted = campaign(RelayTrust::kHopTrusted);
  const double end_to_end = campaign(RelayTrust::kEndToEnd);
  EXPECT_GT(hop_trusted, end_to_end);
}

}  // namespace
}  // namespace emc::secure
