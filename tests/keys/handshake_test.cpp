// The lossy-link handshake: clean-fabric agreement, survival of a 30%
// loss continental WAN path with zero app-visible errors, bit-exact
// same-seed replay, a linger both ends leave together, the fail-closed
// retry budget, key_mgmt billing, and the usage guards.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "emc/keys/derive.hpp"
#include "emc/keys/handshake.hpp"
#include "emc/mpi/world.hpp"
#include "emc/netsim/wan.hpp"
#include "emc/trace/trace.hpp"

namespace emc::keys {
namespace {

using mpi::Comm;
using mpi::WorldConfig;

const crypto::DhGroup& group() {
  static const crypto::DhGroup g = crypto::generate_test_group(192, 42);
  return g;
}

WorldConfig clean_world() {
  WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  config.cluster.inter = net::ethernet_10g();
  config.recv_timeout = 0.05;
  return config;
}

/// Two ranks joined by a continental WAN path dropping @p p_drop of
/// frames independently in each direction. recv_timeout must cover
/// the ~40 ms one-way latency plus jitter, or every wait times out.
WorldConfig lossy_world(double p_drop, std::uint64_t seed) {
  WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  config.cluster.inter = net::ethernet_10g();
  config.cluster.links.push_back(
      {0, 1, net::wan_link(net::wan_continental(), p_drop, 2e-3, seed)});
  config.cluster.links.push_back(
      {1, 0, net::wan_link(net::wan_continental(), p_drop, 2e-3, seed + 1)});
  config.recv_timeout = 0.25;
  return config;
}

/// A loss-tolerant retry policy both endpoints agree on: enough
/// budget that the responder's timeout-driven waits survive the
/// initiator's backoff, and a bounded backoff so the linger window
/// stays short.
HandshakeConfig lossy_config(std::uint64_t seed) {
  HandshakeConfig cfg;
  cfg.seed = seed;
  cfg.max_attempts = 25;
  cfg.backoff_max = 0.5;
  return cfg;
}

struct EndpointOutcome {
  Bytes chain;
  int attempts = 0;
  double elapsed = 0.0;
  bool initiator = false;
  bool failed = false;
};

struct RunOutcome {
  std::array<EndpointOutcome, 2> ep;
  double end_time = 0.0;
};

RunOutcome run_handshake(const WorldConfig& world, const HandshakeConfig& cfg) {
  RunOutcome out;
  out.end_time = mpi::run_world(world, [&](Comm& comm) {
    EndpointOutcome& o = out.ep[static_cast<std::size_t>(comm.rank())];
    try {
      HandshakeResult res = link_handshake(comm, 1 - comm.rank(), group(), cfg);
      o.chain = res.chain;
      o.attempts = res.attempts;
      o.elapsed = res.elapsed;
      o.initiator = res.initiator;
    } catch (const HandshakeFailed& e) {
      o.failed = true;
      o.attempts = e.attempts;
    }
  });
  return out;
}

TEST(Handshake, CleanLinkAgreesFirstAttempt) {
  const RunOutcome out = run_handshake(clean_world(), {});
  for (const auto& o : out.ep) {
    ASSERT_FALSE(o.failed);
    EXPECT_EQ(o.attempts, 1);
    EXPECT_GT(o.elapsed, 0.0);
  }
  EXPECT_TRUE(out.ep[0].initiator);   // lower rank initiates
  EXPECT_FALSE(out.ep[1].initiator);
  ASSERT_EQ(out.ep[0].chain.size(), kChainBytes);
  EXPECT_EQ(out.ep[0].chain, out.ep[1].chain);
}

TEST(Handshake, BillsAsymmetricCryptoOnTheKeyMgmtLane) {
  WorldConfig config = clean_world();
  auto rec = std::make_shared<trace::TraceRecorder>(trace::Config{},
                                                    /*num_ranks=*/2);
  config.trace = rec;
  const RunOutcome out = run_handshake(config, {});
  ASSERT_FALSE(out.ep[0].failed);
  const HandshakeConfig defaults;
  for (int rank = 0; rank < 2; ++rank) {
    const double key_mgmt = rec->category_seconds(
        rank)[static_cast<std::size_t>(trace::Category::kKeyMgmt)];
    // One keygen + one shared-secret per endpoint, analytic cost.
    EXPECT_NEAR(key_mgmt, defaults.keygen_cost + defaults.shared_secret_cost,
                1e-12)
        << "rank " << rank;
  }
}

TEST(Handshake, SurvivesThirtyPercentLossWithZeroAppErrors) {
  const RunOutcome out =
      run_handshake(lossy_world(0.30, 17), lossy_config(0xc0ffee));
  for (const auto& o : out.ep) {
    ASSERT_FALSE(o.failed) << "budget exhausted under 30% loss";
    EXPECT_GE(o.attempts, 1);
    EXPECT_LE(o.attempts, 25);
  }
  ASSERT_EQ(out.ep[0].chain.size(), kChainBytes);
  EXPECT_EQ(out.ep[0].chain, out.ep[1].chain);
}

TEST(Handshake, LossyRunsReplayBitExactly) {
  const WorldConfig world = lossy_world(0.30, 99);
  const HandshakeConfig cfg = lossy_config(0xfeed);
  const RunOutcome a = run_handshake(world, cfg);
  const RunOutcome b = run_handshake(world, cfg);
  EXPECT_EQ(a.end_time, b.end_time);  // bit-exact virtual time
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_FALSE(a.ep[r].failed);
    EXPECT_EQ(a.ep[r].chain, b.ep[r].chain) << "rank " << r;
    EXPECT_EQ(a.ep[r].attempts, b.ep[r].attempts) << "rank " << r;
    EXPECT_EQ(a.ep[r].elapsed, b.ep[r].elapsed) << "rank " << r;
  }
  // A different handshake seed lands on a different chain.
  HandshakeConfig other = cfg;
  other.seed ^= 1;
  const RunOutcome c = run_handshake(world, other);
  ASSERT_FALSE(c.ep[0].failed);
  EXPECT_NE(c.ep[0].chain, a.ep[0].chain);
}

TEST(Handshake, FirstReceiveAfterTheLingerNeverTimesOut) {
  // Both ends leave their linger after the same whole number of
  // receive timeouts, so a ping-pong right after the handshake never
  // times out on the peer that is still lingering — for any backoff_max,
  // whole multiples of recv_timeout (the defaults 2.0 and 1.0
  // among them) included, on a clean and on a jittered metro link.
  for (const double timeout : {0.05, 0.1, 0.25, 1.0}) {
    for (const double backoff_max :
         {0.05, 0.1, 0.2, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const bool metro : {false, true}) {
          WorldConfig world = clean_world();
          world.recv_timeout = timeout;
          if (metro) {
            world.cluster.links.push_back(
                {0, 1, net::wan_link(net::wan_metro(), 0.0, 2e-3, seed)});
            world.cluster.links.push_back(
                {1, 0, net::wan_link(net::wan_metro(), 0.0, 2e-3, seed + 1)});
          }
          HandshakeConfig cfg;
          cfg.seed = seed;
          cfg.backoff_max = backoff_max;
          std::array<bool, 2> timed_out{};
          mpi::run_world(world, [&](Comm& comm) {
            const int peer = 1 - comm.rank();
            (void)link_handshake(comm, peer, group(), cfg);
            Bytes ball(1, 0x42);
            try {
              if (comm.rank() == 0) {
                comm.send(ball, peer, 7);
                (void)comm.recv(ball, peer, 7);
              } else {
                (void)comm.recv(ball, peer, 7);
                comm.send(ball, peer, 7);
              }
            } catch (const mpi::MpiError&) {
              timed_out[static_cast<std::size_t>(comm.rank())] = true;
            }
          });
          EXPECT_FALSE(timed_out[0] || timed_out[1])
              << "recv_timeout=" << timeout << " backoff_max=" << backoff_max
              << " seed=" << seed << (metro ? " metro" : " plain");
        }
      }
    }
  }
}

TEST(Handshake, InstanceSeparatesSuccessiveHandshakes) {
  const WorldConfig world = clean_world();
  HandshakeConfig cfg;
  const RunOutcome first = run_handshake(world, cfg);
  cfg.instance = 1;
  const RunOutcome second = run_handshake(world, cfg);
  ASSERT_FALSE(first.ep[0].failed);
  ASSERT_FALSE(second.ep[0].failed);
  // Same seed, new instance: a fresh chain (quarantine re-handshake).
  EXPECT_NE(first.ep[0].chain, second.ep[0].chain);
  EXPECT_EQ(second.ep[0].chain, second.ep[1].chain);
}

TEST(Handshake, BudgetExhaustionFailsClosedOnBothEnds) {
  HandshakeConfig cfg;
  cfg.max_attempts = 3;
  const RunOutcome out = run_handshake(lossy_world(1.0, 5), cfg);
  for (const auto& o : out.ep) {
    EXPECT_TRUE(o.failed);
    EXPECT_EQ(o.attempts, 3);
    EXPECT_TRUE(o.chain.empty()) << "no half-keyed link on failure";
  }
}

TEST(Handshake, GuardsUsageErrors) {
  // recv_timeout = 0 means loss could block forever: refused up front.
  WorldConfig no_timeout = clean_world();
  no_timeout.recv_timeout = 0.0;
  std::array<bool, 2> rejected{};
  mpi::run_world(no_timeout, [&](Comm& comm) {
    try {
      (void)link_handshake(comm, 1 - comm.rank(), group(), {});
    } catch (const std::invalid_argument&) {
      rejected[static_cast<std::size_t>(comm.rank())] = true;
    }
  });
  EXPECT_TRUE(rejected[0]);
  EXPECT_TRUE(rejected[1]);

  std::array<bool, 2> bad_peer{};
  mpi::run_world(clean_world(), [&](Comm& comm) {
    try {
      (void)link_handshake(comm, comm.rank(), group(), {});  // self
    } catch (const std::invalid_argument&) {
      bad_peer[static_cast<std::size_t>(comm.rank())] = true;
    }
  });
  EXPECT_TRUE(bad_peer[0]);
  EXPECT_TRUE(bad_peer[1]);
}

}  // namespace
}  // namespace emc::keys
