// The ARQ reliability layer: configuration validation, backoff
// determinism, recovery from every fault kind on both wire protocols,
// end-to-end NACK recovery through the secure layer, graceful
// degradation on a scripted dead link, schedule-perturbation
// robustness, and bit-exact replay when the layer is disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "emc/reliable/reliable.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::reliable {
namespace {

using mpi::Comm;
using mpi::Status;
using mpi::World;
using mpi::WorldConfig;

WorldConfig arq_world(int nodes, int rpn, const net::FaultPlan& plan) {
  WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = rpn;
  config.cluster.inter = net::ethernet_10g();
  config.cluster.faults = plan;
  config.reliability.enabled = true;
  return config;
}

net::FaultPlan nth_fault(net::FaultKind kind, std::uint64_t nth = 0) {
  net::FaultPlan plan;
  plan.triggers.push_back({.src = 0, .dst = 1, .nth = nth, .kind = kind});
  return plan;
}

TEST(ReliableConfig, ValidatesKnobs) {
  Config config;
  config.enabled = true;
  EXPECT_NO_THROW(config.validate());
  config.max_retries = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = Config{.enabled = true, .rto_initial = 0.0};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = Config{.enabled = true, .rto_initial = 1e-3, .rto_max = 1e-4};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = Config{.enabled = true, .backoff = 0.5};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = Config{.enabled = true, .jitter = 1.0};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // A disabled config never validates its knobs (it is inert).
  config = Config{.enabled = false, .max_retries = 0};
  EXPECT_NO_THROW(config.validate());
  // World construction rejects a bad enabled config up front.
  WorldConfig world = arq_world(2, 1, {});
  world.reliability.max_retries = 0;
  EXPECT_THROW(World{world}, std::invalid_argument);
}

TEST(ReliableConfig, NegativeRecvTimeoutRejectedAtConstruction) {
  WorldConfig config = arq_world(2, 1, {});
  config.recv_timeout = -0.5;
  EXPECT_THROW(World{config}, std::invalid_argument);
  config.recv_timeout = 0.0;  // 0.0 = wait forever: valid
  EXPECT_NO_THROW(World{config});
}

TEST(ReliableChannel, BackoffGrowsIsCappedAndJitterIsSeeded) {
  net::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.ranks_per_node = 1;
  cluster.inter = net::ethernet_10g();
  net::Fabric fabric(cluster);
  Config config;
  config.enabled = true;
  config.rto_initial = 1e-4;
  config.rto_max = 1e-3;
  config.backoff = 2.0;
  config.jitter = 0.2;
  Channel channel(config, fabric);

  double prev = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double t = channel.rto(0, 1, 7, attempt);
    // Within the jittered envelope of the capped exponential ladder.
    const double base =
        std::min(config.rto_initial * std::pow(2.0, attempt), config.rto_max);
    EXPECT_GE(t, base * (1.0 - config.jitter));
    EXPECT_LE(t, base * (1.0 + config.jitter));
    if (attempt > 0 && attempt < 4) {
      EXPECT_GT(t, prev * 1.2);
    }
    prev = t;
  }
  // Deterministic: the same coordinates give the same timer; different
  // sequence numbers decorrelate the jitter.
  EXPECT_DOUBLE_EQ(channel.rto(0, 1, 7, 3), channel.rto(0, 1, 7, 3));
  EXPECT_NE(channel.rto(0, 1, 7, 3), channel.rto(0, 1, 8, 3));
}

TEST(ReliableEager, DropIsRetransmittedAfterRto) {
  WorldConfig config = arq_world(2, 1, nth_fault(net::FaultKind::kDrop));
  World world(config);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(bytes_of("survives"), 1, 1);
    } else {
      Bytes buf(16);
      const Status st = comm.recv(buf, 0, 1);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes),
                "survives");
    }
  });
  const ReliabilityStats& stats = world.reliability()->stats();
  EXPECT_EQ(stats.rto_expirations, 1u);
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.deliveries, 1u);
  EXPECT_GT(stats.recovery_delay_total, 0.0);
}

TEST(ReliableEager, TruncationIsNackedAtTheLinkLayer) {
  // The ARQ header carries the frame length, so a truncated frame
  // never reaches the application: the link layer NACKs and the
  // retransmission delivers the full payload.
  WorldConfig config = arq_world(2, 1, nth_fault(net::FaultKind::kTruncate));
  World world(config);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(Bytes(64, 0xAB), 1, 1);
    } else {
      Bytes buf(64, 0x00);
      const Status st = comm.recv(buf, 0, 1);
      EXPECT_EQ(st.bytes, 64u);  // full length, unlike the bare fabric
      EXPECT_EQ(buf, Bytes(64, 0xAB));
    }
  });
  EXPECT_EQ(world.reliability()->stats().link_nacks, 1u);
  EXPECT_EQ(world.reliability()->stats().retransmits, 1u);
}

TEST(ReliableEager, DuplicateIsSuppressedBySequenceWindow) {
  WorldConfig config = arq_world(2, 1, nth_fault(net::FaultKind::kDuplicate));
  config.recv_timeout = 0.25;
  World world(config);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(bytes_of("once"), 1, 1);
    } else {
      Bytes buf(8);
      const Status st = comm.recv(buf, 0, 1);
      EXPECT_EQ(st.bytes, 4u);
      // The fabric copy was absorbed below the MPI layer: a second
      // receive finds nothing and times out.
      EXPECT_THROW((void)comm.recv(buf, 0, 1), mpi::MpiError);
    }
  });
  EXPECT_EQ(world.reliability()->stats().duplicates_suppressed, 1u);
  EXPECT_EQ(world.reliability()->stats().deliveries, 1u);
}

TEST(ReliableEager, CorruptPointToPointIsDeliveredDamaged) {
  // User point-to-point frames are not link-checksummed: integrity
  // stays the upper layer's job, preserving the plain baseline's
  // silent-corruption story even with the ARQ enabled.
  WorldConfig config = arq_world(2, 1, nth_fault(net::FaultKind::kCorrupt));
  World world(config);
  world.run([](Comm& comm) {
    const std::size_t n = 64;
    if (comm.rank() == 0) {
      comm.send(Bytes(n, 0x00), 1, 1);
    } else {
      Bytes buf(n, 0x00);
      const Status st = comm.recv(buf, 0, 1);
      EXPECT_EQ(st.bytes, n);
      int flipped = 0;
      for (std::uint8_t byte : buf) flipped += std::popcount(byte);
      EXPECT_EQ(flipped, 1);
    }
  });
  EXPECT_EQ(world.reliability()->stats().damaged_deliveries, 1u);
}

TEST(ReliableEager, ShortDelayIsAbsorbedLongDelayRetransmitsSpuriously) {
  // Spike below the RTO: just a late arrival. Spike above the RTO:
  // the sender retransmits spuriously and the extra copy is absorbed
  // by the sequence window.
  for (const bool spurious : {false, true}) {
    net::FaultPlan plan;
    plan.triggers.push_back({.src = 0,
                             .dst = 1,
                             .nth = 0,
                             .kind = net::FaultKind::kDelay,
                             .delay_seconds = spurious ? 0.1 : 1e-5});
    WorldConfig config = arq_world(2, 1, plan);
    World world(config);
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(bytes_of("late"), 1, 1);
      } else {
        Bytes buf(8);
        const Status st = comm.recv(buf, 0, 1);
        EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes), "late");
      }
    });
    const ReliabilityStats& stats = world.reliability()->stats();
    EXPECT_EQ(stats.delays_absorbed, 1u);
    EXPECT_EQ(stats.spurious_retransmits, spurious ? 1u : 0u);
    EXPECT_EQ(stats.duplicates_suppressed, spurious ? 1u : 0u);
  }
}

TEST(ReliableRendezvous, DroppedPullIsRetriedOnTimer) {
  // Above the eager threshold the fault hits the RDMA pull; with the
  // ARQ the receiver's timer re-issues the pull instead of degrading
  // the drop to corruption.
  WorldConfig config = arq_world(2, 1, nth_fault(net::FaultKind::kDrop));
  World world(config);
  world.run([](Comm& comm) {
    const std::size_t n = 128 * 1024;
    if (comm.rank() == 0) {
      comm.send(Bytes(n, 0x77), 1, 1);
    } else {
      Bytes buf(n, 0x00);
      const Status st = comm.recv(buf, 0, 1);
      EXPECT_EQ(st.bytes, n);
      EXPECT_EQ(buf, Bytes(n, 0x77));
    }
  });
  const ReliabilityStats& stats = world.reliability()->stats();
  EXPECT_EQ(stats.rto_expirations, 1u);
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
}

TEST(ReliableCollective, CorruptedCollectiveFrameRecoversTransparently) {
  // Collective-internal frames are link-checksummed: corruption is
  // NACKed and retransmitted below the MPI layer, so a bcast over a
  // lossy wire still delivers the exact payload everywhere.
  net::FaultPlan plan;
  plan.seed = 5;
  plan.p_corrupt = 0.2;
  plan.p_drop = 0.1;
  WorldConfig config = arq_world(4, 1, plan);
  World world(config);
  world.run([](Comm& comm) {
    Bytes data = comm.rank() == 0 ? bytes_of("gold payload")
                                  : Bytes(12, 0x00);
    comm.bcast(data, 0);
    EXPECT_EQ(std::string(data.begin(), data.end()), "gold payload");
    comm.barrier();
  });
  const ReliabilityStats& stats = world.reliability()->stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.damaged_deliveries, 0u);  // nothing reached the app damaged
}

TEST(ReliableSecure, AuthFailureBecomesNackAndRetransmitNotThrow) {
  // The marquee interaction: a corrupted eager frame fails GCM
  // authentication in the secure layer, which NACKs through the ARQ
  // instead of throwing IntegrityError; the retransmitted clean copy
  // authenticates and the application never sees an error.
  WorldConfig config = arq_world(2, 1, nth_fault(net::FaultKind::kCorrupt));
  World world(config);
  world.run([](Comm& comm) {
    secure::SecureConfig sc;
    sc.cost_model = secure::CryptoCostModel{};
    secure::SecureComm secure(comm, sc);
    if (comm.rank() == 0) {
      secure.send(bytes_of("recovered end to end"), 1, 2);
    } else {
      Bytes buf(32);
      Status st{};
      EXPECT_NO_THROW(st = secure.recv(buf, 0, 2));
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes),
                "recovered end to end");
      EXPECT_EQ(secure.counters().auth_failures, 0u);
      EXPECT_EQ(secure.counters().nacks_sent, 1u);
      EXPECT_EQ(secure.counters().retransmits_recovered, 1u);
    }
  });
  const ReliabilityStats& stats = world.reliability()->stats();
  EXPECT_EQ(stats.damaged_deliveries, 1u);
  EXPECT_GE(stats.e2e_nacks, 1u);
  EXPECT_GE(stats.retransmits, 1u);
}

TEST(ReliableSecure, RendezvousAuthFailureAlsoRecovers) {
  const std::size_t n = 128 * 1024;  // sealed wire rides the rendezvous
  WorldConfig config = arq_world(2, 1, nth_fault(net::FaultKind::kCorrupt));
  World world(config);
  world.run([&](Comm& comm) {
    secure::SecureConfig sc;
    sc.cost_model = secure::CryptoCostModel{};
    secure::SecureComm secure(comm, sc);
    if (comm.rank() == 0) {
      secure.send(Bytes(n, 0x3C), 1, 2);
    } else {
      Bytes buf(n);
      Status st{};
      EXPECT_NO_THROW(st = secure.recv(buf, 0, 2));
      EXPECT_EQ(st.bytes, n);
      EXPECT_EQ(buf, Bytes(n, 0x3C));
      EXPECT_EQ(secure.counters().auth_failures, 0u);
      EXPECT_EQ(secure.counters().retransmits_recovered, 1u);
    }
  });
}

TEST(ReliableSecure, AttackerInjectionStillThrowsIntegrityError) {
  // End-to-end recovery must not absolve real attackers: garbage that
  // never passed through the fabric's damage path has no retransmit
  // stash entry, so authentication failure still throws.
  WorldConfig config = arq_world(2, 1, {});
  World world(config);
  world.run([](Comm& comm) {
    secure::SecureConfig sc;
    sc.cost_model = secure::CryptoCostModel{};
    secure::SecureComm secure(comm, sc);
    if (comm.rank() == 0) {
      comm.send(Bytes(secure::SecureComm::wire_size(8), 0xEE), 1, 3);
    } else {
      Bytes buf(8);
      EXPECT_THROW((void)secure.recv(buf, 0, 3), secure::IntegrityError);
      EXPECT_EQ(secure.counters().auth_failures, 1u);
      EXPECT_EQ(secure.counters().nacks_sent, 0u);
    }
  });
}

/// One line fault on a handed-over frame (Comm::send_frame /
/// recv_frame), with or without the ARQ.
struct FrameFault {
  const char* name;
  std::size_t bytes;  ///< 64 B rides eager, 128 KiB the rendezvous pull
  net::FaultKind kind;
  bool arq;
};

class ReliableFrame : public ::testing::TestWithParam<FrameFault> {};

TEST_P(ReliableFrame, TakenFrameCarriesTheDamageAndArqRestoresIt) {
  // The frame still changes hands by move under a fault; the damage
  // lands in the taken frame itself. With the ARQ a corrupted frame's
  // clean bytes come back through recover_damaged_recv and a truncated
  // one is NACKed at the link layer; without it a truncated frame
  // arrives short and nothing can restore it.
  const FrameFault& c = GetParam();
  WorldConfig config = arq_world(2, 1, nth_fault(c.kind));
  config.reliability.enabled = c.arq;
  World world(config);
  const std::uint8_t* sent = nullptr;
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      Bytes frame(c.bytes, 0x5A);
      sent = frame.data();
      comm.send_frame(std::move(frame), 1, 1);
      return;
    }
    Bytes frame;
    const Status st = comm.recv_frame(frame, c.bytes, 0, 1);
    EXPECT_EQ(frame.data(), sent);
    EXPECT_EQ(st.bytes, frame.size());
    const Bytes clean(frame.size(), 0x5A);
    if (c.kind == net::FaultKind::kTruncate) {
      EXPECT_EQ(frame.size() < c.bytes, !c.arq);
      EXPECT_EQ(frame, clean);
      EXPECT_FALSE(comm.recover_damaged_recv(frame, 0, 1));
      return;
    }
    ASSERT_EQ(frame.size(), c.bytes);
    int flipped = 0;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      flipped += std::popcount(static_cast<unsigned>(frame[i] ^ clean[i]));
    }
    EXPECT_EQ(flipped, 1);
    EXPECT_EQ(comm.recover_damaged_recv(frame, 0, 1), c.arq);
    EXPECT_EQ(frame == clean, c.arq);
  });
  if (c.arq && c.kind == net::FaultKind::kTruncate) {
    EXPECT_EQ(world.reliability()->stats().link_nacks, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ReliableFrame,
    ::testing::Values(
        FrameFault{"EagerCorruptArq", 64, net::FaultKind::kCorrupt, true},
        FrameFault{"EagerCorrupt", 64, net::FaultKind::kCorrupt, false},
        FrameFault{"EagerTruncateArq", 64, net::FaultKind::kTruncate, true},
        FrameFault{"EagerTruncate", 64, net::FaultKind::kTruncate, false},
        FrameFault{"RndvCorruptArq", 128 * 1024, net::FaultKind::kCorrupt,
                   true},
        FrameFault{"RndvCorrupt", 128 * 1024, net::FaultKind::kCorrupt,
                   false},
        FrameFault{"RndvTruncateArq", 128 * 1024, net::FaultKind::kTruncate,
                   true},
        FrameFault{"RndvTruncate", 128 * 1024, net::FaultKind::kTruncate,
                   false}),
    [](const ::testing::TestParamInfo<FrameFault>& param) {
      return std::string(param.param.name);
    });

TEST(ReliableDegrade, DeadLinkRaisesPeerUnreachableAndSurvivorsFinish) {
  // Scripted dead link 0 -> 1: every transmission attempt of the
  // first message is dropped until the retry budget runs out. The
  // sender gets a structured PeerUnreachable (no hang), the receiver
  // gets one from the tombstone (no timeout), the verifier records a
  // warning diagnostic, and traffic among survivors still flows.
  net::FaultPlan plan;
  constexpr int kRetries = 3;
  for (std::uint64_t nth = 0; nth <= kRetries; ++nth) {
    plan.triggers.push_back(
        {.src = 0, .dst = 1, .nth = nth, .kind = net::FaultKind::kDrop});
  }
  WorldConfig config = arq_world(3, 1, plan);
  config.reliability.max_retries = kRetries;
  config.verify.enabled = true;
  World world(config);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      bool unreachable = false;
      try {
        comm.send(bytes_of("into the void"), 1, 1);
      } catch (const PeerUnreachable& e) {
        unreachable = true;
        EXPECT_EQ(e.src, 0);
        EXPECT_EQ(e.dst, 1);
        EXPECT_EQ(e.attempts, static_cast<std::uint64_t>(kRetries) + 1);
      }
      EXPECT_TRUE(unreachable);
      // The dead link now fails fast, before burning another budget.
      EXPECT_THROW(comm.send(bytes_of("again"), 1, 1), PeerUnreachable);
      comm.send(bytes_of("still alive"), 2, 1);  // survivor traffic
    } else if (comm.rank() == 1) {
      Bytes buf(16);
      EXPECT_THROW((void)comm.recv(buf, 0, 1), PeerUnreachable);
      const Status st = comm.recv(buf, 2, 1);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes), "relay");
    } else {
      Bytes buf(16);
      const Status st = comm.recv(buf, 0, 1);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes),
                "still alive");
      comm.send(bytes_of("relay"), 1, 1);
    }
  });
  EXPECT_EQ(world.reliability()->stats().links_dead, 1u);
  // Degradation is a warning-severity diagnostic: recorded, but it
  // must never abort the surviving ranks even in fail-fast mode.
  bool recorded = false;
  for (const auto& d : world.verifier()->diagnostics()) {
    if (d.check == verify::Check::kPeerUnreachable) {
      recorded = true;
      EXPECT_EQ(d.severity, verify::Severity::kWarning);
      EXPECT_EQ(d.ranks, (std::vector<int>{0, 1}));
    }
  }
  EXPECT_TRUE(recorded);
  EXPECT_TRUE(world.verifier()->clean());
}

TEST(ReliableDegrade, RefusedSendReservesNoWire) {
  // A send to a link already declared dead is refused before it
  // touches the wire: it reports zero attempts and leaves the sender's
  // NIC free, so the next send to a survivor lands exactly when it
  // would have without the refused one.
  net::FaultPlan plan;
  for (std::uint64_t nth = 0; nth < 20; ++nth) {
    plan.triggers.push_back(
        {.src = 0, .dst = 1, .nth = nth, .kind = net::FaultKind::kDrop});
  }
  const auto survivor_arrival = [&](bool resend) {
    World world(arq_world(3, 1, plan));
    double arrival = 0.0;
    world.run([&](Comm& comm) {
      const Bytes payload(4096, 0x5a);
      if (comm.rank() == 0) {
        EXPECT_THROW(comm.send(payload, 1, 1), PeerUnreachable);
        if (resend) {
          try {
            comm.send(payload, 1, 1);
            ADD_FAILURE() << "send to a dead link must throw";
          } catch (const PeerUnreachable& e) {
            EXPECT_EQ(e.attempts, 0u);
          }
        }
        comm.send(payload, 2, 1);
      } else if (comm.rank() == 1) {
        Bytes buf(4096);
        EXPECT_THROW((void)comm.recv(buf, 0, 1), PeerUnreachable);
      } else {
        Bytes buf(4096);
        (void)comm.recv(buf, 0, 1);
        EXPECT_EQ(buf, payload);
        arrival = comm.now();
      }
    });
    return arrival;
  };
  const double baseline = survivor_arrival(false);
  EXPECT_GT(baseline, 0.0);
  EXPECT_EQ(survivor_arrival(true), baseline);
}

TEST(ReliablePerturbed, TranscriptsAndFaultStatsIdenticalAcrossSalts) {
  // Schedule perturbation must not change what the ARQ delivers: the
  // fault schedule is a pure function of (seed, link, frame index),
  // so every tie-break salt yields the same delivered payloads and
  // the same injection stats.
  net::FaultPlan plan;
  plan.seed = 21;
  plan.p_drop = 0.1;
  plan.p_corrupt = 0.1;
  WorldConfig config = arq_world(4, 1, plan);

  constexpr int kRuns = 5;  // run 0 baseline + 4 perturbed salts
  std::vector<std::string> transcripts;  // kRanks entries per run
  std::vector<net::FaultStats> fault_stats;  // 1 entry per run
  const auto body = [&](Comm& comm) {
    const int n = comm.size();
    const int next = (comm.rank() + 1) % n;
    const int prev = (comm.rank() - 1 + n) % n;
    std::string got;
    for (int i = 0; i < 8; ++i) {
      Bytes out(32, static_cast<std::uint8_t>(comm.rank() * 16 + i));
      mpi::Request rs = comm.isend(out, next, i);
      Bytes in(32);
      const Status st = comm.recv(in, prev, i);
      comm.wait(rs);
      got += std::to_string(st.bytes) + ":";
      for (std::uint8_t b : in) got += static_cast<char>('a' + (b % 26));
      got += "|";
    }
    comm.barrier();  // all traffic done: fault stats are final
    transcripts.push_back(std::to_string(comm.rank()) + "=" + got);
    if (comm.rank() == 0) {
      fault_stats.push_back(comm.world().fabric().faults()->stats());
    }
  };

  const auto runs = mpi::run_perturbed(config, body, kRuns, /*seed=*/77);
  ASSERT_EQ(runs.size(), static_cast<std::size_t>(kRuns));
  std::vector<std::uint64_t> salts;
  for (const auto& run : runs) {
    EXPECT_FALSE(run.failed) << run.error;
    salts.push_back(run.salt);
  }
  EXPECT_GE(std::set<std::uint64_t>(salts.begin(), salts.end()).size(), 4u);

  ASSERT_EQ(transcripts.size(), static_cast<std::size_t>(4 * kRuns));
  ASSERT_EQ(fault_stats.size(), static_cast<std::size_t>(kRuns));
  // Per-run transcript sets must be identical across all salts.
  const auto run_set = [&](int run) {
    std::vector<std::string> s(transcripts.begin() + run * 4,
                               transcripts.begin() + (run + 1) * 4);
    std::sort(s.begin(), s.end());
    return s;
  };
  const auto baseline = run_set(0);
  for (int run = 1; run < kRuns; ++run) {
    EXPECT_EQ(run_set(run), baseline) << "salt " << salts[(std::size_t)run];
  }
  for (int run = 1; run < kRuns; ++run) {
    EXPECT_EQ(fault_stats[static_cast<std::size_t>(run)], fault_stats[0]);
  }
}

TEST(ReliableOffByDefault, DisabledLayerReplaysTheBareFabricBitExact) {
  // With reliability.enabled=false no channel is constructed and the
  // wire path must replay the bare fabric exactly: same per-byte
  // deliveries, same fault stats, same virtual end time.
  const auto campaign = [](bool declare_knobs) {
    WorldConfig config;
    config.cluster.num_nodes = 2;
    config.cluster.ranks_per_node = 1;
    config.cluster.inter = net::ethernet_10g();
    config.cluster.faults.seed = 9;
    config.cluster.faults.p_corrupt = 0.15;
    config.cluster.faults.p_duplicate = 0.1;
    config.recv_timeout = 0.5;
    if (declare_knobs) {
      // Touch every knob except the master switch: must be inert.
      config.reliability.max_retries = 2;
      config.reliability.rto_initial = 1e-5;
      config.reliability.jitter = 0.0;
    }
    World world(config);
    std::string transcript;
    const double end = world.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < 20; ++i) comm.send(Bytes(64, 0x5A), 1, 1);
      } else {
        for (;;) {
          Bytes buf(64);
          try {
            const Status st = comm.recv(buf, 0, 1);
            transcript += std::to_string(st.bytes) + ",";
          } catch (const mpi::MpiError&) {
            break;  // drained
          }
        }
      }
    });
    EXPECT_EQ(world.reliability(), nullptr);
    return std::make_tuple(end, transcript,
                           world.fabric().faults()->stats());
  };
  EXPECT_EQ(campaign(false), campaign(true));
}

}  // namespace
}  // namespace emc::reliable
