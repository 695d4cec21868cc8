// Tests for the virtual-time tracing subsystem: recorder mechanics,
// disabled-mode transparency, span ordering, attribution exactness,
// charge categorization, and byte-identical deterministic export.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "emc/mpi/comm.hpp"
#include "emc/mpi/world.hpp"
#include "emc/secure_mpi/secure_comm.hpp"
#include "emc/trace/export.hpp"
#include "emc/trace/trace.hpp"

namespace {

using namespace emc;

mpi::WorldConfig two_rank_config() {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  return config;
}

std::shared_ptr<trace::TraceRecorder> attach_recorder(
    mpi::WorldConfig& config, std::size_t ring_capacity = 1 << 14) {
  auto rec = std::make_shared<trace::TraceRecorder>(
      trace::Config{.ring_capacity = ring_capacity},
      config.cluster.total_ranks());
  config.trace = rec;
  return rec;
}

/// Two ranks bounce a message; size > 64 KB exercises rendezvous on
/// the default Ethernet profile, below it the eager path.
void pingpong_body(mpi::Comm& comm, std::size_t size, int iters) {
  Bytes payload(size, 0x5a);
  Bytes buf(size);
  for (int i = 0; i < iters; ++i) {
    if (comm.rank() == 0) {
      comm.send(payload, 1, 1);
      comm.recv(buf, 1, 2);
    } else {
      comm.recv(buf, 0, 1);
      comm.send(payload, 0, 2);
    }
  }
}

secure::SecureConfig analytic_secure_config() {
  secure::SecureConfig scfg;
  scfg.provider = "boringssl-sim";
  scfg.nonce_mode = secure::NonceMode::kCounter;
  scfg.cost_model = secure::CryptoCostModel{
      .seal_per_op = 0.5e-6,
      .seal_per_byte = 1.0 / (2.0 * 1381e6),
      .open_per_op = 0.5e-6,
      .open_per_byte = 1.0 / (2.0 * 1381e6),
  };
  return scfg;
}

void secure_pingpong_body(mpi::Comm& plain, std::size_t size, int iters) {
  secure::SecureComm comm(plain, analytic_secure_config());
  Bytes payload(size, 0x5a);
  Bytes buf(size);
  for (int i = 0; i < iters; ++i) {
    if (plain.rank() == 0) {
      comm.send(payload, 1, 1);
      comm.recv(buf, 1, 2);
    } else {
      comm.recv(buf, 0, 1);
      comm.send(payload, 0, 2);
    }
  }
}

double seconds_of(const trace::TraceRecorder& rec, int rank,
                  trace::Category cat) {
  return rec.category_seconds(rank)[static_cast<std::size_t>(cat)];
}

// ------------------------------------------------------------- recorder

TEST(TraceRecorder, RecordsEventsAndAccumulatesSeconds) {
  trace::TraceRecorder rec(trace::Config{.ring_capacity = 8}, 2);
  rec.record(0, trace::Category::kWire, 1.0, 1.5, 1, 100);
  rec.record(0, trace::Category::kCopy, 1.5, 1.75);
  rec.record(1, trace::Category::kSyncWait, 0.0, 2.0, 0);

  const auto events = rec.events(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].category, trace::Category::kWire);
  EXPECT_DOUBLE_EQ(events[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(events[0].end, 1.5);
  EXPECT_EQ(events[0].peer, 1);
  EXPECT_EQ(events[0].bytes, 100u);
  EXPECT_EQ(events[1].category, trace::Category::kCopy);

  EXPECT_DOUBLE_EQ(seconds_of(rec, 0, trace::Category::kWire), 0.5);
  EXPECT_DOUBLE_EQ(seconds_of(rec, 0, trace::Category::kCopy), 0.25);
  EXPECT_DOUBLE_EQ(seconds_of(rec, 1, trace::Category::kSyncWait), 2.0);
  EXPECT_EQ(rec.dropped(0), 0u);
}

TEST(TraceRecorder, ReversedIntervalClampsToZeroWidth) {
  trace::TraceRecorder rec(trace::Config{}, 1);
  rec.record(0, trace::Category::kWire, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(seconds_of(rec, 0, trace::Category::kWire), 0.0);
  EXPECT_DOUBLE_EQ(rec.events(0)[0].end, 2.0);
}

TEST(TraceRecorder, RingWrapDropsOldEventsButKeepsSummaryExact) {
  trace::TraceRecorder rec(trace::Config{.ring_capacity = 4}, 1);
  for (int i = 0; i < 10; ++i) {
    rec.record(0, trace::Category::kCompute, i, i + 0.5);
  }
  EXPECT_EQ(rec.recorded(0), 10u);
  EXPECT_EQ(rec.dropped(0), 6u);
  const auto events = rec.events(0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().begin, 6.0);  // oldest retained
  EXPECT_DOUBLE_EQ(events.back().begin, 9.0);
  // The per-category totals never drop with the ring.
  EXPECT_DOUBLE_EQ(seconds_of(rec, 0, trace::Category::kCompute), 5.0);
}

TEST(TraceRecorder, CapacityRoundsUpToPowerOfTwo) {
  trace::TraceRecorder rec(trace::Config{.ring_capacity = 5}, 1);
  for (int i = 0; i < 8; ++i) {
    rec.record(0, trace::Category::kCopy, i, i + 1);
  }
  EXPECT_EQ(rec.dropped(0), 0u);  // 5 rounds up to 8
  rec.record(0, trace::Category::kCopy, 8, 9);
  EXPECT_EQ(rec.dropped(0), 1u);
}

TEST(TraceRecorder, MismatchedRankCountIsRejectedByWorld) {
  mpi::WorldConfig config = two_rank_config();
  config.trace = std::make_shared<trace::TraceRecorder>(trace::Config{}, 3);
  EXPECT_THROW(mpi::World world(config), std::invalid_argument);
}

// ------------------------------------------------------ disabled mode

TEST(TraceDisabled, NoRecorderIsAllocatedByDefault) {
  mpi::World world(two_rank_config());
  EXPECT_EQ(world.trace(), nullptr);
}

TEST(TraceDisabled, TracedRunReplaysUntracedTimelineExactly) {
  for (const std::size_t size : {std::size_t{4096}, std::size_t{256 * 1024}}) {
    mpi::WorldConfig untraced = two_rank_config();
    const double t_untraced = mpi::run_world(
        untraced, [&](mpi::Comm& c) { pingpong_body(c, size, 3); });

    mpi::WorldConfig traced = two_rank_config();
    attach_recorder(traced);
    const double t_traced = mpi::run_world(
        traced, [&](mpi::Comm& c) { pingpong_body(c, size, 3); });

    EXPECT_EQ(t_untraced, t_traced) << "size " << size;
  }
}

// ------------------------------------------------------- span structure

TEST(TraceSpans, PerRankSpansAreChronologicalAndNonOverlapping) {
  mpi::WorldConfig config = two_rank_config();
  const auto rec = attach_recorder(config);
  mpi::run_world(config, [](mpi::Comm& c) {
    pingpong_body(c, 256 * 1024, 2);  // rendezvous
    pingpong_body(c, 1024, 2);        // eager
  });

  for (int rank = 0; rank < 2; ++rank) {
    const auto events = rec->events(rank);
    ASSERT_FALSE(events.empty());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_LE(events[i].begin, events[i].end);
      if (i > 0) {
        // A rank's instrumentation is strictly sequential: each span
        // begins at or after the previous one ended.
        EXPECT_GE(events[i].begin, events[i - 1].end - 1e-12)
            << "rank " << rank << " event " << i;
      }
    }
  }
}

TEST(TraceSpans, NonBlockingRendezvousSendTracesLikeBlockingSend) {
  // A 1 MiB isend+wait takes the same rendezvous handshake as a send:
  // the sender's sync_wait and nic_queue spans must match exactly,
  // payload size included.
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  const auto sender_spans = [](bool nonblocking) {
    mpi::WorldConfig config = two_rank_config();
    const auto rec = attach_recorder(config);
    mpi::run_world(config, [&](mpi::Comm& c) {
      Bytes buf(kBytes, 0x5a);
      if (c.rank() == 1) {
        c.recv(buf, 0, 1);
      } else if (nonblocking) {
        mpi::Request r = c.isend(buf, 1, 1);
        c.wait(r);
      } else {
        c.send(buf, 1, 1);
      }
    });
    return rec->events(0);
  };
  const auto blocking = sender_spans(false);
  const auto nonblocking = sender_spans(true);
  ASSERT_EQ(blocking.size(), nonblocking.size());
  int handshake_spans = 0;
  for (std::size_t i = 0; i < blocking.size(); ++i) {
    EXPECT_EQ(blocking[i].category, nonblocking[i].category) << "span " << i;
    EXPECT_EQ(blocking[i].begin, nonblocking[i].begin) << "span " << i;
    EXPECT_EQ(blocking[i].end, nonblocking[i].end) << "span " << i;
    EXPECT_EQ(blocking[i].peer, nonblocking[i].peer) << "span " << i;
    EXPECT_EQ(blocking[i].bytes, nonblocking[i].bytes) << "span " << i;
    if (nonblocking[i].category == trace::Category::kSyncWait ||
        nonblocking[i].category == trace::Category::kNicQueue) {
      ++handshake_spans;
      EXPECT_EQ(nonblocking[i].bytes, kBytes) << "span " << i;
    }
  }
  EXPECT_GE(handshake_spans, 1);
}

// -------------------------------------------------------- attribution

TEST(TraceSummary, CategoriesPlusIdleSumToTotalExactly) {
  mpi::WorldConfig config = two_rank_config();
  const auto rec = attach_recorder(config);
  mpi::run_world(config,
                 [](mpi::Comm& c) { pingpong_body(c, 16 * 1024, 4); });

  const trace::Summary summary = trace::Summary::from(*rec);
  ASSERT_EQ(summary.rows.size(), 2u);
  for (const trace::SummaryRow& row : summary.rows) {
    EXPECT_GT(row.total, 0.0);
    double covered = row.idle;
    for (const double s : row.seconds) covered += s;
    EXPECT_DOUBLE_EQ(covered, row.total);  // exact by construction
    // The p2p instrumentation is gapless: idle is numerically zero.
    EXPECT_NEAR(row.idle, 0.0, 1e-9) << "rank " << row.rank;
  }
}

TEST(TraceSummary, SecureAnalyticPingpongHasNoIdleAndCryptoTime) {
  for (const std::size_t size :
       {std::size_t{16 * 1024}, std::size_t{256 * 1024}}) {
    mpi::WorldConfig config = two_rank_config();
    const auto rec = attach_recorder(config);
    mpi::run_world(
        config, [&](mpi::Comm& c) { secure_pingpong_body(c, size, 3); });

    const trace::Summary summary = trace::Summary::from(*rec);
    for (const trace::SummaryRow& row : summary.rows) {
      EXPECT_NEAR(row.idle, 0.0, 1e-9)
          << "size " << size << " rank " << row.rank;
      EXPECT_GT(row.crypto_pct(), 0.0);
      EXPECT_GT(row.wire_pct(), 0.0);
    }
  }
}

TEST(TraceSummary, AggregateSumsRanks) {
  trace::TraceRecorder rec(trace::Config{}, 2);
  rec.begin_run(0.0);
  rec.record(0, trace::Category::kWire, 0.0, 1.0);
  rec.record(1, trace::Category::kCryptoEncrypt, 0.0, 3.0);
  rec.note_rank_done(0, 2.0);
  rec.note_rank_done(1, 4.0);
  const trace::Summary summary = trace::Summary::from(rec);
  const trace::SummaryRow agg = summary.aggregate();
  EXPECT_DOUBLE_EQ(agg.total, 6.0);
  EXPECT_DOUBLE_EQ(
      agg.seconds[static_cast<std::size_t>(trace::Category::kWire)], 1.0);
  EXPECT_DOUBLE_EQ(agg.idle, 2.0);
  EXPECT_DOUBLE_EQ(agg.crypto_pct(), 50.0);
}

// ------------------------------------------------- charge attribution

TEST(TraceCharge, ProcessChargeIsRecordedAsCompute) {
  mpi::WorldConfig config = two_rank_config();
  const auto rec = attach_recorder(config);
  mpi::run_world(config, [](mpi::Comm& c) {
    volatile double sink = 0.0;
    c.charge([&] {
      for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
    });
  });
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_GT(seconds_of(*rec, rank, trace::Category::kCompute), 0.0);
  }
}

TEST(TraceCharge, WallClockCryptoIsRetaggedNotCompute) {
  mpi::WorldConfig config = two_rank_config();
  const auto rec = attach_recorder(config);
  mpi::run_world(config, [](mpi::Comm& plain) {
    secure::SecureConfig scfg;  // wall-clock charging, no cost model
    scfg.provider = "boringssl-sim";
    secure::SecureComm comm(plain, scfg);
    Bytes payload(4096, 0x5a);
    Bytes buf(4096);
    if (plain.rank() == 0) {
      comm.send(payload, 1, 1);
      comm.recv(buf, 1, 2);
    } else {
      comm.recv(buf, 0, 1);
      comm.send(payload, 0, 2);
    }
  });
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_GT(seconds_of(*rec, rank, trace::Category::kCryptoEncrypt), 0.0);
    EXPECT_GT(seconds_of(*rec, rank, trace::Category::kCryptoDecrypt), 0.0);
    EXPECT_DOUBLE_EQ(seconds_of(*rec, rank, trace::Category::kCompute), 0.0);
  }
}

TEST(TraceCharge, AnalyticCostModelRecordsExactCryptoSeconds) {
  mpi::WorldConfig config = two_rank_config();
  const auto rec = attach_recorder(config);
  const std::size_t size = 4096;
  mpi::run_world(config,
                 [&](mpi::Comm& c) { secure_pingpong_body(c, size, 1); });
  const secure::CryptoCostModel m = *analytic_secure_config().cost_model;
  const double expected_seal =
      m.seal_per_op + static_cast<double>(size) * m.seal_per_byte;
  for (int rank = 0; rank < 2; ++rank) {
    // One seal and one open per rank per iteration.
    EXPECT_NEAR(seconds_of(*rec, rank, trace::Category::kCryptoEncrypt),
                expected_seal, 1e-12);
    EXPECT_NEAR(seconds_of(*rec, rank, trace::Category::kCryptoDecrypt),
                expected_seal, 1e-12);
  }
}

// ----------------------------------------------- faults + reliability

TEST(TraceArq, RetransmissionTimeIsAttributed) {
  mpi::WorldConfig config = two_rank_config();
  config.cluster.faults.seed = 7;
  config.cluster.faults.triggers.push_back(
      {.src = 0, .dst = 1, .nth = 0, .kind = net::FaultKind::kDrop});
  config.reliability.enabled = true;
  const auto rec = attach_recorder(config);
  mpi::run_world(config,
                 [](mpi::Comm& c) { pingpong_body(c, 1024, 2); });
  // The dropped first eager frame forces an ARQ dialogue whose cost
  // lands on the receiving rank's timeline.
  EXPECT_GT(seconds_of(*rec, 1, trace::Category::kArqRetransmit), 0.0);
}

// ------------------------------------------------------- export format

std::pair<std::string, std::string> export_run(std::uint64_t fault_seed) {
  mpi::WorldConfig config = two_rank_config();
  config.cluster.faults.seed = fault_seed;
  config.cluster.faults.p_drop = 0.05;
  config.cluster.faults.p_delay = 0.05;
  config.reliability.enabled = true;
  const auto rec = attach_recorder(config);
  mpi::run_world(config, [](mpi::Comm& c) {
    pingpong_body(c, 16 * 1024, 3);
    pingpong_body(c, 256 * 1024, 1);
  });
  std::ostringstream json;
  trace::ChromeTraceWriter writer(json);
  writer.add_world(*rec, "determinism", 0);
  writer.finish();
  std::ostringstream csv;
  trace::write_attribution_csv(csv, trace::Summary::from(*rec),
                               "determinism", /*header=*/true);
  return {json.str(), csv.str()};
}

TEST(TraceExport, SameSeedRunsAreByteIdentical) {
  const auto [json_a, csv_a] = export_run(42);
  const auto [json_b, csv_b] = export_run(42);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(csv_a, csv_b);
  // And a different fault schedule produces a different trace.
  const auto [json_c, csv_c] = export_run(43);
  EXPECT_NE(json_a, json_c);
}

TEST(TraceExport, ChromeJsonHasExpectedShape) {
  const auto [json, csv] = export_run(1);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"sync_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"wire\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  // CSV: header + 2 rank rows + aggregate.
  EXPECT_NE(csv.find("config,rank,total_s"), std::string::npos);
  EXPECT_NE(csv.find("determinism,all,"), std::string::npos);
}

}  // namespace
