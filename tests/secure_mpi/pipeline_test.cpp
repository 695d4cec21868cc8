// The chunked encrypt->send pipeline (docs/PIPELINE.md): engagement
// threshold edges, exact-multiple and remainder chunking, ARQ
// interplay (dropped chunk, tampered chunk with and without e2e
// recovery, a one-bit fault in every header field), duplicate and
// replay classification per chunk, the
// nonce-exhaustion guard charged per chunk, rekey stream restarts,
// wildcard matching, the non-blocking paths, helper-core overlap
// attribution, and bit-exact replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "emc/secure_mpi/secure_comm.hpp"
#include "emc/trace/trace.hpp"

namespace emc::secure {
namespace {

using mpi::Comm;
using mpi::Status;
using mpi::World;
using mpi::WorldConfig;

WorldConfig world_of(int nodes, int rpn = 1) {
  WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = rpn;
  config.cluster.inter = net::ethernet_10g();
  return config;
}

net::FaultPlan nth_fault(net::FaultKind kind, std::uint64_t nth) {
  net::FaultPlan plan;
  plan.triggers.push_back({.src = 0, .dst = 1, .nth = nth, .kind = kind});
  return plan;
}

/// Functional-mode pipeline config: tiny chunks so a few KiB spans
/// several, no virtual-time billing (the zero cost model).
SecureConfig piped(std::size_t chunk = 1024, int cores = 2) {
  SecureConfig config;
  config.cost_model = CryptoCostModel{};
  config.nonce_mode = NonceMode::kCounter;
  config.pipeline.enabled = true;
  config.pipeline.chunk_bytes = chunk;
  config.pipeline.min_bytes = chunk;
  config.pipeline.helper_cores = cores;
  return config;
}

/// Timing-mode pipeline config: analytic crypto (deterministic), so
/// helper cores have a cost to hide behind the wire.
SecureConfig piped_timed(std::size_t chunk, int cores) {
  SecureConfig config = piped(chunk, cores);
  config.cost_model = CryptoCostModel{
      .seal_per_op = 0.3e-6,
      .seal_per_byte = 1.0 / (2.0 * 1381e6),
      .open_per_op = 0.3e-6,
      .open_per_byte = 1.0 / (2.0 * 1381e6),
  };
  return config;
}

Bytes patterned(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return data;
}

// ------------------------------------------------------- configuration

TEST(PipelineConfig, ConstructorValidatesKnobs) {
  mpi::run_world(world_of(1), [](Comm& comm) {
    {
      SecureConfig bad = piped();
      bad.pipeline.chunk_bytes = 0;
      EXPECT_THROW(SecureComm(comm, bad), std::invalid_argument);
    }
    if constexpr (sizeof(std::size_t) > 4) {
      SecureConfig bad = piped();
      bad.pipeline.chunk_bytes = std::size_t{1} << 32;  // > u32 header field
      EXPECT_THROW(SecureComm(comm, bad), std::invalid_argument);
    }
    {
      SecureConfig bad = piped();
      bad.pipeline.helper_cores = -1;
      EXPECT_THROW(SecureComm(comm, bad), std::invalid_argument);
    }
    {
      // Wall-clock billing cannot reach helper cores: the pipeline
      // demands an analytic cost model.
      SecureConfig bad = piped();
      bad.cost_model.reset();
      EXPECT_THROW(SecureComm(comm, bad), std::invalid_argument);
    }
    EXPECT_NO_THROW(SecureComm(comm, piped()));
    EXPECT_NO_THROW(SecureComm(comm, piped_timed(1024, 2)));
  });
}

// ------------------------------------------------- engagement threshold

TEST(PipelineThreshold, SubChunkMessageStaysUnchunked) {
  // A message that fits one chunk gains nothing from chunk framing:
  // both a small payload and one of exactly chunk_bytes must ride the
  // ordinary sealed path.
  run_secure_world(world_of(2), piped(), [](SecureComm& comm) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{1024}}) {
      const Bytes msg = patterned(n);
      if (comm.rank() == 0) {
        comm.send(msg, 1, 7);
      } else {
        Bytes buf(n);
        const Status st = comm.recv(buf, 0, 7);
        EXPECT_EQ(st.bytes, n);
        EXPECT_EQ(buf, msg);
      }
    }
    EXPECT_EQ(comm.counters().messages_pipelined, 0u);
    EXPECT_EQ(comm.counters().chunks_sealed, 0u);
    EXPECT_EQ(comm.counters().chunks_opened, 0u);
  });
}

TEST(PipelineThreshold, OneByteOverChunkSizeEngagesWithTwoChunks) {
  run_secure_world(world_of(2), piped(), [](SecureComm& comm) {
    const Bytes msg = patterned(1025);
    if (comm.rank() == 0) {
      comm.send(msg, 1, 7);
      EXPECT_EQ(comm.counters().messages_pipelined, 1u);
      EXPECT_EQ(comm.counters().chunks_sealed, 2u);
    } else {
      Bytes buf(msg.size());
      const Status st = comm.recv(buf, 0, 7);
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
      EXPECT_EQ(comm.counters().chunks_opened, 2u);
    }
  });
}

TEST(PipelineThreshold, MinBytesHoldsThePipelineBack) {
  // min_bytes above the payload: even a multi-chunk-sized message
  // stays unchunked.
  SecureConfig config = piped();
  config.pipeline.min_bytes = 1 << 20;
  run_secure_world(world_of(2), config, [](SecureComm& comm) {
    const Bytes msg = patterned(8 * 1024);
    if (comm.rank() == 0) {
      comm.send(msg, 1, 7);
    } else {
      Bytes buf(msg.size());
      (void)comm.recv(buf, 0, 7);
      EXPECT_EQ(buf, msg);
    }
    EXPECT_EQ(comm.counters().messages_pipelined, 0u);
  });
}

// ------------------------------------------------------------ chunking

TEST(PipelineChunking, ExactMultipleOfChunkSizeTilesPerfectly) {
  // Exactly N chunks: the last chunk is full-sized, offsets tile the
  // message with no remainder.
  run_secure_world(world_of(2), piped(), [](SecureComm& comm) {
    const Bytes msg = patterned(4 * 1024);
    if (comm.rank() == 0) {
      comm.send(msg, 1, 3);
      EXPECT_EQ(comm.counters().chunks_sealed, 4u);
      EXPECT_EQ(comm.counters().messages_sealed, 4u);  // chunks count here too
      EXPECT_EQ(comm.counters().bytes_sealed, msg.size());
    } else {
      Bytes buf(msg.size());
      const Status st = comm.recv(buf, 0, 3);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
      EXPECT_EQ(comm.counters().chunks_opened, 4u);
      EXPECT_EQ(comm.counters().bytes_opened, msg.size());
    }
  });
}

TEST(PipelineChunking, RemainderTailChunkCarriesTheOddBytes) {
  run_secure_world(world_of(2), piped(), [](SecureComm& comm) {
    const Bytes msg = patterned(2 * 1024 + 513);  // 2 full chunks + tail
    if (comm.rank() == 0) {
      comm.send(msg, 1, 3);
      EXPECT_EQ(comm.counters().chunks_sealed, 3u);
    } else {
      Bytes buf(msg.size());
      const Status st = comm.recv(buf, 0, 3);
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
    }
  });
}

TEST(PipelineChunking, WildcardSourceAndTagMatchPipelinedMessages) {
  // The first chunk's actual (source, tag) steer the remaining-frame
  // receives, so wildcards see a pipelined message as one message.
  run_secure_world(world_of(3), piped(), [](SecureComm& comm) {
    const std::size_t n = 3 * 1024;
    if (comm.rank() == 0) {
      Bytes buf(n);
      for (int i = 0; i < 2; ++i) {
        const Status st = comm.recv(buf, mpi::kAnySource, mpi::kAnyTag);
        EXPECT_EQ(st.bytes, n);
        EXPECT_EQ(st.tag, st.source);  // each sender tags with its rank
        EXPECT_EQ(buf, Bytes(n, static_cast<std::uint8_t>(st.source)));
      }
      EXPECT_EQ(comm.counters().chunks_opened, 6u);
    } else {
      comm.send(Bytes(n, static_cast<std::uint8_t>(comm.rank())), 0,
                comm.rank());
    }
  });
}

TEST(PipelineChunking, NonBlockingAndSendrecvRideThePipeline) {
  run_secure_world(world_of(2), piped(), [](SecureComm& comm) {
    const Bytes msg = patterned(5 * 1024);
    const int peer = 1 - comm.rank();
    {
      // isend/irecv: the pipelined send request is born complete.
      Bytes buf(msg.size());
      mpi::Request rr = comm.irecv(buf, peer, 1);
      mpi::Request rs = comm.isend(msg, peer, 1);
      const Status sent = comm.wait(rs);
      EXPECT_EQ(sent.bytes, msg.size());
      const Status got = comm.wait(rr);
      EXPECT_EQ(got.bytes, msg.size());
      EXPECT_EQ(buf, msg);
    }
    {
      Bytes buf(msg.size());
      const Status st = comm.sendrecv(msg, peer, 2, buf, peer, 2);
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
    }
    EXPECT_EQ(comm.counters().messages_pipelined, 2u);
  });
}

// ------------------------------------------------------- fault handling

TEST(PipelineFaults, DroppedChunkIsRetransmittedByArq) {
  WorldConfig config = world_of(2);
  config.cluster.faults = nth_fault(net::FaultKind::kDrop, 1);  // chunk 1
  config.reliability.enabled = true;
  World world(config);
  world.run([](Comm& plain) {
    SecureComm comm(plain, piped());
    const Bytes msg = patterned(3 * 1024);
    if (plain.rank() == 0) {
      comm.send(msg, 1, 5);
    } else {
      Bytes buf(msg.size());
      Status st{};
      EXPECT_NO_THROW(st = comm.recv(buf, 0, 5));
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
      EXPECT_EQ(comm.counters().faults_detected(), 0u);
    }
  });
  EXPECT_GE(world.reliability()->stats().retransmits, 1u);
}

TEST(PipelineFaults, TamperedChunkRecoversViaEndToEndNack) {
  // A corrupted chunk fails authentication; the e2e NACK retransmits
  // that single chunk — the other chunks are never resent and the
  // application sees no error.
  WorldConfig config = world_of(2);
  config.cluster.faults = nth_fault(net::FaultKind::kCorrupt, 1);
  config.reliability.enabled = true;
  World world(config);
  world.run([](Comm& plain) {
    SecureComm comm(plain, piped());
    const Bytes msg = patterned(4 * 1024);
    if (plain.rank() == 0) {
      comm.send(msg, 1, 5);
    } else {
      Bytes buf(msg.size());
      Status st{};
      EXPECT_NO_THROW(st = comm.recv(buf, 0, 5));
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
      EXPECT_EQ(comm.counters().nacks_sent, 1u);
      EXPECT_EQ(comm.counters().retransmits_recovered, 1u);
      EXPECT_EQ(comm.counters().auth_failures, 0u);
      EXPECT_EQ(comm.counters().chunks_opened, 4u);
    }
  });
  EXPECT_EQ(world.reliability()->stats().damaged_deliveries, 1u);
  EXPECT_GE(world.reliability()->stats().e2e_nacks, 1u);
}

TEST(PipelineFaults, TamperedChunkWithoutArqRejectsWholeMessage) {
  // No reliability layer: the damaged chunk cannot be recovered, so
  // the receive fails closed — IntegrityError, with every already
  // accepted chunk wiped (nothing partially verified leaks).
  WorldConfig config = world_of(2);
  config.cluster.faults = nth_fault(net::FaultKind::kCorrupt, 1);
  mpi::run_world(config, [](Comm& plain) {
    SecureComm comm(plain, piped());
    const Bytes msg = patterned(4 * 1024);
    if (plain.rank() == 0) {
      comm.send(msg, 1, 5);
    } else {
      Bytes buf(msg.size(), 0xAA);
      EXPECT_THROW((void)comm.recv(buf, 0, 5), IntegrityError);
      EXPECT_GE(comm.counters().faults_detected(), 1u);
      EXPECT_EQ(buf, Bytes(msg.size(), 0x00)) << "partial plaintext leaked";
    }
  });
}

TEST(PipelineFaults, DuplicatedChunkAbsorbedAsBenignAnomaly) {
  // The fabric duplicates chunk 0. The extra copy is absorbed without
  // crypto (first duplicate of an accepted index), nothing lands in
  // the attack counters, and the channel keeps working.
  WorldConfig config = world_of(2);
  config.cluster.faults = nth_fault(net::FaultKind::kDuplicate, 0);
  mpi::run_world(config, [](Comm& plain) {
    SecureComm comm(plain, piped());
    const Bytes msg = patterned(3 * 1024);
    if (plain.rank() == 0) {
      comm.send(msg, 1, 5);
      comm.send(bytes_of("still alive"), 1, 6);
    } else {
      Bytes buf(msg.size());
      const Status st = comm.recv(buf, 0, 5);
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
      EXPECT_EQ(comm.counters().duplicates_suppressed, 1u);
      EXPECT_EQ(comm.counters().replays_rejected, 0u);
      EXPECT_EQ(comm.counters().faults_detected(), 0u);
      Bytes next(11);
      (void)comm.recv(next, 0, 6);
      EXPECT_EQ(std::string(next.begin(), next.end()), "still alive");
    }
  });
}

TEST(PipelineFaults, DuplicatedLastChunkStragglerAbsorbedUnderBinding) {
  // The fabric duplicates the last chunk, so the extra copy is the
  // first frame the NEXT receive sees. With context binding it cannot
  // authenticate under the channel's new sequence numbers; the
  // receiver must still recognise it (by the GCM tag of the chunk it
  // accepted) and absorb it as a benign duplicate.
  WorldConfig config = world_of(2);
  config.cluster.faults = nth_fault(net::FaultKind::kDuplicate, 2);
  SecureConfig secure = piped();
  secure.bind_context = true;
  mpi::run_world(config, [&](Comm& plain) {
    SecureComm comm(plain, secure);
    const Bytes msg = patterned(3 * 1024);
    if (plain.rank() == 0) {
      comm.send(msg, 1, 5);
      comm.send(msg, 1, 5);
    } else {
      for (int i = 0; i < 2; ++i) {
        Bytes buf(msg.size());
        EXPECT_EQ(comm.recv(buf, 0, 5).bytes, msg.size());
        EXPECT_EQ(buf, msg);
      }
      EXPECT_EQ(comm.counters().duplicates_suppressed, 1u);
      EXPECT_EQ(comm.counters().faults_detected(), 0u);
    }
  });
}

/// Which part of a chunk frame byte @p pos belongs to: 0 magic,
/// 1 index, 2 count, 3 chunk_len, 4 msg_id, 5 offset, 6 AEAD frame.
int frame_region(std::size_t pos) {
  if (pos >= kPipeHeaderBytes) return 6;
  if (pos < 16) return static_cast<int>(pos / 4);
  return pos < 24 ? 4 : 5;
}

TEST(PipelineFaults, LineFaultInAnyChunkFieldIsRecoveredOrFailsClosed) {
  // One bit flipped anywhere in one chunk frame — the magic word, any
  // header field, or the AEAD frame — must never steer the receiver
  // before the chunk authenticates: with ARQ the end-to-end NACK
  // recovers the message intact, without it the receive fails closed
  // with IntegrityError (never a timeout or a wrong plaintext).
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kFrame = kPipeHeaderBytes + SecureComm::wire_size(kChunk);
  const Bytes msg = patterned(4 * kChunk);
  std::set<int> regions_hit;
  std::vector<std::string> failures;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    for (std::uint64_t nth = 0; nth < 4; ++nth) {
      net::FaultPlan plan = nth_fault(net::FaultKind::kCorrupt, nth);
      plan.seed = seed;
      // Replay the injector's draws on the 0->1 link to see which byte
      // of the frame the fault damages.
      net::FaultInjector probe(plan);
      net::FaultDecision d;
      for (std::uint64_t k = 0; k <= nth; ++k) d = probe.next(0, 1, kFrame);
      regions_hit.insert(frame_region(d.position));
      for (const bool arq : {true, false}) {
        WorldConfig config = world_of(2);
        config.cluster.faults = plan;
        config.reliability.enabled = arq;
        config.recv_timeout = 1.0;  // a hang surfaces as an MpiError
        std::string outcome;
        mpi::run_world(config, [&](Comm& plain) {
          SecureComm comm(plain, piped(kChunk));
          if (plain.rank() == 0) {
            comm.send(msg, 1, 5);
            return;
          }
          Bytes buf(msg.size());
          try {
            (void)comm.recv(buf, 0, 5);
            outcome = buf != msg ? "wrong plaintext"
                      : comm.counters().nacks_sent != 1
                          ? "nacks " + std::to_string(comm.counters().nacks_sent)
                          : "intact";
          } catch (const IntegrityError&) {
            outcome = "IntegrityError";
          } catch (const std::exception& e) {
            outcome = e.what();
          }
        });
        const char* want = arq ? "intact" : "IntegrityError";
        if (outcome != want) {
          failures.push_back("seed " + std::to_string(seed) + " nth " +
                             std::to_string(nth) + " byte " +
                             std::to_string(d.position) +
                             (arq ? " arq: " : " no-arq: ") + outcome);
        }
      }
    }
  }
  EXPECT_EQ(regions_hit.size(), 7u) << "the sweep must damage every field";
  EXPECT_TRUE(failures.empty()) << failures.size() << " cases, first: "
                                << (failures.empty() ? "" : failures.front());
}

// --------------------------------------------------- nonce-stream rules

TEST(PipelineNonces, RekeyThresholdCrossedMidMessageFailsClosed) {
  // The exhaustion guard is charged per chunk: a message whose chunk
  // count crosses the threshold fails closed mid-loop rather than
  // extending the nonce stream past the budget.
  SecureConfig config = piped();
  config.nonce_rekey_threshold = 2;
  run_secure_world(world_of(1), config, [](SecureComm& comm) {
    EXPECT_THROW(comm.send(patterned(4 * 1024), 0, 1), NonceExhaustedError);
    EXPECT_EQ(comm.counters().chunks_sealed, 2u);  // budget spent, then closed
  });
}

TEST(PipelineNonces, RekeyRestartsThePipelinedStreams) {
  // rekey() restarts every key-scoped stream, including the pipelined
  // message ids: the first post-rekey message is id 0 again, and the
  // receiver (whose duplicate tracking also reset) accepts it instead
  // of absorbing it as stale.
  run_secure_world(world_of(2), piped(), [](SecureComm& comm) {
    const Bytes fresh_key(32, 0x42);
    const Bytes msg = patterned(3 * 1024);
    Bytes buf(msg.size());
    if (comm.rank() == 0) {
      comm.send(msg, 1, 1);
      comm.rekey(fresh_key);
      comm.send(msg, 1, 2);
    } else {
      (void)comm.recv(buf, 0, 1);
      comm.rekey(fresh_key);
      const Status st = comm.recv(buf, 0, 2);
      EXPECT_EQ(st.bytes, msg.size());
      EXPECT_EQ(buf, msg);
      EXPECT_EQ(comm.counters().chunks_opened, 6u);
      EXPECT_EQ(comm.counters().duplicates_suppressed, 0u);
    }
    EXPECT_EQ(comm.counters().rekeys, 1u);
  });
}

TEST(PipelineNonces, ContextBindingSpansChunkedAndUnchunkedTraffic) {
  // With bind_context the per-chunk sequence numbers are consecutive
  // draws from the same channel stream as unchunked messages: strict
  // in-order authentication (window 0) must hold across a mixed
  // unchunked -> chunked -> unchunked conversation.
  SecureConfig config = piped();
  config.bind_context = true;
  run_secure_world(world_of(2), config, [](SecureComm& comm) {
    const Bytes big = patterned(3 * 1024);
    if (comm.rank() == 0) {
      comm.send(bytes_of("before"), 1, 1);
      comm.send(big, 1, 1);
      comm.send(bytes_of("after"), 1, 1);
    } else {
      Bytes small(6);
      Bytes buf(big.size());
      (void)comm.recv(small, 0, 1);
      EXPECT_EQ(std::string(small.begin(), small.end()), "before");
      (void)comm.recv(buf, 0, 1);
      EXPECT_EQ(buf, big);
      Status st = comm.recv(small, 0, 1);
      EXPECT_EQ(st.bytes, 5u);
      EXPECT_EQ(std::string(small.begin(), small.begin() + 5), "after");
      EXPECT_EQ(comm.counters().faults_detected(), 0u);
    }
  });
}

// ------------------------------------------------------ time & overlap

TEST(PipelineTiming, HelperCoresHideCryptoBehindTheWire) {
  // The CryptMPI effect, observed through the trace layer: with two
  // helper cores the per-chunk crypto runs on the concurrent helper
  // lane (crypto_helper spans) and mostly overlaps the wire — the
  // main timeline stalls for less than the helper-core busy time.
  WorldConfig config = world_of(2);
  auto rec = std::make_shared<trace::TraceRecorder>(trace::Config{},
                                                    /*num_ranks=*/2);
  config.trace = rec;
  const std::size_t n = 1 << 20;
  double piped_make = 0.0;
  mpi::run_world(config, [&](Comm& plain) {
    SecureComm comm(plain, piped_timed(64 * 1024, 2));
    if (plain.rank() == 0) {
      comm.send(patterned(n), 1, 1);
    } else {
      Bytes buf(n);
      (void)comm.recv(buf, 0, 1);
      const CryptoCounters& c = comm.counters();
      EXPECT_GT(c.helper_open_seconds, 0.0);
      EXPECT_LT(c.pipeline_stall_seconds, c.helper_open_seconds)
          << "no overlap: every helper second stalled the timeline";
    }
    piped_make = plain.now();
  });
  for (int rank = 0; rank < 2; ++rank) {
    const auto& secs = rec->category_seconds(rank);
    const double helper =
        secs[static_cast<std::size_t>(trace::Category::kCryptoHelper)];
    const double stall =
        secs[static_cast<std::size_t>(trace::Category::kPipelineStall)];
    EXPECT_GT(helper, 0.0) << "rank " << rank;
    EXPECT_LT(stall, helper) << "rank " << rank;
  }

  // And the headline: the pipelined makespan beats the serial secure
  // path (same crypto model, pipeline off) on the same network.
  const double serial_make = mpi::run_world(world_of(2), [&](Comm& plain) {
    SecureConfig serial = piped_timed(64 * 1024, 2);
    serial.pipeline.enabled = false;
    SecureComm comm(plain, serial);
    if (plain.rank() == 0) {
      comm.send(patterned(n), 1, 1);
    } else {
      Bytes buf(n);
      (void)comm.recv(buf, 0, 1);
    }
  });
  EXPECT_LT(piped_make, serial_make);
}

TEST(PipelineTiming, ZeroHelperCoresIsTheSerialChunkedBaseline) {
  // helper_cores == 0 keeps the chunk framing but bills crypto
  // serially on the rank: a valid baseline (it must still round-trip)
  // that cannot be faster than the two-core pipeline.
  const std::size_t n = 1 << 20;
  auto makespan_with_cores = [&](int cores) {
    return run_secure_world(
        world_of(2), piped_timed(64 * 1024, cores), [&](SecureComm& comm) {
          if (comm.rank() == 0) {
            comm.send(patterned(n), 1, 1);
          } else {
            Bytes buf(n);
            (void)comm.recv(buf, 0, 1);
            EXPECT_EQ(buf, patterned(n));
            EXPECT_EQ(comm.counters().helper_open_seconds > 0.0, cores > 0);
          }
        });
  };
  const double serial_chunked = makespan_with_cores(0);
  const double pipelined = makespan_with_cores(2);
  EXPECT_LE(pipelined, serial_chunked);
}

TEST(PipelineTiming, SameSeedReplaysBitExact) {
  // Helper-core scheduling is a pure function of the simulated
  // timeline: two runs of the same pipelined campaign produce the
  // exact same makespan and the exact same analytic helper billing.
  const std::size_t n = 768 * 1024;
  struct Outcome {
    double makespan = 0.0;
    double helper_seal = 0.0;
    double helper_open = 0.0;
    double stall = 0.0;
    std::uint64_t chunks = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = [&] {
    Outcome out;
    out.makespan = run_secure_world(
        world_of(2), piped_timed(64 * 1024, 3), [&](SecureComm& comm) {
          const int peer = 1 - comm.rank();
          Bytes buf(n);
          for (int i = 0; i < 3; ++i) {
            if (comm.rank() == 0) {
              comm.send(patterned(n), peer, i);
              (void)comm.recv(buf, peer, i + 100);
            } else {
              (void)comm.recv(buf, peer, i);
              comm.send(patterned(n), peer, i + 100);
            }
          }
          if (comm.rank() == 1) {
            out.helper_seal = comm.counters().helper_seal_seconds;
            out.helper_open = comm.counters().helper_open_seconds;
            out.stall = comm.counters().pipeline_stall_seconds;
            out.chunks = comm.counters().chunks_opened;
          }
        });
    return out;
  };
  const Outcome first = run_once();
  const Outcome second = run_once();
  EXPECT_GT(first.chunks, 0u);
  EXPECT_TRUE(first == second) << "pipelined timeline is not deterministic";
}

}  // namespace
}  // namespace emc::secure
