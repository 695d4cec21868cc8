// Adversarial wire conditions against the secure layer: truncation,
// bit-flips, duplication/replay, cross-stream splicing, and drops.
// Every case must surface as IntegrityError (or a timeout MpiError
// for drops) — never undefined behaviour, silent corruption, or a
// deadlocked simulation. The faults come either from an attacker
// playing the plain protocol or from the fabric's FaultPlan.
#include <gtest/gtest.h>

#include <vector>

#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::secure {
namespace {

using mpi::Comm;
using mpi::Status;
using mpi::World;
using mpi::WorldConfig;

WorldConfig world_of(int nodes, int rpn) {
  WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = rpn;
  config.cluster.inter = net::ethernet_10g();
  return config;
}

SecureConfig plain_crypto() {
  SecureConfig config;
  config.cost_model = CryptoCostModel{};
  return config;
}

TEST(AdversarialWire, TruncatedBelowOverheadRejectedOnRecvAndWait) {
  // Wire images shorter than nonce+tag (28 bytes) used to underflow
  // `bytes - kWireOverhead`; now they fail the length check before
  // any size arithmetic, through both recv and irecv/wait.
  mpi::run_world(world_of(2, 1), [](Comm& comm) {
    SecureComm secure(comm, plain_crypto());
    if (comm.rank() == 0) {
      comm.send(Bytes(27, 0x00), 1, 7);  // one byte short of the framing
      comm.send(Bytes(5, 0x00), 1, 7);   // grossly short
      comm.send(Bytes{}, 1, 7);          // empty wire
    } else {
      Bytes buf(64);
      EXPECT_THROW((void)secure.recv(buf, 0, 7), IntegrityError);
      mpi::Request r = secure.irecv(buf, 0, 7);
      EXPECT_THROW((void)secure.wait(r), IntegrityError);
      EXPECT_THROW((void)secure.recv(buf, 0, 7), IntegrityError);
      EXPECT_EQ(secure.counters().length_failures, 3u);
      EXPECT_EQ(secure.counters().faults_detected(), 3u);
    }
  });
}

TEST(AdversarialWire, TruncatedBcastRejected) {
  EXPECT_THROW(
      mpi::run_world(world_of(2, 1),
                     [](Comm& comm) {
                       SecureComm secure(comm, plain_crypto());
                       if (comm.rank() == 0) {
                         // Attacker root: broadcast 10 bytes where a
                         // 92-byte sealed message belongs.
                         Bytes bogus(10, 0xEE);
                         comm.bcast(bogus, 0);
                       } else {
                         Bytes data(64);
                         secure.bcast(data, 0);  // must throw
                       }
                     }),
      IntegrityError);
}

TEST(AdversarialWire, TruncatedScatterRejected) {
  EXPECT_THROW(
      mpi::run_world(world_of(2, 1),
                     [](Comm& comm) {
                       SecureComm secure(comm, plain_crypto());
                       if (comm.rank() == 0) {
                         Bytes all(20, 0xEE);  // 10-byte blocks, not 92
                         Bytes part(10);
                         comm.scatter(all, part, 0);
                       } else {
                         Bytes part(64);
                         secure.scatter({}, part, 0);  // must throw
                       }
                     }),
      IntegrityError);
}

TEST(AdversarialWire, TruncatedGatherRejected) {
  EXPECT_THROW(
      mpi::run_world(world_of(2, 1),
                     [](Comm& comm) {
                       SecureComm secure(comm, plain_crypto());
                       if (comm.rank() == 0) {
                         Bytes recvall(128);
                         secure.gather(Bytes(64, 0x01), recvall, 0);
                       } else {
                         comm.gather(Bytes(10, 0xEE), {}, 0);
                       }
                     }),
      IntegrityError);
}

TEST(AdversarialWire, GarbageAlltoallBlockRejected) {
  // The symmetric collectives force the attacker to supply full-size
  // wire blocks; unauthenticated garbage must still be rejected.
  EXPECT_THROW(
      mpi::run_world(
          world_of(2, 1),
          [](Comm& comm) {
            SecureComm secure(comm, plain_crypto());
            const std::size_t block = 64;
            const std::size_t wire_block = SecureComm::wire_size(block);
            if (comm.rank() == 0) {
              Bytes garbage(wire_block * 2, 0xEE);
              Bytes sink(wire_block * 2);
              comm.alltoall(garbage, sink, wire_block);
            } else {
              Bytes sendbuf(block * 2, 0x01);
              Bytes recvbuf(block * 2);
              secure.alltoall(sendbuf, recvbuf, block);  // must throw
            }
          }),
      IntegrityError);
}

TEST(AdversarialWire, GarbageAlltoallvBlockRejected) {
  EXPECT_THROW(
      mpi::run_world(
          world_of(2, 1),
          [](Comm& comm) {
            SecureComm secure(comm, plain_crypto());
            if (comm.rank() == 0) {
              // Wire-level participant: 40 garbage bytes to rank 1
              // (it expects wire_size(12)), nothing to self, and room
              // for rank 1's wire_size(10) = 38-byte sealed block.
              const std::vector<std::size_t> sendcounts{0, 40};
              const std::vector<std::size_t> senddispls{0, 0};
              const std::vector<std::size_t> recvcounts{0, 38};
              const std::vector<std::size_t> recvdispls{0, 0};
              Bytes sendbuf(40, 0xEE);
              Bytes recvbuf(38);
              comm.alltoallv(sendbuf, sendcounts, senddispls, recvbuf,
                             recvcounts, recvdispls);
            } else {
              const std::vector<std::size_t> sendcounts{10, 20};
              const std::vector<std::size_t> senddispls{0, 10};
              const std::vector<std::size_t> recvcounts{12, 20};
              const std::vector<std::size_t> recvdispls{0, 12};
              Bytes sendbuf(30, 0x01);
              Bytes recvbuf(32);
              secure.alltoallv(sendbuf, sendcounts, senddispls, recvbuf,
                               recvcounts, recvdispls);  // must throw
            }
          }),
      IntegrityError);
}

TEST(AdversarialWire, FabricBitFlipDetectedThenChannelRecovers) {
  WorldConfig config = world_of(2, 1);
  config.cluster.faults.triggers.push_back(
      {.src = 0, .dst = 1, .nth = 0, .kind = net::FaultKind::kCorrupt});
  mpi::run_world(config, [](Comm& comm) {
    SecureComm secure(comm, plain_crypto());
    if (comm.rank() == 0) {
      secure.send(bytes_of("first: damaged"), 1, 2);
      secure.send(bytes_of("second: clean"), 1, 2);
    } else {
      Bytes buf(32);
      EXPECT_THROW((void)secure.recv(buf, 0, 2), IntegrityError);
      EXPECT_EQ(secure.counters().auth_failures, 1u);
      const Status st = secure.recv(buf, 0, 2);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes),
                "second: clean");
    }
  });
}

TEST(AdversarialWire, FabricDuplicateSuppressedNotRejected) {
  // The fabric duplicates the first sealed message. A duplicating
  // wire is a benign anomaly, not an attack: the extra copy
  // authenticates as an already-delivered sequence number exactly
  // once, is absorbed silently, and the receive delivers the next
  // real message. Nothing lands in the attack counters.
  WorldConfig config = world_of(2, 1);
  config.cluster.faults.triggers.push_back(
      {.src = 0, .dst = 1, .nth = 0, .kind = net::FaultKind::kDuplicate});
  SecureConfig secure_config = plain_crypto();
  secure_config.bind_context = true;
  secure_config.replay_window = 8;
  mpi::run_world(config, [&](Comm& comm) {
    SecureComm secure(comm, secure_config);
    if (comm.rank() == 0) {
      secure.send(bytes_of("original"), 1, 2);
      secure.send(bytes_of("fresh"), 1, 2);
    } else {
      Bytes buf(16);
      Status st = secure.recv(buf, 0, 2);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes),
                "original");
      // The duplicate sits between the two real messages; this recv
      // absorbs it and returns the fresh payload.
      st = secure.recv(buf, 0, 2);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes), "fresh");
      EXPECT_EQ(secure.counters().duplicates_suppressed, 1u);
      EXPECT_EQ(secure.counters().replays_rejected, 0u);
      EXPECT_EQ(secure.counters().auth_failures, 0u);
      EXPECT_EQ(secure.counters().faults_detected(), 0u);
    }
  });
}

TEST(AdversarialWire, RepeatedReplayOfSameSequenceRejected) {
  // A wire can duplicate a frame once; only an attacker re-injects
  // the same sequence number again and again. Three sender-side
  // channel instances all seal their first message as sequence 0 of
  // the same (src, dst, tag) channel: the first copy delivers, the
  // second is absorbed as a benign duplicate, the third is a replay
  // attack and must be rejected with the plaintext wiped.
  SecureConfig secure_config = plain_crypto();
  secure_config.bind_context = true;
  secure_config.replay_window = 8;
  mpi::run_world(world_of(2, 1), [&](Comm& comm) {
    if (comm.rank() == 0) {
      SecureComm first(comm, secure_config);
      SecureComm second(comm, secure_config);
      SecureComm third(comm, secure_config);
      first.send(bytes_of("legit"), 1, 2);
      second.send(bytes_of("rplay"), 1, 2);
      third.send(bytes_of("again"), 1, 2);
      first.send(bytes_of("after"), 1, 2);  // sequence 1: must resync
    } else {
      SecureComm secure(comm, secure_config);
      Bytes buf(16);
      Status st = secure.recv(buf, 0, 2);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes), "legit");
      // One recv call: absorbs the first repeat of sequence 0, then
      // hits the second repeat and classifies it as a replay.
      EXPECT_THROW((void)secure.recv(buf, 0, 2), IntegrityError);
      EXPECT_EQ(secure.counters().duplicates_suppressed, 1u);
      EXPECT_EQ(secure.counters().replays_rejected, 1u);
      EXPECT_EQ(buf, Bytes(16, 0x00)) << "replayed plaintext must be wiped";
      st = secure.recv(buf, 0, 2);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes), "after");
      EXPECT_EQ(secure.counters().auth_failures, 0u);
    }
  });
}

TEST(AdversarialWire, SplicedCiphertextFromAnotherChannelRejected) {
  // Rank 1 captures a perfectly valid sealed message addressed to it
  // and forwards the bytes verbatim to rank 2. Context binding makes
  // the AAD (src, dst, tag, seq) part of the tag, so the splice fails.
  SecureConfig secure_config = plain_crypto();
  secure_config.bind_context = true;
  mpi::run_world(world_of(3, 1), [&](Comm& comm) {
    SecureComm secure(comm, secure_config);
    const std::size_t wire = SecureComm::wire_size(8);
    if (comm.rank() == 0) {
      secure.send(Bytes(8, 0x42), 1, 5);
    } else if (comm.rank() == 1) {
      Bytes captured(wire);
      const Status st = comm.recv(captured, 0, 5);
      EXPECT_EQ(st.bytes, wire);
      comm.send(captured, 2, 5);  // man-in-the-middle re-route
    } else {
      Bytes buf(8);
      EXPECT_THROW((void)secure.recv(buf, 1, 5), IntegrityError);
      EXPECT_EQ(secure.counters().auth_failures, 1u);
    }
  });
}

TEST(AdversarialWire, DroppedSecureMessageTimesOutInsteadOfDeadlocking) {
  WorldConfig config = world_of(2, 1);
  config.recv_timeout = 0.5;
  config.cluster.faults.triggers.push_back(
      {.src = 0, .dst = 1, .nth = 0, .kind = net::FaultKind::kDrop});
  EXPECT_THROW(
      mpi::run_world(config,
                     [](Comm& comm) {
                       SecureComm secure(comm, plain_crypto());
                       if (comm.rank() == 0) {
                         secure.send(Bytes(32, 0x11), 1, 1);
                       } else {
                         Bytes buf(32);
                         (void)secure.recv(buf, 0, 1);
                       }
                     }),
      mpi::MpiError);
}

TEST(AdversarialWire, WaitallDrainsRemainingRequestsAfterIntegrityError) {
  // Regression: waitall used to propagate the first IntegrityError
  // without completing the remaining requests. With a corrupted
  // rendezvous transfer in the batch, the abandoned request left the
  // sender parked on its handshake forever (deadlock). Now the batch
  // is drained, the error rethrown, and the world keeps running.
  const std::size_t big = 128 * 1024;  // above ethernet eager threshold
  WorldConfig config = world_of(3, 1);
  config.cluster.faults.triggers.push_back(
      {.src = 0, .dst = 1, .nth = 0, .kind = net::FaultKind::kCorrupt});
  mpi::run_world(config, [&](Comm& comm) {
    SecureComm secure(comm, plain_crypto());
    if (comm.rank() == 0) {
      secure.send(Bytes(big, 0x00), 1, 1);  // corrupted in the pull
      secure.send(bytes_of("after"), 1, 2);
    } else if (comm.rank() == 1) {
      Bytes big_buf(big);
      Bytes small_buf(16);
      std::vector<mpi::Request> requests;
      requests.push_back(secure.irecv(big_buf, 0, 1));
      requests.push_back(secure.irecv(small_buf, 2, 1));
      EXPECT_THROW((void)secure.waitall(requests), IntegrityError);
      EXPECT_EQ(secure.counters().auth_failures, 1u);
      // Both inner receives completed: the channel still works.
      Bytes buf(16);
      const Status st = secure.recv(buf, 0, 2);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + st.bytes), "after");
    } else {
      secure.send(bytes_of("clean sibling"), 1, 1);
    }
  });
}

TEST(AdversarialWire, SeededCampaignIsDeterministic) {
  // The whole point of a seeded FaultPlan: two runs with the same
  // seed produce byte-identical injection stats, detection counters,
  // and virtual end times; a different seed produces a different
  // schedule.
  struct Outcome {
    net::FaultStats faults;
    std::uint64_t detected = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t opened = 0;
    double end = 0.0;
    bool operator==(const Outcome&) const = default;
  };
  const auto campaign = [](std::uint64_t seed) {
    WorldConfig config;
    config.cluster.num_nodes = 2;
    config.cluster.ranks_per_node = 1;
    config.cluster.inter = net::ethernet_10g();
    config.cluster.faults.seed = seed;
    config.cluster.faults.p_corrupt = 0.10;
    config.cluster.faults.p_truncate = 0.05;
    config.cluster.faults.p_duplicate = 0.05;
    config.recv_timeout = 1.0;  // lets the receiver drain duplicates too
    World world(config);
    Outcome out;
    out.end = world.run([&](Comm& comm) {
      SecureConfig sc;
      sc.cost_model = CryptoCostModel{};
      sc.bind_context = true;
      sc.replay_window = 8;
      SecureComm secure(comm, sc);
      if (comm.rank() == 0) {
        for (int i = 0; i < 60; ++i) {
          secure.send(Bytes(256, static_cast<std::uint8_t>(i)), 1, 1);
        }
      } else {
        // Receive until the channel runs dry (duplicates mean more
        // than 60 envelopes can arrive).
        for (;;) {
          Bytes buf(256);
          try {
            (void)secure.recv(buf, 0, 1);
          } catch (const IntegrityError&) {
          } catch (const mpi::MpiError&) {
            break;  // timeout: everything delivered has been consumed
          }
        }
        out.detected = secure.counters().faults_detected();
        out.suppressed = secure.counters().duplicates_suppressed;
        out.opened = secure.counters().messages_opened;
      }
    });
    out.faults = world.fabric().faults()->stats();
    return out;
  };

  const Outcome first = campaign(1234);
  const Outcome second = campaign(1234);
  EXPECT_TRUE(first == second) << "same seed must replay exactly";
  EXPECT_GT(first.faults.total_injected(), 0u);
  // Every injected fault was accounted for, none slipped through
  // silently: corrupt/truncate fail to authenticate (attack counters),
  // each fabric duplicate is absorbed exactly once as a benign
  // anomaly (kept strictly apart from the replay-attack counter), and
  // the clean remainder all opened.
  EXPECT_EQ(first.detected, first.faults.corrupted + first.faults.truncated);
  EXPECT_EQ(first.suppressed, first.faults.duplicated);
  EXPECT_EQ(first.opened,
            60u - first.faults.corrupted - first.faults.truncated);
  const Outcome other = campaign(99);
  EXPECT_FALSE(first.faults == other.faults) << "seed must matter";
}

}  // namespace
}  // namespace emc::secure
