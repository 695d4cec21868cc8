// Point-to-point semantics of MiniMPI: matching, ordering, wildcards,
// eager vs rendezvous, non-blocking completion, and error paths.
#include <gtest/gtest.h>

#include <string>

#include "emc/common/rng.hpp"
#include "emc/mpi/comm.hpp"

namespace emc::mpi {
namespace {

WorldConfig small_world(int nodes, int ranks_per_node) {
  WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = ranks_per_node;
  config.cluster.inter = net::ethernet_10g();
  return config;
}

TEST(P2p, PingPongDeliversDataAndChargesTime) {
  const double end = run_world(small_world(2, 1), [](Comm& comm) {
    const Bytes ping = bytes_of("ping");
    if (comm.rank() == 0) {
      comm.send(ping, 1, 7);
      Bytes buf(16);
      const Status st = comm.recv(buf, 1, 8);
      EXPECT_EQ(st.bytes, 4u);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + 4), "pong");
    } else {
      Bytes buf(16);
      const Status st = comm.recv(buf, 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 4u);
      comm.send(bytes_of("pong"), 0, 8);
    }
  });
  // One round trip must cost at least two one-way latencies.
  EXPECT_GT(end, 2 * net::ethernet_10g().latency);
}

TEST(P2p, MessagesFromSameSourceArriveInOrder) {
  run_world(small_world(2, 1), [](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint8_t i = 0; i < 50; ++i) {
        comm.send(Bytes{i}, 1, 3);
      }
    } else {
      for (std::uint8_t i = 0; i < 50; ++i) {
        Bytes buf(1);
        comm.recv(buf, 0, 3);
        ASSERT_EQ(buf[0], i);
      }
    }
  });
}

TEST(P2p, TagsSelectMessages) {
  run_world(small_world(2, 1), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(bytes_of("tagged-5"), 1, 5);
      comm.send(bytes_of("tagged-6"), 1, 6);
    } else {
      Bytes buf(8);
      comm.recv(buf, 0, 6);  // out of arrival order, by tag
      EXPECT_EQ(std::string(buf.begin(), buf.end()), "tagged-6");
      comm.recv(buf, 0, 5);
      EXPECT_EQ(std::string(buf.begin(), buf.end()), "tagged-5");
    }
  });
}

TEST(P2p, WildcardSourceAndTag) {
  run_world(small_world(3, 1), [](Comm& comm) {
    if (comm.rank() == 0) {
      int from1 = 0;
      int from2 = 0;
      for (int i = 0; i < 2; ++i) {
        Bytes buf(4);
        const Status st = comm.recv(buf, kAnySource, kAnyTag);
        EXPECT_EQ(st.bytes, 4u);
        if (st.source == 1) ++from1;
        if (st.source == 2) ++from2;
        EXPECT_EQ(st.tag, st.source * 10);
      }
      EXPECT_EQ(from1, 1);
      EXPECT_EQ(from2, 1);
    } else {
      comm.send(bytes_of("data"), 0, comm.rank() * 10);
    }
  });
}

TEST(P2p, LargeMessagesUseRendezvousAndRoundTrip) {
  // 1 MB is far above the eager threshold of every profile.
  run_world(small_world(2, 1), [](Comm& comm) {
    Xoshiro256 rng(42);
    const Bytes payload = rng.bytes(1 << 20);
    if (comm.rank() == 0) {
      comm.send(payload, 1, 1);
    } else {
      Bytes buf(1 << 20);
      const Status st = comm.recv(buf, 0, 1);
      EXPECT_EQ(st.bytes, payload.size());
      EXPECT_EQ(buf, payload);
    }
  });
}

TEST(P2p, RendezvousIsSlowerThanWireMinimum) {
  // The RTS/CTS handshake must add at least two extra latencies.
  const auto prof = net::ethernet_10g();
  const std::size_t bytes = 1 << 20;
  const double wire_min =
      prof.latency + static_cast<double>(bytes) / prof.bandwidth;
  const double end = run_world(small_world(2, 1), [bytes](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(Bytes(bytes, 0xab), 1, 1);
    } else {
      Bytes buf(bytes);
      comm.recv(buf, 0, 1);
    }
  });
  EXPECT_GT(end, wire_min + 2 * prof.latency);
}

TEST(P2p, SelfSendWorksForAnySize) {
  run_world(small_world(1, 1), [](Comm& comm) {
    Xoshiro256 rng(7);
    for (std::size_t size : {0u, 1u, 1024u, 200'000u}) {
      const Bytes payload = rng.bytes(size);
      comm.send(payload, 0, 2);  // would deadlock if rendezvous
      Bytes buf(size);
      const Status st = comm.recv(buf, 0, 2);
      EXPECT_EQ(st.bytes, size);
      EXPECT_EQ(buf, payload);
    }
  });
}

TEST(P2p, NonblockingWindowCompletes) {
  run_world(small_world(2, 1), [](Comm& comm) {
    constexpr int kWindow = 64;
    Xoshiro256 rng(9);
    if (comm.rank() == 0) {
      std::vector<Bytes> payloads;
      std::vector<Request> requests;
      for (int i = 0; i < kWindow; ++i) {
        payloads.push_back(rng.bytes(512));
        requests.push_back(comm.isend(payloads.back(), 1, i));
      }
      comm.waitall(requests);
    } else {
      std::vector<Bytes> bufs(kWindow, Bytes(512));
      std::vector<Request> requests;
      for (int i = 0; i < kWindow; ++i) {
        requests.push_back(comm.irecv(bufs[static_cast<std::size_t>(i)],
                                      0, i));
      }
      const auto statuses = comm.waitall(requests);
      Xoshiro256 check(9);
      for (int i = 0; i < kWindow; ++i) {
        EXPECT_EQ(statuses[static_cast<std::size_t>(i)].bytes, 512u);
        EXPECT_EQ(bufs[static_cast<std::size_t>(i)], check.bytes(512));
      }
    }
  });
}

TEST(P2p, IrecvPostedBeforeSendMatches) {
  run_world(small_world(2, 1), [](Comm& comm) {
    if (comm.rank() == 0) {
      Bytes buf(8);
      Request r = comm.irecv(buf, 1, 4);
      const Status st = comm.wait(r);
      EXPECT_EQ(st.bytes, 5u);
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + 5), "later");
    } else {
      comm.process().advance(1e-3);  // ensure the recv is posted first
      comm.send(bytes_of("later"), 0, 4);
    }
  });
}

TEST(P2p, SendrecvExchangesPairwise) {
  run_world(small_world(2, 2), [](Comm& comm) {
    const int partner = comm.rank() ^ 1;
    const Bytes mine = Bytes(64, static_cast<std::uint8_t>(comm.rank()));
    Bytes theirs(64);
    const Status st = comm.sendrecv(mine, partner, 5, theirs, partner, 5);
    EXPECT_EQ(st.source, partner);
    EXPECT_EQ(theirs, Bytes(64, static_cast<std::uint8_t>(partner)));
  });
}

TEST(P2p, TruncationThrows) {
  EXPECT_THROW(run_world(small_world(2, 1),
                         [](Comm& comm) {
                           if (comm.rank() == 0) {
                             comm.send(Bytes(100, 1), 1, 0);
                             Bytes buf(1);
                             comm.recv(buf, 1, 1);
                           } else {
                             Bytes small(10);
                             comm.recv(small, 0, 0);  // too small
                             comm.send(Bytes(1, 1), 0, 1);
                           }
                         }),
               MpiError);
}

TEST(P2p, InvalidArgumentsThrow) {
  EXPECT_THROW(run_world(small_world(1, 2),
                         [](Comm& comm) {
                           comm.send(Bytes(1), 5, 0);  // bad peer
                         }),
               MpiError);
  EXPECT_THROW(run_world(small_world(1, 2),
                         [](Comm& comm) {
                           comm.send(Bytes(1), 0, -3);  // bad tag
                         }),
               MpiError);
  EXPECT_THROW(run_world(small_world(1, 2),
                         [](Comm& comm) {
                           comm.send(Bytes(1), 0, kMaxUserTag + 1);
                         }),
               MpiError);
  EXPECT_THROW(run_world(small_world(1, 1),
                         [](Comm& comm) {
                           Request empty;
                           comm.wait(empty);
                         }),
               MpiError);
}

TEST(P2p, UnmatchedRecvDeadlocks) {
  EXPECT_THROW(run_world(small_world(2, 1),
                         [](Comm& comm) {
                           if (comm.rank() == 0) {
                             Bytes buf(4);
                             comm.recv(buf, 1, 0);  // never sent
                           }
                         }),
               sim::Deadlock);
}

TEST(P2p, AbandonedIrecvIsDeregistered) {
  // Dropping a request without wait() must not leave a dangling
  // posted receive that could match a later message.
  run_world(small_world(2, 1), [](Comm& comm) {
    if (comm.rank() == 0) {
      {
        Bytes buf(4);
        Request r = comm.irecv(buf, 1, 9);
        // destroyed unmatched
      }
      Bytes buf2(4);
      const Status st = comm.recv(buf2, 1, 9);
      EXPECT_EQ(st.bytes, 4u);
      EXPECT_EQ(std::string(buf2.begin(), buf2.end()), "real");
    } else {
      comm.process().advance(1e-3);
      comm.send(bytes_of("real"), 0, 9);
    }
  });
}

TEST(P2p, EagerThresholdBoundary) {
  // A message exactly at the threshold is eager (sender returns after
  // the local copy); one byte above uses rendezvous (sender blocks
  // until the receiver pulls). Distinguish by the sender-side time of
  // an isend+immediate-wait, which is cheap for eager and includes
  // the handshake for rendezvous.
  WorldConfig config = small_world(2, 1);
  const auto threshold = config.cluster.inter.eager_threshold;
  const double latency = config.cluster.inter.latency;

  const auto sender_time = [&](std::size_t bytes) {
    double observed = 0.0;
    run_world(config, [&](Comm& comm) {
      if (comm.rank() == 0) {
        const Bytes payload(bytes, 1);
        const double t0 = comm.now();
        comm.send(payload, 1, 0);
        observed = comm.now() - t0;
      } else {
        Bytes buf(bytes);
        comm.recv(buf, 0, 0);
      }
    });
    return observed;
  };

  const double at_threshold = sender_time(threshold);
  const double above_threshold = sender_time(threshold + 1);
  // Rendezvous blocks the sender across RTS+CTS latencies plus the
  // payload egress; the eager sender only pays overhead + local copy.
  EXPECT_GT(above_threshold, 2 * latency);
  EXPECT_LT(at_threshold, above_threshold / 2);
}

TEST(CommCharge, BillsMeasuredTime) {
  WorldConfig config = small_world(1, 1);
  config.cpu_scale = 1.0;
  run_world(config, [](Comm& comm) {
    const double before = comm.now();
    const double measured = comm.charge([] {
      volatile double x = 0;
      for (int i = 0; i < 100000; ++i) x = x + i;
    });
    EXPECT_GT(measured, 0.0);
    EXPECT_DOUBLE_EQ(comm.now(), before + measured);
  });
}

TEST(CommCharge, CpuScaleCalibratesVirtualCost) {
  WorldConfig config = small_world(1, 1);
  config.cpu_scale = 0.5;
  config.trace = std::make_shared<trace::TraceRecorder>(trace::Config{}, 1);
  double measured = 0.0;
  run_world(config, [&](Comm& comm) {
    measured = comm.charge(
        [] {
          volatile double x = 0;
          for (int i = 0; i < 200000; ++i) x = x + i;
        },
        trace::Category::kKeyMgmt);
    // Virtual cost is half the measured host cost; the return value is
    // the host seconds.
    EXPECT_NEAR(comm.now(), 0.5 * measured, 1e-12);
  });
  const std::vector<trace::Event> events = config.trace->events(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, trace::Category::kKeyMgmt);
  EXPECT_DOUBLE_EQ(events[0].begin, 0.0);
  EXPECT_NEAR(events[0].end, 0.5 * measured, 1e-12);
  EXPECT_EQ(events[0].peer, -1);
  EXPECT_EQ(events[0].bytes, 0u);
}

TEST(P2p, CpuScaleShrinksChargedWork) {
  WorldConfig config = small_world(1, 1);
  const auto body = [](Comm& comm) {
    comm.charge([] {
      volatile double x = 0;
      for (int i = 0; i < 500000; ++i) x = x + i;
    });
  };
  config.cpu_scale = 1.0;
  const double full = run_world(config, body);
  config.cpu_scale = 0.1;
  const double scaled = run_world(config, body);
  EXPECT_GT(full, 0.0);
  EXPECT_LT(scaled, full);  // same work, cheaper simulated CPU time
}

TEST(P2p, VirtualTimeIsDeterministic) {
  auto run_once = [] {
    return run_world(small_world(2, 4), [](Comm& comm) {
      const int partner = (comm.rank() + 4) % 8;
      Bytes buf(2048);
      for (int i = 0; i < 10; ++i) {
        if (comm.rank() < 4) {
          comm.send(Bytes(2048, 1), partner, 0);
          comm.recv(buf, partner, 0);
        } else {
          comm.recv(buf, partner, 0);
          comm.send(Bytes(2048, 2), partner, 0);
        }
      }
    });
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Comm, FramesChangeHandsWithoutCopy) {
  // The buffer handed to send_frame/send_chunk is the very one
  // recv_frame returns: for a posted eager receive, a rendezvous pull,
  // a self-send, and a frame already waiting in the unexpected queue.
  WorldConfig config = small_world(2, 1);
  config.cluster.inter = net::infiniband_qdr_40g();
  const std::size_t eager = 1024;
  const std::size_t rndv = 64 * 1024;
  ASSERT_GT(rndv, config.cluster.inter.eager_threshold);
  const std::uint8_t* sent[3] = {};
  std::string frame_error;
  std::string recv_error;
  run_world(config, [&](Comm& comm) {
    // @p expect is read once the frame arrived: the sender records it.
    const auto take = [&](std::size_t capacity, int src, int tag,
                          const std::uint8_t* const& expect,
                          std::uint8_t fill, std::size_t bytes) {
      Bytes frame;
      const Status st = comm.recv_frame(frame, capacity, src, tag);
      EXPECT_EQ(st.bytes, bytes);
      EXPECT_EQ(frame.data(), expect) << "tag " << tag << " was copied";
      EXPECT_EQ(frame, Bytes(bytes, fill));
    };
    if (comm.rank() == 0) {
      comm.process().advance(1e-3);  // rank 1's receive is posted first
      Bytes posted(eager, 0x11);
      sent[0] = posted.data();
      comm.send_frame(std::move(posted), 1, 1);
      Bytes pulled(rndv, 0x22);
      sent[1] = pulled.data();
      comm.send_frame(std::move(pulled), 1, 2);
      Bytes waiting(eager, 0x44);
      sent[2] = waiting.data();
      comm.send_chunk(std::move(waiting), 1, 4, 0.0);
      Bytes self(eager, 0x33);
      const std::uint8_t* self_data = self.data();
      comm.send_frame(std::move(self), 0, 3);
      take(eager, 0, 3, self_data, 0x33, eager);
      comm.send_frame(Bytes(eager, 0x55), 1, 5);
      comm.send(Bytes(eager, 0x55), 1, 6);
      comm.barrier();
      return;
    }
    take(eager, 0, 1, sent[0], 0x11, eager);
    take(rndv, 0, 2, sent[1], 0x22, rndv);
    // An oversize frame fails exactly like recv into a buffer of the
    // frame receive's capacity.
    try {
      Bytes frame;
      (void)comm.recv_frame(frame, eager / 2, 0, 5);
    } catch (const MpiError& e) {
      frame_error = e.what();
    }
    try {
      Bytes buf(eager / 2);
      (void)comm.recv(buf, 0, 6);
    } catch (const MpiError& e) {
      recv_error = e.what();
    }
    comm.barrier();  // rank 0 sent tag 4 before entering
    take(eager, 0, 4, sent[2], 0x44, eager);
  });
  EXPECT_NE(frame_error.find("receive buffer too small"), std::string::npos);
  EXPECT_EQ(frame_error, recv_error);
}

}  // namespace
}  // namespace emc::mpi
