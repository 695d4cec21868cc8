// Encrypted-MPI layer: plaintext equality through every wrapped
// routine under every provider, the +28-byte framing, decrypt-in-wait,
// counters, and tamper detection end to end.
#include <gtest/gtest.h>

#include "emc/common/rng.hpp"
#include "emc/mpi/reduce.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::secure {
namespace {

using mpi::Comm;
using mpi::Request;
using mpi::Status;
using mpi::WorldConfig;

WorldConfig world_of(int nodes, int ranks_per_node,
                     net::NetworkProfile inter = net::ethernet_10g()) {
  WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = ranks_per_node;
  config.cluster.inter = std::move(inter);
  return config;
}

SecureConfig secure_with(const std::string& provider) {
  SecureConfig config;
  config.provider = provider;
  config.cost_model = CryptoCostModel{};  // functional tests: determinism first
  return config;
}

Bytes rank_block(int rank, std::size_t size, std::uint64_t salt = 0) {
  Xoshiro256 rng(0x5EC + static_cast<std::uint64_t>(rank) * 31 + salt);
  return rng.bytes(size);
}

class SecureProviderTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SecureProviderTest, PingPongRoundTrips) {
  run_secure_world(world_of(2, 1), secure_with(GetParam()),
                   [](SecureComm& comm) {
                     const Bytes msg = rank_block(0, 1000);
                     if (comm.rank() == 0) {
                       comm.send(msg, 1, 1);
                     } else {
                       Bytes buf(1000);
                       const Status st = comm.recv(buf, 0, 1);
                       EXPECT_EQ(st.bytes, 1000u);  // plaintext size
                       EXPECT_EQ(buf, msg);
                     }
                   });
}

TEST_P(SecureProviderTest, LargeMessageViaRendezvous) {
  run_secure_world(world_of(2, 1), secure_with(GetParam()),
                   [](SecureComm& comm) {
                     const Bytes msg = rank_block(9, 1 << 20);
                     if (comm.rank() == 0) {
                       comm.send(msg, 1, 1);
                     } else {
                       Bytes buf(1 << 20);
                       comm.recv(buf, 0, 1);
                       EXPECT_EQ(buf, msg);
                     }
                   });
}

TEST_P(SecureProviderTest, NonblockingDecryptsInWait) {
  run_secure_world(
      world_of(2, 1), secure_with(GetParam()), [](SecureComm& comm) {
        if (comm.rank() == 0) {
          const Bytes msg = rank_block(1, 4096);
          Request r = comm.isend(msg, 1, 2);
          comm.wait(r);
        } else {
          Bytes buf(4096);
          Request r = comm.irecv(buf, 0, 2);
          // Before wait the user buffer must still be untouched:
          // ciphertext lives in the internal wire buffer.
          const Bytes before = buf;
          const Status st = comm.wait(r);
          EXPECT_EQ(st.bytes, 4096u);
          EXPECT_EQ(buf, rank_block(1, 4096));
          EXPECT_NE(buf, before);
        }
      });
}

TEST_P(SecureProviderTest, CollectivesMatchPlaintextReference) {
  const int n = 6;
  run_secure_world(world_of(3, 2), secure_with(GetParam()), [n](SecureComm&
                                                                    comm) {
    // bcast
    Bytes data = comm.rank() == 2 ? rank_block(2, 500) : Bytes(500);
    comm.bcast(data, 2);
    ASSERT_EQ(data, rank_block(2, 500));

    // allgather
    const std::size_t block = 100;
    Bytes all(block * n);
    comm.allgather(rank_block(comm.rank(), block), all);
    for (int r = 0; r < n; ++r) {
      const Bytes expect = rank_block(r, block);
      ASSERT_TRUE(std::equal(
          expect.begin(), expect.end(),
          all.begin() + static_cast<std::ptrdiff_t>(
                            static_cast<std::size_t>(r) * block)));
    }

    // alltoall (Algorithm 1)
    Bytes sendbuf(block * n);
    for (int d = 0; d < n; ++d) {
      const Bytes part = rank_block(comm.rank() * 100 + d, block);
      std::copy(part.begin(), part.end(),
                sendbuf.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(d) * block));
    }
    Bytes recvbuf(block * n);
    comm.alltoall(sendbuf, recvbuf, block);
    for (int s = 0; s < n; ++s) {
      const Bytes expect = rank_block(s * 100 + comm.rank(), block);
      ASSERT_TRUE(std::equal(
          expect.begin(), expect.end(),
          recvbuf.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(s) * block)));
    }

    // alltoallv with ragged sizes
    const auto un = static_cast<std::size_t>(n);
    std::vector<std::size_t> scounts(un);
    std::vector<std::size_t> sdispls(un);
    std::vector<std::size_t> rcounts(un);
    std::vector<std::size_t> rdispls(un);
    std::size_t stotal = 0;
    std::size_t rtotal = 0;
    for (int d = 0; d < n; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      scounts[ud] = static_cast<std::size_t>(comm.rank() + d);
      sdispls[ud] = stotal;
      stotal += scounts[ud];
      rcounts[ud] = static_cast<std::size_t>(d + comm.rank());
      rdispls[ud] = rtotal;
      rtotal += rcounts[ud];
    }
    Bytes vsend(stotal);
    for (int d = 0; d < n; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const Bytes part = rank_block(comm.rank() * 41 + d, scounts[ud]);
      std::copy(part.begin(), part.end(),
                vsend.begin() + static_cast<std::ptrdiff_t>(sdispls[ud]));
    }
    Bytes vrecv(rtotal);
    comm.alltoallv(vsend, scounts, sdispls, vrecv, rcounts, rdispls);
    for (int s = 0; s < n; ++s) {
      const auto us = static_cast<std::size_t>(s);
      const Bytes expect = rank_block(s * 41 + comm.rank(), rcounts[us]);
      ASSERT_TRUE(std::equal(
          expect.begin(), expect.end(),
          vrecv.begin() + static_cast<std::ptrdiff_t>(rdispls[us])));
    }

    // gather + scatter
    Bytes gathered(comm.rank() == 0 ? block * n : 0);
    comm.gather(rank_block(comm.rank(), block, 3), gathered, 0);
    Bytes back(block);
    comm.scatter(gathered, back, 0);
    EXPECT_EQ(back, rank_block(comm.rank(), block, 3));

    // typed allreduce rides encrypted point-to-point
    EXPECT_DOUBLE_EQ(mpi::allreduce_sum(comm, 1.0), n);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Providers, SecureProviderTest,
    ::testing::Values("boringssl-sim", "openssl-sim", "libsodium-sim",
                      "cryptopp-sim", "cryptopp-opt-sim"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SecureFraming, WireCarriesExactly28ExtraBytes) {
  EXPECT_EQ(SecureComm::wire_size(0), 28u);
  EXPECT_EQ(SecureComm::wire_size(1000), 1028u);
  // Observed on the wire: the plain communicator under a secure send
  // sees payload + 28.
  run_secure_world(world_of(2, 1), secure_with("libsodium-sim"),
                   [](SecureComm& comm) {
                     if (comm.rank() == 0) {
                       comm.send(Bytes(1000, 7), 1, 0);
                     } else {
                       Bytes wire(2000);
                       const Status st = comm.plain().recv(wire, 0, 0);
                       EXPECT_EQ(st.bytes, 1028u);
                     }
                   });
}

TEST(SecureFraming, CiphertextNeverEqualsPlaintext) {
  run_secure_world(world_of(2, 1), secure_with("boringssl-sim"),
                   [](SecureComm& comm) {
                     const Bytes msg(512, 0xAA);
                     if (comm.rank() == 0) {
                       comm.send(msg, 1, 0);
                     } else {
                       Bytes wire(1024);
                       const Status st = comm.plain().recv(wire, 0, 0);
                       const BytesView body =
                           BytesView(wire).subspan(12, st.bytes - 28);
                       EXPECT_FALSE(std::equal(msg.begin(), msg.end(),
                                               body.begin()));
                     }
                   });
}

TEST(SecureIntegrity, TamperedWireThrowsIntegrityError) {
  EXPECT_THROW(
      run_secure_world(
          world_of(2, 1), secure_with("boringssl-sim"),
          [](SecureComm& comm) {
            if (comm.rank() == 0) {
              // Adversary-in-the-middle: flip one ciphertext bit by
              // sending through the plain comm after sealing.
              Bytes msg(100, 0x42);
              Bytes wire(SecureComm::wire_size(msg.size()));
              // Build a legitimate wire message via a loopback seal:
              // easiest path is send-to-self then capture; instead,
              // tamper after a legitimate secure send is not possible
              // from outside, so corrupt in transit: send a valid
              // encrypted message, then a corrupted copy.
              comm.send(msg, 1, 0);
            } else {
              Bytes wire(SecureComm::wire_size(100));
              comm.plain().recv(wire, 0, 0);
              wire[40] ^= 0x01;  // corrupt ciphertext
              // Re-inject locally: open must reject.
              Bytes out(100);
              comm.plain().send(wire, 1, 1);  // to self via plain
              Bytes wire2(wire.size());
              comm.plain().recv(wire2, 1, 1);
              // Now use the secure path's recv machinery by waiting on
              // an irecv fed with the corrupted bytes.
              Request r = comm.irecv(out, 1, 2);
              comm.plain().send(wire2, 1, 2);
              comm.wait(r);  // must throw IntegrityError
            }
          }),
      IntegrityError);
}

TEST(SecureCounters, AccountSealedAndOpenedTraffic) {
  run_secure_world(world_of(2, 1), secure_with("cryptopp-sim"),
                   [](SecureComm& comm) {
                     if (comm.rank() == 0) {
                       comm.send(Bytes(100, 1), 1, 0);
                       comm.send(Bytes(200, 2), 1, 0);
                       EXPECT_EQ(comm.counters().messages_sealed, 2u);
                       EXPECT_EQ(comm.counters().bytes_sealed, 300u);
                       EXPECT_EQ(comm.counters().messages_opened, 0u);
                     } else {
                       Bytes buf(200);
                       comm.recv(MutBytes(buf).first(100), 0, 0);
                       comm.recv(buf, 0, 0);
                       EXPECT_EQ(comm.counters().messages_opened, 2u);
                       EXPECT_EQ(comm.counters().bytes_opened, 300u);
                       comm.reset_counters();
                       EXPECT_EQ(comm.counters().bytes_opened, 0u);
                     }
                   });
}

TEST(SecureNonces, CounterModeNoncesAreUniquePerRank) {
  SecureConfig config = secure_with("libsodium-sim");
  config.nonce_mode = NonceMode::kCounter;
  run_secure_world(world_of(2, 1), config, [](SecureComm& comm) {
    // Two identical plaintexts must still produce different wires.
    if (comm.rank() == 0) {
      comm.send(Bytes(64, 0x11), 1, 0);
      comm.send(Bytes(64, 0x11), 1, 0);
    } else {
      Bytes w1(200);
      Bytes w2(200);
      const Status s1 = comm.plain().recv(w1, 0, 0);
      const Status s2 = comm.plain().recv(w2, 0, 0);
      EXPECT_FALSE(std::equal(w1.begin(),
                              w1.begin() + static_cast<std::ptrdiff_t>(
                                               s1.bytes),
                              w2.begin()))
          << "nonce reuse would make equal plaintexts distinguishable";
      (void)s2;
    }
  });
}

TEST(SecureReplay, ContextBindingRejectsReplayedCiphertext) {
  // Footnote 1 of the paper scopes replay attacks out; the
  // bind_context extension closes them. An adversary that records a
  // valid wire message and re-injects it must be caught, because the
  // receiver's channel sequence number has moved on.
  SecureConfig config = secure_with("boringssl-sim");
  config.bind_context = true;
  EXPECT_THROW(
      run_secure_world(
          world_of(2, 1), config,
          [](SecureComm& comm) {
            if (comm.rank() == 0) {
              comm.send(bytes_of("pay me once!!"), 1, 3);
            } else {
              Bytes wire(SecureComm::wire_size(13));
              comm.plain().recv(wire, 0, 3);   // record the ciphertext
              Bytes out(13);
              // Deliver the original (seq 0): accepted.
              comm.plain().send(wire, 1, 3);
              Request r1 = comm.irecv(out, 1, 3);
              comm.wait(r1);
              EXPECT_EQ(std::string(out.begin(), out.end()),
                        "pay me once!!");
              // Replay the same bytes (receiver now expects seq 1).
              comm.plain().send(wire, 1, 3);
              Request r2 = comm.irecv(out, 1, 3);
              comm.wait(r2);  // must throw IntegrityError
            }
          }),
      IntegrityError);
}

TEST(SecureReplay, ContextBindingRejectsCrossChannelReroute) {
  // A ciphertext recorded on tag 5 must not be accepted on tag 6:
  // the tag is authenticated in the AAD.
  SecureConfig config = secure_with("boringssl-sim");
  config.bind_context = true;
  EXPECT_THROW(
      run_secure_world(
          world_of(2, 1), config,
          [](SecureComm& comm) {
            if (comm.rank() == 0) {
              comm.send(bytes_of("tagged"), 1, 5);
            } else {
              Bytes wire(SecureComm::wire_size(6));
              comm.plain().recv(wire, 0, 5);
              Bytes out(6);
              comm.plain().send(wire, 1, 6);  // reroute to tag 6
              Request r = comm.irecv(out, 1, 6);
              comm.wait(r);  // must throw
            }
          }),
      IntegrityError);
}

TEST(SecureReplay, BindingIsTransparentForHonestTraffic) {
  // With context binding on, every routine still round-trips.
  SecureConfig config = secure_with("libsodium-sim");
  config.bind_context = true;
  run_secure_world(world_of(2, 2), config, [](SecureComm& comm) {
    const int n = comm.size();
    // Repeated p2p on one channel exercises the sequence counters.
    const int partner = comm.rank() ^ 1;
    for (int i = 0; i < 5; ++i) {
      Bytes msg(64, static_cast<std::uint8_t>(comm.rank() * 16 + i));
      Bytes buf(64);
      comm.sendrecv(msg, partner, 7, buf, partner, 7);
      EXPECT_EQ(buf, Bytes(64, static_cast<std::uint8_t>(partner * 16 + i)));
    }
    // Collectives bind (src, dst, collective-sequence) per block.
    Bytes data = comm.rank() == 1 ? rank_block(1, 100) : Bytes(100);
    comm.bcast(data, 1);
    EXPECT_EQ(data, rank_block(1, 100));

    const std::size_t block = 32;
    Bytes all(block * static_cast<std::size_t>(n));
    comm.allgather(rank_block(comm.rank(), block), all);

    Bytes sendbuf(block * static_cast<std::size_t>(n),
                  static_cast<std::uint8_t>(comm.rank()));
    Bytes recvbuf(sendbuf.size());
    comm.alltoall(sendbuf, recvbuf, block);
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(recvbuf[static_cast<std::size_t>(s) * block],
                static_cast<std::uint8_t>(s));
    }

    Bytes gathered(comm.rank() == 0 ? block * static_cast<std::size_t>(n)
                                    : 0);
    comm.gather(rank_block(comm.rank(), block, 2), gathered, 0);
    Bytes part(block);
    comm.scatter(gathered, part, 0);
    EXPECT_EQ(part, rank_block(comm.rank(), block, 2));
  });
}

TEST(SecureConfigErrors, UnknownProviderAndBadKeySizeThrow) {
  WorldConfig world = world_of(1, 1);
  SecureConfig bad_provider = secure_with("schannel");
  EXPECT_THROW(
      run_secure_world(world, bad_provider, [](SecureComm&) {}),
      std::invalid_argument);

  SecureConfig bad_key = secure_with("libsodium-sim");
  bad_key.key = crypto::demo_key(16);  // libsodium tier is 256-bit only
  EXPECT_THROW(run_secure_world(world, bad_key, [](SecureComm&) {}),
               std::invalid_argument);
}

TEST(SecureTiming, ChargedCryptoAdvancesVirtualClock) {
  WorldConfig world = world_of(2, 1);
  SecureConfig uncharged = secure_with("cryptopp-sim");
  SecureConfig charged = secure_with("cryptopp-sim");
  charged.cost_model.reset();  // measured billing

  auto body = [](SecureComm& comm) {
    const Bytes msg(1 << 18, 0x3c);
    Bytes buf(1 << 18);
    for (int i = 0; i < 3; ++i) {
      if (comm.rank() == 0) {
        comm.send(msg, 1, 0);
        comm.recv(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
        comm.send(msg, 0, 0);
      }
    }
  };
  const double t_plain = run_secure_world(world, uncharged, body);
  const double t_crypto = run_secure_world(world, charged, body);
  EXPECT_GT(t_crypto, t_plain);
}

TEST(SecureTiming, ZeroCostModelBillsNothing) {
  // CryptoCostModel{} makes crypto free: no virtual time and no
  // crypto_* span, helper cores included. Its timeline is that of
  // measured billing on an infinitely fast simulated CPU.
  auto body = [](SecureComm& comm) {
    const Bytes msg(8 * 1024, 0x3c);
    Bytes buf(msg.size());
    for (int i = 0; i < 3; ++i) {
      if (comm.rank() == 0) {
        comm.send(msg, 1, 0);
        comm.recv(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
        comm.send(msg, 0, 0);
      }
    }
  };
  // Returns the end time and the number of crypto_* spans of a traced run.
  const auto traced_run = [&](const SecureConfig& config, double cpu_scale) {
    WorldConfig world = world_of(2, 1);
    world.cpu_scale = cpu_scale;
    world.trace = std::make_shared<trace::TraceRecorder>(trace::Config{}, 2);
    const double end = run_secure_world(world, config, body);
    int spans = 0;
    for (int rank = 0; rank < 2; ++rank) {
      for (const trace::Event& e : world.trace->events(rank)) {
        spans += std::string(trace::category_name(e.category))
                     .starts_with("crypto_");
      }
    }
    return std::pair{end, spans};
  };
  const SecureConfig free_crypto = secure_with("boringssl-sim");
  SecureConfig piped = free_crypto;
  piped.pipeline = {.enabled = true, .chunk_bytes = 1024, .helper_cores = 2,
                    .min_bytes = 1024};
  SecureConfig measured = free_crypto;
  measured.cost_model.reset();

  const auto [t_free, free_spans] = traced_run(free_crypto, 1.0);
  EXPECT_EQ(free_spans, 0);
  EXPECT_EQ(traced_run(piped, 1.0).second, 0);
  const auto [t_measured, measured_spans] = traced_run(measured, 0.0);
  EXPECT_DOUBLE_EQ(t_measured, t_free);
  // Measured billing still records its (zero-length) crypto spans.
  EXPECT_GT(measured_spans, 0);
}

}  // namespace
}  // namespace emc::secure
