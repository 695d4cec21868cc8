// Correctness-verifier semantics: each checker must flag its seeded
// misuse with a structured Diagnostic, a clean program must stay
// diagnostic-free, and enabling verification must not perturb the
// deterministic schedule (identical virtual end times).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "emc/mpi/comm.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

namespace emc {
namespace {

using mpi::Comm;
using mpi::World;
using mpi::WorldConfig;
using verify::Check;
using verify::Diagnostic;
using verify::Severity;
using verify::VerifyError;

WorldConfig verified_world(int nodes, int rpn) {
  WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = rpn;
  config.cluster.inter = net::ethernet_10g();
  config.verify.enabled = true;
  return config;
}

bool has_check(const std::vector<Diagnostic>& diags, Check check) {
  return std::any_of(diags.begin(), diags.end(),
                     [check](const Diagnostic& d) { return d.check == check; });
}

const Diagnostic& find_check(const std::vector<Diagnostic>& diags,
                             Check check) {
  const auto it =
      std::find_if(diags.begin(), diags.end(),
                   [check](const Diagnostic& d) { return d.check == check; });
  if (it == diags.end()) throw std::runtime_error("diagnostic not found");
  return *it;
}

// Above ethernet_10g's 64 KiB eager threshold: rides the rendezvous
// protocol, so the sender parks until the receiver pulls.
constexpr std::size_t kRndvBytes = 128 * 1024;

// ------------------------------------------------------------- deadlock

TEST(VerifyDeadlock, HeadToHeadRendezvousSendsNameTheCycle) {
  // The classic unsafe pattern: both ranks send (rendezvous) first.
  // Neither reaches its recv, the engine finds every process parked,
  // and the verifier's wait-for graph must name the 0 <-> 1 cycle.
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      Bytes mine(kRndvBytes, static_cast<std::uint8_t>(comm.rank()));
      Bytes theirs(kRndvBytes);
      const int peer = 1 - comm.rank();
      comm.send(mine, peer, 7);
      comm.recv(theirs, peer, 7);
    });
    FAIL() << "expected sim::Deadlock";
  } catch (const sim::Deadlock& e) {
    EXPECT_NE(std::string(e.what()).find("wait-for cycle"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("rendezvous send"),
              std::string::npos)
        << e.what();
  }
  const auto diags = world.verifier()->diagnostics();
  ASSERT_TRUE(has_check(diags, Check::kDeadlock));
  const Diagnostic& d = find_check(diags, Check::kDeadlock);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.ranks.size(), 2u);  // the cycle is exactly {0, 1}
}

TEST(VerifyDeadlock, MutualRecvCycleIsExplained) {
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      Bytes buf(8);
      comm.recv(buf, 1 - comm.rank(), 3);  // nobody ever sends
    });
    FAIL() << "expected sim::Deadlock";
  } catch (const sim::Deadlock& e) {
    EXPECT_NE(std::string(e.what()).find("wait-for cycle"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("recv from rank"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(has_check(world.verifier()->diagnostics(), Check::kDeadlock));
}

// ----------------------------------------------------- request lifecycle

TEST(VerifyRequests, LeakedRequestSurfacesAtEndOfRun) {
  // The isend completes on the wire (eager) and the receiver consumes
  // it, but the request object is destroyed without wait(): a leak,
  // reported when the run finishes (a destructor cannot throw).
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        Bytes data = bytes_of("leak-me");
        mpi::Request r = comm.isend(data, 1, 4);
        // r goes out of scope unwaited.
      } else {
        Bytes buf(16);
        comm.recv(buf, 0, 4);
      }
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kRequestLeak);
    EXPECT_EQ(e.diagnostic.ranks, std::vector<int>{0});
    EXPECT_NE(std::string(e.what()).find("destroyed without wait"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyRequests, MutatedSendBufferIsCaughtAtWait) {
  // MPI forbids touching a send buffer between isend and wait. The
  // eager path copies at post time so the payload happens to survive,
  // which is exactly why the misuse is invisible without the checker.
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        Bytes data = bytes_of("immutable!");
        mpi::Request r = comm.isend(data, 1, 4);
        data[0] ^= 0xff;  // illegal: request still in flight
        comm.wait(r);
      } else {
        Bytes buf(16);
        comm.recv(buf, 0, 4);
      }
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kSendBufferMutated);
    EXPECT_EQ(e.diagnostic.ranks, std::vector<int>{0});
  }
}

TEST(VerifyRequests, DoubleWaitIsDiagnosed) {
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      const int peer = 1 - comm.rank();
      Bytes mine = bytes_of("pingpong");
      Bytes theirs(mine.size());
      mpi::Request rr = comm.irecv(theirs, peer, 1);
      mpi::Request rs = comm.isend(mine, peer, 1);
      comm.wait(rr);
      comm.wait(rs);
      comm.wait(rs);  // already completed
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kDoubleWait);
  }
}

TEST(VerifyRequests, WithoutVerifierDoubleWaitStillThrowsMpiError) {
  WorldConfig config = verified_world(2, 1);
  config.verify.enabled = false;
  EXPECT_THROW(run_world(config,
                         [](Comm& comm) {
                           const int peer = 1 - comm.rank();
                           Bytes mine = bytes_of("x");
                           Bytes theirs(1);
                           mpi::Request rr = comm.irecv(theirs, peer, 1);
                           mpi::Request rs = comm.isend(mine, peer, 1);
                           comm.wait(rr);
                           comm.wait(rs);
                           comm.wait(rs);
                         }),
               mpi::MpiError);
}

TEST(VerifyRequests, OverlappingInFlightReceiveBuffersAreRejected) {
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        Bytes buf(16);
        MutBytes window(buf);
        mpi::Request r1 = comm.irecv(window.first(12), 1, 1);
        mpi::Request r2 = comm.irecv(window.subspan(8), 1, 2);  // overlaps
        comm.wait(r1);
        comm.wait(r2);
      }
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kOverlappingReceives);
    EXPECT_EQ(e.diagnostic.ranks, std::vector<int>{0});
  }
}

// ----------------------------------------------------------- collectives

TEST(VerifyCollectives, KindMismatchNamesBothRanks) {
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) {
        Bytes data = bytes_of("payload!");
        comm.bcast(data, 0);
      } else {
        comm.barrier();  // diverged: must be flagged before any wire traffic
      }
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kCollectiveMismatch);
    ASSERT_EQ(e.diagnostic.ranks.size(), 2u);  // diverging rank first
    const std::string what = e.what();
    EXPECT_NE(what.find("bcast"), std::string::npos) << what;
    EXPECT_NE(what.find("barrier"), std::string::npos) << what;
  }
  EXPECT_GE(world.verifier()->error_count(), 1u);
}

TEST(VerifyCollectives, RootMismatchIsDiagnosed) {
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      Bytes part = bytes_of("blk");
      Bytes all(2 * part.size());
      comm.gather(part, all, /*root=*/comm.rank());  // each picks itself
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kCollectiveMismatch);
    EXPECT_NE(std::string(e.what()).find("root"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyCollectives, BlockSizeMismatchIsDiagnosed) {
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      const std::size_t block = comm.rank() == 0 ? 4u : 8u;
      Bytes part(block, 0xab);
      Bytes all(2 * block);
      comm.allgather(part, all);
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kCollectiveMismatch);
  }
}

TEST(VerifyCollectives, BcastUndersizedNonRootBufferIsDiagnosed) {
  World world(verified_world(2, 1));
  try {
    world.run([](Comm& comm) {
      Bytes data(comm.rank() == 0 ? 64u : 16u);  // non-root cannot hold it
      comm.bcast(data, 0);
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kCollectiveMismatch);
    EXPECT_NE(std::string(e.what()).find("broadcasts"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyCollectives, OversizedNonRootBcastBufferIsLegal) {
  // The plain layer forwards the *received* byte count, so a non-root
  // buffer larger than the payload is fine and must not be flagged.
  World world(verified_world(2, 1));
  world.run([](Comm& comm) {
    Bytes data(comm.rank() == 0 ? 16u : 64u);
    comm.bcast(data, 0);
  });
  EXPECT_TRUE(world.verifier()->clean());
}

// ------------------------------------------------------ unmatched audit

TEST(VerifyUnmatched, UnconsumedMessageIsAWarningNotAnError) {
  World world(verified_world(2, 1));
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      Bytes data = bytes_of("nobody wants this");
      comm.send(data, 1, 9);  // eager: completes without a receiver
    }
  });  // must not throw: warnings never fail-fast
  const auto diags = world.verifier()->diagnostics();
  ASSERT_TRUE(has_check(diags, Check::kUnmatchedMessage));
  const Diagnostic& d = find_check(diags, Check::kUnmatchedMessage);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.message.find("never received"), std::string::npos) << d.message;
  EXPECT_TRUE(world.verifier()->clean());  // warning != error
}

// --------------------------------------------- clean replay + secure path

void exercise_everything(Comm& comm) {
  const int n = comm.size();
  const int peer = (comm.rank() + 1) % n;
  const int from = (comm.rank() - 1 + n) % n;

  // P2p: eager, rendezvous, nonblocking pairs.
  Bytes small = bytes_of("eager");
  Bytes big(kRndvBytes, static_cast<std::uint8_t>(comm.rank()));
  Bytes in_small(small.size());
  Bytes in_big(big.size());
  comm.sendrecv(small, peer, 1, in_small, from, 1);
  std::vector<mpi::Request> reqs;
  reqs.push_back(comm.irecv(in_big, from, 2));
  reqs.push_back(comm.isend(big, peer, 2));
  comm.waitall(reqs);

  // Every collective once.
  comm.barrier();
  Bytes bc(256, 0x5a);
  comm.bcast(bc, 0);
  Bytes part(64, static_cast<std::uint8_t>(comm.rank()));
  Bytes all(part.size() * static_cast<std::size_t>(n));
  comm.allgather(part, all);
  comm.gather(part, all, 0);
  Bytes rpart(part.size());
  comm.scatter(all, rpart, 0);
  Bytes a2a_in(all.size());
  comm.alltoall(all, a2a_in, part.size());
}

TEST(VerifyClean, FullWorkloadIsDiagnosticFreeAndReplaysExactly) {
  WorldConfig plain_config = verified_world(2, 2);
  plain_config.verify.enabled = false;
  const double baseline = run_world(plain_config, exercise_everything);

  World world(verified_world(2, 2));
  const double verified = world.run(exercise_everything);
  EXPECT_TRUE(world.verifier()->clean());
  EXPECT_TRUE(world.verifier()->diagnostics().empty());
  // Verification hooks never advance virtual time: bit-equal end time.
  EXPECT_EQ(verified, baseline);
}

TEST(VerifyClean, SecureWorkloadIsDiagnosticFree) {
  WorldConfig config = verified_world(2, 1);
  secure::SecureConfig sec;
  sec.bind_context = true;
  sec.replay_window = 4;
  sec.cost_model = secure::CryptoCostModel{};  // timing-independent determinism
  World world(config);
  world.run([&sec](Comm& comm) {
    secure::SecureComm secure(comm, sec);
    const int peer = 1 - comm.rank();
    Bytes mine = bytes_of("secure traffic");
    Bytes theirs(mine.size());
    secure.sendrecv(mine, peer, 1, theirs, peer, 1);
    secure.barrier();
    Bytes bc(128, 0x11);
    secure.bcast(bc, 0);
    Bytes part(32, static_cast<std::uint8_t>(comm.rank()));
    Bytes all(64);
    secure.allgather(part, all);
  });
  EXPECT_TRUE(world.verifier()->clean());
  EXPECT_TRUE(world.verifier()->diagnostics().empty());
}

TEST(VerifySecure, EarlyValidationRejectsBeforeSealing) {
  World world(verified_world(2, 1));
  EXPECT_THROW(world.run([](Comm& comm) {
                 secure::SecureComm secure(comm, {});
                 Bytes data = bytes_of("x");
                 secure.send(data, /*dst=*/5, /*tag=*/1);  // no such rank
               }),
               mpi::MpiError);

  World world2(verified_world(2, 1));
  try {
    world2.run([](Comm& comm) {
      secure::SecureComm secure(comm, {});
      const int peer = 1 - comm.rank();
      Bytes mine = bytes_of("pp");
      Bytes theirs(mine.size());
      mpi::Request rr = secure.irecv(theirs, peer, 1);
      mpi::Request rs = secure.isend(mine, peer, 1);
      secure.wait(rr);
      secure.wait(rs);
      secure.wait(rs);  // double wait through the secure layer
    });
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostic.check, Check::kDoubleWait);
  }
}

// ------------------------------------------------- schedule perturbation

TEST(VerifyPerturb, CleanProgramSurvivesAllTieBreakOrders) {
  WorldConfig config = verified_world(2, 2);
  config.verify.enabled = false;  // run_perturbed force-enables it
  const auto runs = run_perturbed(config, exercise_everything, 4, /*seed=*/7);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].salt, 0u);  // run 0 is always the FIFO baseline
  for (const auto& r : runs) {
    EXPECT_FALSE(r.failed) << r.error;
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_GT(r.end_time, 0.0);
  }
}

TEST(VerifyPerturb, SameSeedReproducesSaltsAndTimes) {
  WorldConfig config = verified_world(2, 1);
  const auto body = [](Comm& comm) {
    const int peer = 1 - comm.rank();
    Bytes mine = bytes_of("deterministic");
    Bytes theirs(mine.size());
    comm.sendrecv(mine, peer, 1, theirs, peer, 1);
  };
  const auto a = run_perturbed(config, body, 3, 42);
  const auto b = run_perturbed(config, body, 3, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].salt, b[i].salt);
    EXPECT_EQ(a[i].end_time, b[i].end_time);
    EXPECT_EQ(a[i].failed, b[i].failed);
  }
}

TEST(VerifyPerturb, DeadlockIsFoundUnderPerturbationToo) {
  WorldConfig config = verified_world(2, 1);
  const auto runs = run_perturbed(
      config,
      [](Comm& comm) {
        Bytes buf(8);
        comm.recv(buf, 1 - comm.rank(), 3);
      },
      2, 1);
  for (const auto& r : runs) {
    EXPECT_TRUE(r.failed);
    EXPECT_TRUE(has_check(r.diagnostics, Check::kDeadlock));
  }
}

// --------------------------------------------------------- fail-fast off

TEST(VerifyCollect, FailFastOffCollectsInsteadOfThrowing) {
  WorldConfig config = verified_world(2, 1);
  config.verify.fail_fast = false;
  World world(config);
  world.run([](Comm& comm) {  // must complete despite the misuse
    const int peer = 1 - comm.rank();
    Bytes mine = bytes_of("pp");
    Bytes theirs(mine.size());
    mpi::Request rr = comm.irecv(theirs, peer, 1);
    mpi::Request rs = comm.isend(mine, peer, 1);
    comm.wait(rr);
    comm.wait(rs);
    if (comm.rank() == 0) {
      Bytes leak = bytes_of("leaked");
      mpi::Request r = comm.isend(leak, peer, 2);  // never waited
      Bytes sink(16);
      comm.recv(sink, peer, 3);
    } else {
      Bytes sink(16);
      comm.recv(sink, peer, 2);
      Bytes data = bytes_of("reply");
      comm.send(data, peer, 3);
    }
  });
  const auto diags = world.verifier()->diagnostics();
  EXPECT_TRUE(has_check(diags, Check::kRequestLeak));
  EXPECT_FALSE(world.verifier()->clean());
}

}  // namespace
}  // namespace emc
