// Discrete-event engine semantics: virtual-clock ordering,
// determinism, waitable hand-off, error paths.
#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cstdint>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "emc/sim/engine.hpp"

namespace emc::sim {
namespace {

TEST(Engine, SingleProcessAdvancesClock) {
  Engine engine(1);
  const Time end = engine.run([](Process& p) {
    EXPECT_EQ(p.now(), 0.0);
    p.advance(1.5);
    EXPECT_DOUBLE_EQ(p.now(), 1.5);
    p.advance(0.5);
    EXPECT_DOUBLE_EQ(p.now(), 2.0);
  });
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST(Engine, NegativeOrZeroAdvanceIsNoop) {
  Engine engine(1);
  const Time end = engine.run([](Process& p) {
    p.advance(0.0);
    p.advance(-5.0);
  });
  EXPECT_DOUBLE_EQ(end, 0.0);
}

TEST(Engine, ProcessesInterleaveByVirtualTime) {
  // Two processes advancing different amounts must observe a globally
  // ordered clock: the recorded (time, index) sequence is sorted.
  Engine engine(2);
  std::vector<std::pair<double, int>> log;
  engine.run([&log](Process& p) {
    const double step = p.index() == 0 ? 1.0 : 0.4;
    for (int i = 0; i < 5; ++i) {
      p.advance(step);
      log.emplace_back(p.now(), p.index());
    }
  });
  ASSERT_EQ(log.size(), 10u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].first, log[i].first) << "clock went backwards";
  }
}

TEST(Engine, RunsEveryProcessExactlyOnce) {
  Engine engine(17);
  int count = 0;
  engine.run([&count](Process&) { ++count; });
  EXPECT_EQ(count, 17);
}

TEST(Engine, WaitableHandsOffBetweenProcesses) {
  // Process 1 waits; process 0 advances then notifies; the waiter
  // resumes at the notifier's clock.
  Engine engine(2);
  Waitable ready;
  bool flag = false;
  double waiter_resume_time = -1.0;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(2.0);
      flag = true;
      p.notify_all(ready);
    } else {
      while (!flag) p.wait(ready);
      waiter_resume_time = p.now();
    }
  });
  EXPECT_DOUBLE_EQ(waiter_resume_time, 2.0);
}

TEST(Engine, NotifyOneReleasesSingleWaiter) {
  Engine engine(3);
  Waitable gate;
  int released = 0;
  int token = 0;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(1.0);
      token = 1;
      p.notify_one(gate);
      p.advance(1.0);
      token = 2;
      p.notify_all(gate);
    } else {
      while (token == 0 ||
             (released >= 1 && token < 2)) {
        p.wait(gate);
      }
      ++released;
    }
  });
  EXPECT_EQ(released, 2);
}

TEST(Engine, DeadlockIsDetected) {
  Engine engine(2);
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) { p.wait(never); }), Deadlock);
}

TEST(Engine, ExceptionInOneProcessPropagates) {
  Engine engine(4);
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) {
                 if (p.index() == 2) throw std::logic_error("boom");
                 p.wait(never);  // others parked; must be torn down
               }),
               std::logic_error);
}

TEST(Engine, RepeatedRunsAccumulateTime) {
  Engine engine(2);
  const Time t1 = engine.run([](Process& p) { p.advance(1.0); });
  EXPECT_DOUBLE_EQ(t1, 1.0);
  const Time t2 = engine.run([](Process& p) { p.advance(1.0); });
  EXPECT_DOUBLE_EQ(t2, 2.0);
}

TEST(Engine, SameTimeEventsOrderedBySchedulingSequence) {
  // Determinism check: repeated identical runs produce identical logs.
  auto run_once = [] {
    Engine engine(4);
    std::vector<int> order;
    engine.run([&order](Process& p) {
      for (int i = 0; i < 3; ++i) {
        p.advance(1.0);  // all processes collide at t=1,2,3
        order.push_back(p.index());
      }
    });
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Engine, YieldDoesNotAdvanceClock) {
  Engine engine(1);
  const Time end = engine.run([](Process& p) {
    p.advance(1.0);
    p.yield();
    EXPECT_DOUBLE_EQ(p.now(), 1.0);
  });
  EXPECT_DOUBLE_EQ(end, 1.0);
}

TEST(Engine, ManyProcessesScale) {
  // 64 ranks is the paper's largest setting; make sure the engine
  // handles it with plenty of context switches.
  Engine engine(64);
  long switches = 0;
  engine.run([&switches](Process& p) {
    for (int i = 0; i < 50; ++i) {
      p.advance(0.001 * (p.index() + 1));
      ++switches;
    }
  });
  EXPECT_EQ(switches, 64 * 50);
}

TEST(Engine, WaitForReturnsTrueWhenNotifiedBeforeDeadline) {
  Engine engine(2);
  Waitable ready;
  bool notified = false;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(1.0);
      p.notify_all(ready);
    } else {
      notified = p.wait_for(ready, 10.0);
      EXPECT_DOUBLE_EQ(p.now(), 1.0);  // resumed at notify time
    }
  });
  EXPECT_TRUE(notified);
}

TEST(Engine, WaitForTimesOutAtDeadline) {
  Engine engine(2);
  Waitable never;
  bool notified = true;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(5.0);  // keeps the world alive past the deadline
    } else {
      notified = p.wait_for(never, 2.5);
      EXPECT_DOUBLE_EQ(p.now(), 2.5);  // woke exactly at the deadline
    }
  });
  EXPECT_FALSE(notified);
}

TEST(Engine, WaitForTimeoutDeregistersWaiter) {
  // After a timeout the process must be off the waiter list: a later
  // notify_all must not try to wake it a second time.
  Engine engine(2);
  Waitable cond;
  int wakeups = 0;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(4.0);
      p.notify_all(cond);  // fires long after the waiter gave up
      p.advance(1.0);
    } else {
      if (!p.wait_for(cond, 1.0)) ++wakeups;
      p.advance(10.0);  // keep running; a stale wake would corrupt state
    }
  });
  EXPECT_EQ(wakeups, 1);
}

TEST(Engine, StaleTimeoutDoesNotRewakeNotifiedProcess) {
  // Notified before the deadline: the abandoned timeout entry still
  // sits in the ready heap at t=50.5 and must be skipped (epoch
  // guard), not grant the parked process a bogus second wake.
  Engine engine(2);
  Waitable ready;
  std::vector<double> resumes;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(0.5);
      p.notify_all(ready);
      p.advance(100.0);     // outlive the stale timeout entry
      p.notify_all(ready);  // the only legitimate second wake
    } else {
      EXPECT_TRUE(p.wait_for(ready, 50.0));
      resumes.push_back(p.now());
      p.wait(ready);  // park again; only a real notify may wake us
      resumes.push_back(p.now());
    }
  });
  ASSERT_EQ(resumes.size(), 2u);
  EXPECT_DOUBLE_EQ(resumes[0], 0.5);
  EXPECT_DOUBLE_EQ(resumes[1], 100.5);  // not 50.5: stale entry ignored
}

// Order in which four processes (all scheduled at t=0) first run,
// under a given same-time tie-break salt.
std::vector<int> start_order(std::uint64_t salt) {
  Engine engine(4);
  engine.set_tiebreak_salt(salt);
  std::vector<int> order;
  engine.run([&order](Process& p) { order.push_back(p.index()); });
  return order;
}

TEST(Engine, TiebreakSaltZeroKeepsFifoOrderAndIsDeterministic) {
  EXPECT_EQ(start_order(0), (std::vector<int>{0, 1, 2, 3}));
  for (const std::uint64_t salt : {1ULL, 7ULL, 1234567ULL}) {
    EXPECT_EQ(start_order(salt), start_order(salt)) << "salt " << salt;
  }
}

TEST(Engine, SomeSaltPerturbsSameTimeOrdering) {
  // The salts exist to flush order-dependence out of same-time events;
  // at least one small salt must produce a non-FIFO start order.
  const auto baseline = start_order(0);
  bool differs = false;
  for (std::uint64_t salt = 1; salt <= 8 && !differs; ++salt) {
    differs = start_order(salt) != baseline;
  }
  EXPECT_TRUE(differs);
}

TEST(Engine, DeadlockExplainerTextIsAppended) {
  Engine engine(2);
  engine.set_deadlock_explainer([] { return std::string("extra context"); });
  Waitable never;
  try {
    engine.run([&never](Process& p) { p.wait(never); });
    FAIL() << "expected Deadlock";
  } catch (const Deadlock& e) {
    EXPECT_NE(std::string(e.what()).find("extra context"), std::string::npos)
        << e.what();
  }
}

TEST(Engine, CaughtExceptionStateIsPerProcess) {
  // Both ranks block inside their catch handlers while the other one
  // catches its own exception; `throw;` must still rethrow the
  // handler's own exception, not the other rank's.
  Engine engine(2);
  std::vector<std::string> rethrown(2);
  engine.run([&rethrown](Process& p) {
    const std::string mine = "rank " + std::to_string(p.index());
    try {
      try {
        throw std::runtime_error(mine);
      } catch (const std::runtime_error&) {
        for (int i = 0; i < 3; ++i) p.advance(1.0);  // handlers interleave
        throw;
      }
    } catch (const std::runtime_error& e) {
      rethrown[static_cast<std::size_t>(p.index())] = e.what();
    }
  });
  EXPECT_EQ(rethrown, (std::vector<std::string>{"rank 0", "rank 1"}));
}

TEST(Engine, UncaughtExceptionCountIsPerProcess) {
  // Rank 0 blocks in a destructor while an exception unwinds it; rank 1
  // runs meanwhile and must not see that exception in flight.
  struct BlocksWhileUnwinding {
    Process& p;
    std::vector<int>& seen;
    ~BlocksWhileUnwinding() {
      seen.push_back(std::uncaught_exceptions());
      p.advance(1.0);
      seen.push_back(std::uncaught_exceptions());
    }
  };
  Engine engine(2);
  std::vector<int> unwinding;
  std::vector<int> bystander;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      try {
        const BlocksWhileUnwinding guard{p, unwinding};
        throw 1;
      } catch (int) {
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        p.advance(0.4);
        bystander.push_back(std::uncaught_exceptions());
      }
    }
  });
  EXPECT_EQ(unwinding, (std::vector<int>{1, 1}));
  EXPECT_EQ(bystander, (std::vector<int>{0, 0, 0, 0}));
}

// Recurses @p depth frames of 64 KiB each, blocking at the bottom.
int deep_stack(Process& p, int depth) {
  volatile unsigned char frame[64 * 1024];
  for (std::size_t i = 0; i < sizeof frame; i += 4096) {
    frame[i] = static_cast<unsigned char>(depth);
  }
  if (depth == 0) {
    p.advance(1.0);
    return frame[0];
  }
  return deep_stack(p, depth - 1) + frame[sizeof frame - 4096];
}

TEST(Engine, ProcessBodiesGetLargeStacks) {
  // 32 frames x 64 KiB = 2 MiB of stack per rank, live across a block.
  Engine engine(2);
  std::vector<int> sums(2);
  const Time end = engine.run([&sums](Process& p) {
    sums[static_cast<std::size_t>(p.index())] = deep_stack(p, 31);
  });
  EXPECT_DOUBLE_EQ(end, 1.0);
  EXPECT_EQ(sums, (std::vector<int>{31 * 32 / 2, 31 * 32 / 2}));
}

TEST(Engine, RepeatedRunsReuseProcessStacks) {
  // Each run restarts every process at the top of the same stack, and
  // virtual time carries over from one run to the next.
  Engine engine(3);
  std::vector<std::vector<const void*>> frames(3);
  for (int run = 1; run <= 3; ++run) {
    const Time end = engine.run([&frames](Process& p) {
      frames[static_cast<std::size_t>(p.index())].push_back(
          __builtin_frame_address(0));
      p.advance(1.0);
    });
    EXPECT_DOUBLE_EQ(end, static_cast<double>(run));
  }
  for (const auto& f : frames) {
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], f[1]);
    EXPECT_EQ(f[1], f[2]);
  }
  EXPECT_NE(frames[0][0], frames[1][0]);
}

// Rounding mode as SSE arithmetic applies it (MXCSR): the last bits of
// 1/3 and -1/3 tell nearest, upward and downward apart.
int sse_rounding_mode() {
  volatile double one = 1.0;
  volatile double minus_one = -1.0;
  volatile double three = 3.0;
  const double third = one / three;
  const double minus_third = minus_one / three;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &third, sizeof bits);
  if ((bits & 1) == 0) return FE_UPWARD;  // 0x3fd5...556
  std::memcpy(&bits, &minus_third, sizeof bits);
  if ((bits & 1) == 0) return FE_DOWNWARD;  // 0xbfd5...556
  return FE_TONEAREST;
}

TEST(Engine, FloatingPointControlIsPerProcess) {
  // A switch saves the rounding mode with the rest of a process's
  // context: fegetround() reads the x87 control word, and the SSE
  // division reads MXCSR.
  Engine engine(2);
  std::vector<std::vector<int>> seen(2);
  engine.run([&seen](Process& p) {
    auto& mine = seen[static_cast<std::size_t>(p.index())];
    const auto observe = [&mine] {
      mine.push_back(fegetround());
      mine.push_back(sse_rounding_mode());
    };
    if (p.index() == 0) {
      fesetround(FE_UPWARD);
      p.advance(1.0);  // rank 1 runs meanwhile
      observe();
    } else {
      observe();
      fesetround(FE_DOWNWARD);
      p.advance(2.0);  // rank 0 resumes and finishes meanwhile
      observe();
    }
  });
  const int host = fegetround();
  const int host_sse = sse_rounding_mode();
  fesetround(FE_TONEAREST);  // whatever the outcome, for later tests
  EXPECT_EQ(seen[0], (std::vector<int>{FE_UPWARD, FE_UPWARD}));
  EXPECT_EQ(seen[1], (std::vector<int>{FE_TONEAREST, FE_TONEAREST,
                                       FE_DOWNWARD, FE_DOWNWARD}));
  EXPECT_EQ(host, FE_TONEAREST);
  EXPECT_EQ(host_sse, FE_TONEAREST);
}

[[gnu::noinline]] std::uint64_t mix(std::uint64_t acc, std::uint64_t salt) {
  acc ^= salt + 0x9e3779b97f4a7c15ULL;
  return (acc ^ (acc >> 29)) * 0xbf58476d1ce4e5b9ULL;
}

// Eight accumulators, more than there are callee-saved registers, live
// across 1,000 blocking calls when @p p is set (none when it is null).
// The counter stays in memory, so a lost register corrupts a result
// instead of the loop bound.
std::array<std::uint64_t, 8> accumulate(Process* p, std::uint64_t seed) {
  std::uint64_t a0 = seed, a1 = seed + 1, a2 = seed + 2, a3 = seed + 3;
  std::uint64_t a4 = seed + 4, a5 = seed + 5, a6 = seed + 6, a7 = seed + 7;
  volatile int round = 0;
  while (round < 1000) {
    a0 = mix(a0, a7);
    a1 = mix(a1, a0);
    a2 = mix(a2, a1);
    a3 = mix(a3, a2);
    a4 = mix(a4, a3);
    a5 = mix(a5, a4);
    a6 = mix(a6, a5);
    a7 = mix(a7, a6);
    if (p != nullptr && round % 2 == 0) {
      p->advance(1e-3 * static_cast<double>(p->index() + 1));
    } else if (p != nullptr) {
      p->yield();
    }
    round = round + 1;
  }
  return {a0, a1, a2, a3, a4, a5, a6, a7};
}

TEST(Engine, CalleeSavedRegistersSurviveSwitches) {
  // Four processes interleave by their distinct advance steps, so each
  // block switches to another process whose values sit in the same
  // registers.
  Engine engine(4);
  std::vector<std::array<std::uint64_t, 8>> got(4);
  engine.run([&got](Process& p) {
    const auto index = static_cast<std::size_t>(p.index());
    got[index] = accumulate(&p, 100 * index);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], accumulate(nullptr, 100 * i)) << "process " << i;
  }
}

TEST(Engine, ThrowingDeadlockExplainerIsSwallowed) {
  // A broken explainer must not mask the Deadlock report itself.
  Engine engine(1);
  engine.set_deadlock_explainer(
      []() -> std::string { throw std::runtime_error("broken explainer"); });
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) { p.wait(never); }), Deadlock);
}

}  // namespace
}  // namespace emc::sim
