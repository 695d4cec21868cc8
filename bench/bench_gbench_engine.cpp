// Google-benchmark microbenchmarks of the discrete-event engine's host
// cost: a handoff between two processes (one fiber switch each way)
// and an advance that needs no switch (the ready heap alone).
#include <benchmark/benchmark.h>

#include "emc/sim/engine.hpp"

namespace {

using emc::sim::Engine;
using emc::sim::Process;
using emc::sim::Waitable;

void BM_Handoff(benchmark::State& state) {
  // Process 0 runs the timing loop; each iteration passes the turn to
  // process 1 and waits until it is passed back: two handoffs.
  Engine engine(2);
  Waitable turn_changed;
  int turn = 0;
  bool done = false;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      for (auto _ : state) {
        turn = 1;
        p.notify_one(turn_changed);
        while (turn != 0) p.wait(turn_changed);
      }
      done = true;
      p.notify_one(turn_changed);
    } else {
      while (true) {
        while (turn != 1 && !done) p.wait(turn_changed);
        if (done) break;
        turn = 0;
        p.notify_one(turn_changed);
      }
    }
  });
  state.counters["handoff"] = benchmark::Counter(
      2.0, benchmark::Counter::kIsIterationInvariantRate |
               benchmark::Counter::kInvert);
}
BENCHMARK(BM_Handoff);

void BM_AdvanceSelf(benchmark::State& state) {
  // The only process is always the next one runnable: no switch.
  Engine engine(1);
  engine.run([&state](Process& p) {
    for (auto _ : state) p.advance(1e-9);
  });
}
BENCHMARK(BM_AdvanceSelf);

}  // namespace

BENCHMARK_MAIN();
