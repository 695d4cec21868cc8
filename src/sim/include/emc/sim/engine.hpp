// Virtual-time discrete-event engine with cooperative processes.
//
// Each simulated process (an MPI rank in this project) is a fiber with
// its own stack, all on the host thread that called Engine::run, so
// EXACTLY ONE process executes at any instant: whenever it blocks
// (advance / wait), the scheduler switches straight to the ready
// process with the smallest virtual wake-up time. This gives
//   * deterministic virtual-time semantics independent of host core
//     count (the build host may have a single core; the simulated
//     cluster can have hundreds), and
//   * clean wall-clock measurement: a closure timed on the host (see
//     mpi::Comm::charge) runs without interference from other
//     simulated ranks.
//
// The model is sequential DES with fibers as continuations — the same
// execution style SimGrid's SMPI uses for its actor contexts.
//
// On x86-64 a switch is register-only: it pushes the callee-saved
// registers, MXCSR and the x87 control word on the outgoing stack and
// pops them from the incoming one. glibc's swapcontext also saves and
// restores the signal mask, one rt_sigprocmask syscall per switch; the
// register switch drops it, and a handoff between two processes fell
// from ~310-360 ns to ~46-52 ns (bench_gbench_engine, 4-vCPU x86-64,
// gcc 12). AddressSanitizer builds and other architectures keep the
// portable ucontext switch, which the sanitize preset's test run covers.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

namespace emc::sim {

/// Virtual time in seconds.
using Time = double;

class Engine;
class Process;
struct Fiber;  // a process's host context and stack (engine.cpp)

/// Thrown inside process bodies when the simulation is being torn
/// down after another process failed; unwinds the process.
struct Aborted : std::runtime_error {
  Aborted() : std::runtime_error("simulation aborted") {}
};

/// Thrown by the engine when no process can ever run again
/// (all blocked on conditions, none scheduled).
struct Deadlock : std::runtime_error {
  explicit Deadlock(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown inside a process the first time it would run at or
/// after its armed kill time (Engine::set_kill_time) — the rank-crash
/// fault primitive. Deliberately NOT derived from std::exception:
/// application-level `catch (const std::exception&)` recovery must not
/// absorb a crash; only the world-level harness catches it and retires
/// the rank.
struct Killed {
  int rank = -1;
  Time at = 0.0;
};

/// Intrusive wait queue. Processes block on it via Process::wait and
/// are released by Process::notify_one/notify_all. No payload: the
/// protected state lives in the caller (engine serialization makes
/// unsynchronized access safe).
class Waitable {
 public:
  Waitable() = default;
  Waitable(const Waitable&) = delete;
  Waitable& operator=(const Waitable&) = delete;

 private:
  friend class Engine;
  std::vector<Process*> waiters_;
};

/// Handle a process body uses to interact with virtual time.
/// Only valid inside its own body, during Engine::run.
class Process {
 public:
  ~Process();
  [[nodiscard]] int index() const noexcept { return index_; }

  /// Current virtual time.
  [[nodiscard]] Time now() const noexcept;

  /// Consumes @p dt seconds of virtual time (non-preemptible compute).
  /// Negative or zero dt is a no-op.
  void advance(Time dt);

  /// Blocks until another process calls notify on @p w.
  void wait(Waitable& w);

  /// Blocks until another process calls notify on @p w or @p timeout
  /// virtual seconds elapse, whichever comes first. Returns true when
  /// notified, false on timeout (the process is deregistered from the
  /// waitable before returning, so a later notify cannot touch it).
  bool wait_for(Waitable& w, Time timeout);

  /// Releases one / all waiters of @p w at the current virtual time.
  void notify_one(Waitable& w);
  void notify_all(Waitable& w);

  /// Yields without consuming time (reschedules at `now`); lets other
  /// processes scheduled at the same instant run. Rarely needed.
  void yield();

 private:
  friend class Engine;
  Process(Engine& engine, int index);

  Engine* engine_;
  int index_;
  std::unique_ptr<Fiber> fiber_;
  bool done_ = false;
  /// Bumped every time the process is granted the execution token;
  /// heap entries carrying an older epoch are stale (e.g. the unused
  /// timeout wake-up of a wait_for that was notified first).
  std::uint64_t wake_epoch_ = 0;
  /// Virtual time at which this process is permanently killed
  /// (infinity = never). See Engine::set_kill_time.
  Time kill_at_ = std::numeric_limits<Time>::infinity();
};

/// The simulation engine. Construct with the number of processes,
/// then call run() with the body each process executes.
class Engine {
 public:
  explicit Engine(int num_processes);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(procs_.size());
  }

  /// Runs every process body to completion; returns the final virtual
  /// time. Rethrows the first exception a process body threw.
  /// May be called repeatedly; virtual time continues from the last run.
  Time run(const std::function<void(Process&)>& body);

  /// Virtual clock (meaningful during and after run()).
  [[nodiscard]] Time now() const noexcept { return clock_; }

  /// Total scheduling events processed since construction (every
  /// wake/advance enqueued on the ready heap). The benchmark
  /// trajectory layer divides this by host wall-clock to report the
  /// engine's events-per-second as a host-performance metric.
  [[nodiscard]] std::uint64_t scheduled_events() const noexcept {
    return seq_;
  }

  /// Perturbs the tie-break order of events scheduled at the same
  /// virtual time: 0 (default) keeps FIFO scheduling order; any other
  /// value orders same-time events by a seeded bijective mix of the
  /// scheduling sequence number. Each salt is fully deterministic —
  /// the verification layer reruns programs under several salts to
  /// flush schedule-dependent message matches. Takes effect for
  /// events scheduled after the call; set it before run().
  void set_tiebreak_salt(std::uint64_t salt) noexcept {
    tiebreak_salt_ = salt;
  }
  [[nodiscard]] std::uint64_t tiebreak_salt() const noexcept {
    return tiebreak_salt_;
  }

  /// Installs a callback invoked when the engine detects a global
  /// deadlock (every live process parked on a Waitable, empty event
  /// queue); its return value is appended to the sim::Deadlock
  /// message. Runs inside the last process to block: it must not
  /// call back into this engine's scheduling API (reading
  /// now()/size() is fine). Exceptions it throws are swallowed.
  void set_deadlock_explainer(std::function<std::string()> explainer) {
    deadlock_explainer_ = std::move(explainer);
  }

  /// Arms a permanent crash of process @p index: the first time that
  /// process would run at or after virtual time @p at, sim::Killed is
  /// thrown in it instead (compute that would cross the kill
  /// time is capped at it, and a parked process is woken at the kill
  /// time to die). Pass infinity to disarm. Set before run(); kill
  /// times persist across runs until overwritten.
  void set_kill_time(int index, Time at) {
    procs_.at(static_cast<std::size_t>(index))->kill_at_ = at;
  }

  /// True once the current run began tearing down after an error or
  /// deadlock (process bodies unwind one by one from that point).
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

 private:
  friend class Process;

  struct HeapEntry {
    Time at;
    std::uint64_t order;  ///< seq, or its salted mix (tie-break key)
    Process* proc;
    std::uint64_t epoch;  ///< proc->wake_epoch_ at schedule time
    bool operator>(const HeapEntry& o) const noexcept {
      return at != o.at ? at > o.at : order > o.order;
    }
  };

  void schedule(Process& p, Time at);
  /// Pops the next process to run (nullptr: back to run()); detects deadlock.
  Process* next_runnable();
  /// Runs others until @p self is picked again (never, if @p finished).
  void block(Process& self, bool finished);
  void check_abort() const;
  void check_kill(const Process& self) const;
  static void fiber_main(int index);

  void proc_advance(Process& self, Time dt);
  bool proc_wait_for(Process& self, Waitable& w, Time timeout);
  void proc_notify(Waitable& w, bool all);

  std::vector<std::unique_ptr<Process>> procs_;
  std::unique_ptr<Fiber> host_;  ///< context of the caller of run()
  const std::function<void(Process&)>* body_ = nullptr;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      ready_;
  Time clock_ = 0.0;
  std::uint64_t seq_ = 0;
  int unfinished_ = 0;
  bool aborted_ = false;
  std::uint64_t tiebreak_salt_ = 0;
  std::function<std::string()> deadlock_explainer_;
  std::exception_ptr first_error_;
};

}  // namespace emc::sim
