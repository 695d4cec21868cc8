#include "emc/sim/engine.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__)
// Register-only fiber switch for the x86-64 System V ABI. A switch saves
// what a call must preserve (rbp, rbx, r12-r15, MXCSR, the x87 control
// word) on the outgoing stack and resumes the incoming one; unlike
// glibc's swapcontext it leaves the signal mask alone, so it makes no
// rt_sigprocmask syscall.
extern "C" {
/// Pushes the callee-saved state, stores the stack pointer in *@p save,
/// then pops the state found at @p load and returns into that context.
[[gnu::visibility("hidden")]] void emc_sim_swap_stack(void** save, void* load);
/// Return address of a fiber's first frame: calls r13 with r12d as its
/// int argument. The callee never returns; unwinders stop here.
[[gnu::visibility("hidden")]] void emc_sim_fiber_entry();
}

asm(R"(
  .text
  .p2align 4
  .globl emc_sim_swap_stack
  .hidden emc_sim_swap_stack
  .type emc_sim_swap_stack, @function
emc_sim_swap_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size emc_sim_swap_stack, .-emc_sim_swap_stack

  .p2align 4
  .globl emc_sim_fiber_entry
  .hidden emc_sim_fiber_entry
  .type emc_sim_fiber_entry, @function
emc_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movl %r12d, %edi
  call *%r13
  ud2
  .cfi_endproc
  .size emc_sim_fiber_entry, .-emc_sim_fiber_entry
)");

namespace emc::sim {
namespace {
/// A switched-out context: its stack pointer, at the frame
/// emc_sim_swap_stack pushed.
using Context = void*;

/// What emc_sim_swap_stack leaves on a stack, lowest address first.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  std::uint64_t r15, r14;
  void (*r13)(int);  ///< first entry: the function emc_sim_fiber_entry calls
  std::uint64_t r12;  ///< first entry: its argument
  std::uint64_t rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) == 64);

/// Makes @p ctx start @p entry(@p arg) on the stack [@p stack, +@p size)
/// with the caller's floating-point control state, as getcontext would.
void prime_context(Context& ctx, char* stack, std::size_t size,
                   void (*entry)(int), int arg) {
  // The top is page-aligned, so after the first switch's ret rsp is
  // 16-aligned and entry starts at rsp = 8 (mod 16) like any callee.
  auto* frame = new (stack + size - sizeof(SwitchFrame)) SwitchFrame{};
  asm volatile("stmxcsr %0\n\tfnstcw %1"
               : "=m"(frame->mxcsr), "=m"(frame->x87_cw));
  frame->r13 = entry;
  frame->r12 = static_cast<std::uint32_t>(arg);
  frame->ret = &emc_sim_fiber_entry;
  ctx = frame;
}

void swap_context(Context& from, Context& to) {
  emc_sim_swap_stack(&from, to);
}
}  // namespace
}  // namespace emc::sim
#else
// Portable switch: glibc's ucontext, which AddressSanitizer also
// understands natively.
#include <ucontext.h>

namespace emc::sim {
namespace {
using Context = ucontext_t;

void prime_context(Context& ctx, char* stack, std::size_t size,
                   void (*entry)(int), int arg) {
  getcontext(&ctx);
  ctx.uc_stack.ss_sp = stack;
  ctx.uc_stack.ss_size = size;
  makecontext(&ctx, reinterpret_cast<void (*)()>(entry), 1, arg);
}

void swap_context(Context& from, Context& to) { swapcontext(&from, &to); }
}  // namespace
}  // namespace emc::sim
#endif

namespace emc::sim {

/// Host execution context of a process, or of the caller of run().
struct Fiber {
  // Every process stack is the 8 MiB a rank's host thread had, above a
  // guard page; MAP_NORESERVE makes only the pages a rank touches resident.
  static constexpr std::size_t kStackBytes = std::size_t{8} << 20;
  static inline const auto kGuardBytes =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // libstdc++'s per-thread exception state (abi::__cxa_eh_globals: caught
  // exceptions, uncaught count); each fiber keeps its own, swapped on switch.
  struct EhGlobals {
    void* caught;
    unsigned int uncaught;
  };

  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() { if (map != nullptr) munmap(map, kGuardBytes + kStackBytes); }

  Context ctx{};
  EhGlobals eh{};
  char* map = nullptr;  ///< guard page + stack; null for run()'s caller
  // AddressSanitizer's view of the stack.
  void* fake_stack = nullptr;
  const void* bottom = nullptr;
  std::size_t size = 0;
};

namespace {
// The engine inside run() on this thread: a fiber's entry gets only an int.
thread_local Engine* current = nullptr;

#ifdef __SANITIZE_ADDRESS__
thread_local Fiber* switched_from = nullptr;
void start_switch(Fiber& from, Fiber& to, bool from_done) {
  switched_from = &from;
  __sanitizer_start_switch_fiber(from_done ? nullptr : &from.fake_stack,
                                 to.bottom, to.size);
}
void landed(Fiber& self) {
  __sanitizer_finish_switch_fiber(self.fake_stack, &switched_from->bottom,
                                  &switched_from->size);
}
#else
void start_switch(Fiber&, Fiber&, bool) {}
void landed(Fiber&) {}
#endif

/// Moves the thread from @p from to @p to; returns once something
/// switches back. @p from_done: @p from has finished for good.
void switch_fiber(Fiber& from, Fiber& to, bool from_done) {
  auto* globals = abi::__cxa_get_globals();
  std::memcpy(&from.eh, globals, sizeof(Fiber::EhGlobals));
  std::memcpy(globals, &to.eh, sizeof(Fiber::EhGlobals));
  start_switch(from, to, from_done);
  swap_context(from.ctx, to.ctx);
  landed(from);
}

/// SplitMix64 finalizer: bijective, so distinct sequence numbers keep
/// distinct (but permuted) tie-break keys under any salt.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

// ---------------------------------------------------------------- Process

Process::Process(Engine& engine, int index)
    : engine_(&engine), index_(index), fiber_(std::make_unique<Fiber>()) {
  void* map = mmap(nullptr, Fiber::kGuardBytes + Fiber::kStackBytes,
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS |
                   MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  fiber_->map = static_cast<char*>(map);
  if (mprotect(map, Fiber::kGuardBytes, PROT_NONE) != 0) throw std::bad_alloc();
}

Process::~Process() = default;

Time Process::now() const noexcept { return engine_->now(); }

void Process::advance(Time dt) {
  if (dt > 0.0) engine_->proc_advance(*this, dt);
}

void Process::yield() { engine_->proc_advance(*this, 0.0); }

void Process::wait(Waitable& w) {
  (void)engine_->proc_wait_for(*this, w,
                               std::numeric_limits<Time>::infinity());
}

bool Process::wait_for(Waitable& w, Time timeout) {
  return engine_->proc_wait_for(*this, w, timeout);
}

void Process::notify_one(Waitable& w) { engine_->proc_notify(w, false); }

void Process::notify_all(Waitable& w) { engine_->proc_notify(w, true); }

// ----------------------------------------------------------------- Engine

Engine::Engine(int num_processes) : host_(std::make_unique<Fiber>()) {
  procs_.reserve(static_cast<std::size_t>(num_processes));
  for (int i = 0; i < num_processes; ++i) {
    procs_.emplace_back(std::unique_ptr<Process>(new Process(*this, i)));
  }
}

Engine::~Engine() = default;

void Engine::schedule(Process& p, Time at) {
  const std::uint64_t seq = seq_++;
  const std::uint64_t order =
      tiebreak_salt_ == 0 ? seq : mix64(seq ^ tiebreak_salt_);
  ready_.push(HeapEntry{std::max(at, clock_), order, &p, p.wake_epoch_});
}

void Engine::check_abort() const {
  if (aborted_) throw Aborted{};
}

void Engine::check_kill(const Process& self) const {
  if (clock_ >= self.kill_at_) throw Killed{self.index_, self.kill_at_};
}

Process* Engine::next_runnable() {
  while (!aborted_ && !ready_.empty()) {
    const HeapEntry next = ready_.top();
    ready_.pop();
    // Stale entries remain when a wait_for was both notified and
    // scheduled a timeout wake-up (the loser keeps the old epoch);
    // skip them and anything already finished.
    if (next.proc->done_ || next.epoch != next.proc->wake_epoch_) continue;
    clock_ = std::max(clock_, next.at);
    ++next.proc->wake_epoch_;
    return next.proc;
  }
  if (unfinished_ == 0) return nullptr;
  if (!aborted_) {
    // Every unfinished process is parked on a Waitable and nothing is
    // scheduled: nobody can ever make progress.
    std::string what =
        "simulation deadlock: " + std::to_string(unfinished_) +
        " process(es) blocked on conditions with an empty event queue";
    if (deadlock_explainer_) {
      // The explainer (the correctness verifier) reconstructs who
      // waits on what; every process is parked, so its state is
      // frozen. Failures in the explainer must not mask the deadlock.
      try {
        const std::string extra = deadlock_explainer_();
        if (!extra.empty()) what += "\n" + extra;
      } catch (...) {
      }
    }
    first_error_ = std::make_exception_ptr(Deadlock(what));
    aborted_ = true;
  }
  // Abort teardown: resume the unfinished processes one at a time; each
  // unwinds with Aborted and, when it finishes, resumes the next.
  for (auto& p : procs_) {
    if (!p->done_) return p.get();
  }
  return nullptr;
}

void Engine::block(Process& self, bool finished) {
  Process* next = next_runnable();
  if (next != &self) {
    switch_fiber(*self.fiber_, next != nullptr ? *next->fiber_ : *host_,
                 finished);
  }
  check_abort();
}

void Engine::fiber_main(int index) {
  Engine& e = *current;
  Process& self = *e.procs_[static_cast<std::size_t>(index)];
  landed(*self.fiber_);
  if (!e.aborted_) {
    try {
      (*e.body_)(self);
    } catch (const Aborted&) {
      // unwound by teardown; not an error in itself
    } catch (...) {
      if (!e.first_error_) e.first_error_ = std::current_exception();
      e.aborted_ = true;
    }
  }
  self.done_ = true;
  --e.unfinished_;
  e.block(self, true);  // never returns
}

void Engine::proc_advance(Process& self, Time dt) {
  check_abort();
  check_kill(self);
  // Compute that would cross the kill time is capped at it: the rank
  // dies at exactly kill_at_, not after finishing the burst.
  schedule(self, std::min(clock_ + std::max(dt, 0.0), self.kill_at_));
  block(self, false);
  check_kill(self);
}

bool Engine::proc_wait_for(Process& self, Waitable& w, Time timeout) {
  check_abort();
  check_kill(self);
  w.waiters_.push_back(&self);
  // Also schedule a timeout wake-up; whichever fires first wins and the
  // loser's entry goes stale via the epoch bump on grant. An earlier kill
  // time takes the slot instead: a doomed process never parks forever.
  const Time wake = std::min(clock_ + std::max(timeout, 0.0), self.kill_at_);
  if (wake != std::numeric_limits<Time>::infinity()) schedule(self, wake);
  block(self, false);
  const auto it = std::find(w.waiters_.begin(), w.waiters_.end(), &self);
  const bool notified = it == w.waiters_.end();  // a notify released us
  if (!notified) w.waiters_.erase(it);
  check_kill(self);
  return notified;
}

void Engine::proc_notify(Waitable& w, bool all) {
  check_abort();
  while (!w.waiters_.empty()) {
    Process* waiter = w.waiters_.front();
    w.waiters_.erase(w.waiters_.begin());
    schedule(*waiter, clock_);
    if (!all) break;
  }
  // The notifier keeps running; released waiters run once it blocks.
}

Time Engine::run(const std::function<void(Process&)>& body) {
  aborted_ = false;
  first_error_ = nullptr;
  unfinished_ = static_cast<int>(procs_.size());
  body_ = &body;
  for (auto& p : procs_) {
    // Every run restarts each fiber at the top of its own stack.
    Fiber& f = *p->fiber_;
    char* const stack = f.map + Fiber::kGuardBytes;
    f.bottom = stack;
    f.size = Fiber::kStackBytes;
    prime_context(f.ctx, stack, f.size, &Engine::fiber_main, p->index_);
    f.fake_stack = nullptr;
    p->done_ = false;
    schedule(*p, clock_);
  }

  Engine* const outer = std::exchange(current, this);
  if (Process* first = next_runnable()) {
    switch_fiber(*host_, *first->fiber_, false);
  }
  current = outer;

  // Drain any leftover heap entries from an aborted run.
  while (!ready_.empty()) ready_.pop();
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
  return clock_;
}

}  // namespace emc::sim
