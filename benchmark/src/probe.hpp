// Outside-in host profile: readings the benchmark takes around the
// public library calls it makes, never inside the library.
//
// The engine runs exactly one rank thread at a time, so a blocking
// call's wall span also covers other ranks' work while its thread-CPU
// span is the caller's own work (the call itself plus the engine
// handoff code that runs on the calling thread).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace emc::secure {
class SecureComm;
}  // namespace emc::secure

namespace emc::hostbench {

using SteadyClock = std::chrono::steady_clock;

/// The library layers the benchmark calls into directly.
enum class Layer : std::uint8_t { kMpi, kSecureMpi, kKeys };
inline constexpr std::size_t kNumLayers = 3;

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// CPU seconds the calling thread has consumed (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_seconds() noexcept;

/// One public library call as seen from outside.
struct Span {
  const char* name = "";
  Layer layer = Layer::kMpi;
  int rank = 0;
  double begin = 0.0;   ///< wall seconds since the probe origin
  double end = 0.0;
  double cpu = 0.0;     ///< calling thread's CPU seconds inside the call
  double crypto = 0.0;  ///< host AES-GCM seconds SecureComm counted in it
  int job = -1;         ///< the job the call belongs to (set by the caller)
};

struct LayerTotals {
  std::uint64_t calls = 0;
  double cpu = 0.0;
  double crypto = 0.0;
};

/// Host readings summed over rank threads.
struct ProbeTotals {
  std::array<LayerTotals, kNumLayers> layers{};
  double body_cpu = 0.0;  ///< thread CPU over the whole rank bodies
  double body_sys = 0.0;  ///< of which in the kernel (futex handoff)
  std::int64_t voluntary_switches = 0;
  std::int64_t involuntary_switches = 0;

  ProbeTotals& operator+=(const ProbeTotals& o) noexcept;
};

/// Readings of one rank thread over one job. Only that rank's thread
/// writes it, and the job reads it after World::run joined the thread.
/// Disabled probes (the untraced pass) take no readings at all.
struct RankProbe {
  bool enabled = false;
  std::vector<Span>* spans = nullptr;  ///< keeps every span when set
  SteadyClock::time_point origin{};
  ProbeTotals totals;

  void body_begin() noexcept;
  void body_end() noexcept;

 private:
  double cpu0_ = 0.0;
  double sys0_ = 0.0;
  std::int64_t vol0_ = 0;
  std::int64_t invol0_ = 0;
};

/// Times one call: thread CPU, wall span, and the AES-GCM host seconds
/// @p secure's counters grew by (its own crypto, subtracted to get the
/// secure layer's self time).
class CallScope {
 public:
  CallScope(RankProbe& probe, Layer layer, const char* name, int rank,
            const secure::SecureComm* secure) noexcept;
  ~CallScope();
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  RankProbe* probe_;
  Layer layer_;
  const char* name_;
  int rank_;
  const secure::SecureComm* secure_;
  double cpu0_ = 0.0;
  double crypto0_ = 0.0;
  SteadyClock::time_point wall0_{};
};

/// Library-independent reference kernels, timed next to every set-up
/// and round. On a shared host other tenants slow this one down by up
/// to 1.7x for minutes at a time; dividing host times by the kernels'
/// slowdown cancels most of that drift, while a change to the library
/// moves only the measured work, never the kernels.
struct HostSpeed {
  double handoff = 0.0;  ///< mutex/condvar ping-pong between two threads
  double alu = 0.0;      ///< a chain of dependent multiply-adds
};

[[nodiscard]] HostSpeed measure_host_speed();

/// How many times slower than the calibration host (4-vCPU 2.1 GHz Xeon
/// VM) this host runs work whose host time is @p handoff_share thread
/// handoffs and the rest computation.
[[nodiscard]] double slowdown(const HostSpeed& speed,
                              double handoff_share) noexcept;

template <class F>
decltype(auto) timed(RankProbe& probe, Layer layer, const char* name,
                     int rank, F&& call,
                     const secure::SecureComm* secure = nullptr) {
  const CallScope scope(probe, layer, name, rank, secure);
  return std::forward<F>(call)();
}

}  // namespace emc::hostbench
