#include "probe.hpp"

#include <sys/resource.h>
#include <time.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::hostbench {

namespace {

double crypto_seconds(const secure::SecureComm* secure) noexcept {
  if (secure == nullptr) return 0.0;
  const secure::CryptoCounters& c = secure->counters();
  return c.seal_seconds + c.open_seconds;
}

double seconds_since(SteadyClock::time_point origin,
                     SteadyClock::time_point t) noexcept {
  return std::chrono::duration<double>(t - origin).count();
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kMpi:
      return "mpi";
    case Layer::kSecureMpi:
      return "secure_mpi";
    case Layer::kKeys:
      return "keys";
  }
  return "?";
}

double thread_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostSpeed measure_host_speed() {
  HostSpeed speed;
  {
    constexpr int kRoundTrips = 4000;
    const auto t0 = SteadyClock::now();
    std::mutex mu;
    std::condition_variable cv;
    int turn = 0;
    const auto player = [&](int me) {
      for (int i = 0; i < kRoundTrips; ++i) {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return turn == me; });
        turn = 1 - me;
        cv.notify_all();
      }
    };
    std::thread a(player, 0);
    std::thread b(player, 1);
    a.join();
    b.join();
    speed.handoff = seconds_since(t0, SteadyClock::now());
  }
  {
    const auto t0 = SteadyClock::now();
    std::uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    speed.alu = seconds_since(t0, SteadyClock::now());
  }
  return speed;
}

double slowdown(const HostSpeed& speed, double handoff_share) noexcept {
  // The kernels' times on the calibration host in quiet periods (10th
  // percentile of 381 samples).
  constexpr double kHandoff = 0.0145;
  constexpr double kAlu = 0.027;
  return handoff_share * speed.handoff / kHandoff +
         (1.0 - handoff_share) * speed.alu / kAlu;
}

ProbeTotals& ProbeTotals::operator+=(const ProbeTotals& o) noexcept {
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    layers[i].calls += o.layers[i].calls;
    layers[i].cpu += o.layers[i].cpu;
    layers[i].crypto += o.layers[i].crypto;
  }
  body_cpu += o.body_cpu;
  body_sys += o.body_sys;
  voluntary_switches += o.voluntary_switches;
  involuntary_switches += o.involuntary_switches;
  return *this;
}

void RankProbe::body_begin() noexcept {
  if (!enabled) return;
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  sys0_ = static_cast<double>(ru.ru_stime.tv_sec) +
          static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  vol0_ = ru.ru_nvcsw;
  invol0_ = ru.ru_nivcsw;
  cpu0_ = thread_cpu_seconds();
}

void RankProbe::body_end() noexcept {
  if (!enabled) return;
  totals.body_cpu += thread_cpu_seconds() - cpu0_;
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  totals.body_sys += static_cast<double>(ru.ru_stime.tv_sec) +
                     static_cast<double>(ru.ru_stime.tv_usec) * 1e-6 - sys0_;
  totals.voluntary_switches += ru.ru_nvcsw - vol0_;
  totals.involuntary_switches += ru.ru_nivcsw - invol0_;
}

CallScope::CallScope(RankProbe& probe, Layer layer, const char* name,
                     int rank, const secure::SecureComm* secure) noexcept
    : probe_(&probe), layer_(layer), name_(name), rank_(rank), secure_(secure) {
  if (!probe.enabled) return;
  crypto0_ = crypto_seconds(secure);
  if (probe.spans != nullptr) wall0_ = SteadyClock::now();
  cpu0_ = thread_cpu_seconds();
}

CallScope::~CallScope() {
  if (!probe_->enabled) return;
  const double cpu = thread_cpu_seconds() - cpu0_;
  const double crypto = crypto_seconds(secure_) - crypto0_;
  LayerTotals& t = probe_->totals.layers[static_cast<std::size_t>(layer_)];
  ++t.calls;
  t.cpu += cpu;
  t.crypto += crypto;
  if (probe_->spans != nullptr) {
    probe_->spans->push_back({name_, layer_, rank_,
                              seconds_since(probe_->origin, wall0_),
                              seconds_since(probe_->origin, SteadyClock::now()),
                              cpu, crypto});
  }
}

}  // namespace emc::hostbench
