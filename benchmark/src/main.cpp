// emc_bench: host-side benchmark of the emc library (benchmark/README.md).
//
//   emc_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--trace-dir=DIR] [--cpu=N] [--smoke]
//   emc_bench --write-reference
//
// One run pins itself to one CPU, sets the workload up several times
// (setup_s is the median), then runs rounds of the workload's fixed job
// list until --seconds have passed and reports medians over the rounds.
// Every job is checked against the replay and reference oracle. The
// last line of stdout is one JSON object: the verdict, and the
// end-to-end metrics, or with --trace=1 the per-layer metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "emc/crypto/aead.hpp"
#include "emc/crypto/provider.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace emc;
using namespace emc::hostbench;

#if !defined(NDEBUG) || EMC_BENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kUnfitBuild = true;
#else
constexpr bool kUnfitBuild = false;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

constexpr int kSetups = 5;    // setup_s is the median of this many set-ups
constexpr int kSpanJobs = 20; // jobs whose host spans are written out
constexpr std::size_t kMaxReportedFailures = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = "bench-trace";
  int cpu = -1;
  bool smoke = false;  ///< one set-up and one job per cell
  bool write_reference = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "emc_bench: " << why << "\n"
            << "usage: emc_bench --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace=0|1] [--trace-dir=DIR] [--cpu=N] [--smoke]\n"
            << "       emc_bench --write-reference\n"
            << "workloads:";
  for (const std::string& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used == text.size() && text[0] != '-') return v;
  } catch (const std::exception&) {
  }
  usage(key + " needs a non-negative integer, got '" + text + "'");
}

double parse_seconds(const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used == text.size() && v > 0.0 && std::isfinite(v)) return v;
  } catch (const std::exception&) {
  }
  usage("--seconds needs a positive number, got '" + text + "'");
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (arg == "--write-reference") {
      o.write_reference = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos || eq + 1 == arg.size()) {
      usage("bad argument '" + arg + "'");
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = parse_u64(key, value);
    } else if (key == "--seconds") {
      o.seconds = parse_seconds(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--trace-dir") {
      o.trace_dir = value;
    } else if (key == "--cpu") {
      o.cpu = static_cast<int>(std::min<std::uint64_t>(parse_u64(key, value), CPU_SETSIZE));
    } else {
      usage("unknown option '" + key + "'");
    }
  }
  if (!o.write_reference &&
      std::find(workload_names().begin(), workload_names().end(), o.workload) ==
          workload_names().end()) {
    usage("unknown or missing --workload '" + o.workload + "'");
  }
  return o;
}

struct Pin {
  int cpu = -1;
  int nproc = 0;
};

/// Pins the process (every rank thread inherits it) to one CPU: by
/// default the highest-numbered one it may run on.
Pin pin_to_one_cpu(int requested) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    std::cerr << "emc_bench: sched_getaffinity failed\n";
    std::exit(2);
  }
  Pin pin;
  pin.nproc = CPU_COUNT(&allowed);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(static_cast<std::size_t>(c), &allowed)) pin.cpu = c;
  }
  if (requested >= 0) {
    if (requested >= CPU_SETSIZE ||
        !CPU_ISSET(static_cast<std::size_t>(requested), &allowed)) {
      usage("--cpu=" + std::to_string(requested) +
            " is not in this process's affinity mask");
    }
    pin.cpu = requested;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(pin.cpu), &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    std::cerr << "emc_bench: cannot pin to CPU " << pin.cpu << "\n";
    std::exit(2);
  }
  return pin;
}

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The correctness oracle: a job fails when it threw (a payload check
/// included), when it differs from the first job of its cell in this
/// run, or, with a reference loaded, from the cell's reference line.
class Oracle {
 public:
  explicit Oracle(const std::string& workload) : workload_(workload) {}

  /// Loads the reference lines; every job must then match its cell's.
  void require_reference(const std::string& path) {
    checking_reference_ = true;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      reference_.emplace(line.substr(0, line.find(' ')), line);
    }
  }

  void check(const Cell& cell, const JobResult& r) {
    ++attempted_;
    std::string why = r.error;
    if (why.empty()) {
      const std::string line = oracle_line(workload_, cell, r);
      const std::string id = line.substr(0, line.find(' '));
      const auto [first, inserted] = first_.emplace(id, line);
      if (!inserted && first->second != line) {
        why = "does not replay its first run:\n    first " + first->second +
              "\n    now   " + line;
      } else if (checking_reference_) {
        const auto ref = reference_.find(id);
        if (ref == reference_.end()) {
          why = "has no line in the reference";
        } else if (ref->second != line) {
          why = "differs from the reference:\n    reference " + ref->second +
                "\n    now       " + line;
        }
      }
    }
    if (why.empty()) return;
    if (failed_++ < kMaxReportedFailures) {
      std::cerr << "emc_bench: job " << workload_ << "/" << cell.name
                << " failed: " << why << "\n";
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::string workload_;
  bool checking_reference_ = false;
  std::map<std::string, std::string> reference_;
  std::map<std::string, std::string> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One pass over the workload's fixed job list.
struct Round {
  double wall = 0.0;
  double slowdown = 1.0;  ///< of the host-speed readings around it
  double main_cpu = 0.0;  ///< world construction, thread spawn/join, checks
  Counts counts;
  double crypto_host_s = 0.0;
  HostReadings host;
};

Round run_round(const Workload& w, bool traced, std::vector<Span>* spans,
                Oracle& oracle) {
  Round round;
  JobOptions options;
  options.traced = traced;
  options.origin = SteadyClock::now();
  const double cpu0 = thread_cpu_seconds();
  int job = 0;
  for (int rep = 0; rep < w.jobs_per_cell; ++rep) {
    for (const Cell& cell : w.cells) {
      const bool keep = spans != nullptr && job < kSpanJobs;
      options.spans = keep ? spans : nullptr;
      const std::size_t first_span = keep ? spans->size() : 0;
      const double begin = seconds_since(options.origin);
      const JobResult r = cell.run(options);
      if (keep) {
        for (std::size_t i = first_span; i < spans->size(); ++i) (*spans)[i].job = job;
        spans->push_back({cell.name.c_str(), Layer::kMpi, -1, begin,
                          seconds_since(options.origin), 0.0, 0.0, job});
      }
      oracle.check(cell, r);
      round.counts += r.counts;
      round.crypto_host_s += r.crypto_host_s;
      round.host += r.host;
      ++job;
    }
  }
  round.wall = seconds_since(options.origin);
  round.main_cpu = thread_cpu_seconds() - cpu0;
  return round;
}

/// Standalone AES-GCM seal+open throughput at 64 KiB (MB/s of
/// plaintext), the rate the pipelined chunks' untimed crypto is
/// charged at in crypto.share.
double gcm_mb_per_s() {
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr int kBatch = 32;
  const crypto::AeadKeyPtr key =
      crypto::make_aes_gcm("boringssl-sim", crypto::demo_key(32));
  const Bytes pt(kBytes, 0x5a);
  const Bytes nonce(crypto::kGcmNonceBytes, 0x01);
  Bytes wire(kBytes + crypto::kGcmTagBytes);
  Bytes back(kBytes);
  bool ok = true;
  std::vector<double> rates;
  for (int batch = 0; batch < 10; ++batch) {
    const auto t0 = SteadyClock::now();
    for (int i = 0; i < kBatch; ++i) {
      key->seal(nonce, {}, pt, wire);
      ok = key->open(nonce, {}, wire, back) && ok;
    }
    if (batch > 0) {  // batch 0 warms up
      rates.push_back(static_cast<double>(kBytes) * kBatch / seconds_since(t0) / 1e6);
    }
  }
  if (!ok || back != pt) throw std::runtime_error("standalone AES-GCM roundtrip failed");
  return median(rates);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

/// High-water resident set of this program image (VmHWM). Unlike
/// ru_maxrss it does not carry over the peak of a process that exec'd
/// into this one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Host times here are scaled to the calibration host's speed (each
/// divided by the slowdown measured next to it).
std::vector<Metric> end_to_end(const std::vector<double>& setups,
                               const std::vector<Round>& rounds) {
  std::vector<double> walls, ops, mbps;
  for (const Round& r : rounds) {
    const double wall = r.wall / r.slowdown;
    walls.push_back(wall);
    ops.push_back(static_cast<double>(r.counts.ops) / wall);
    mbps.push_back(static_cast<double>(r.counts.payload_bytes) / wall / 1e6);
  }
  return {{"setup_s", median(setups), "s"},
          {"wall_s", median(walls), "s"},
          {"ops_per_s", median(ops), "op/s"},
          {"payload_mb_per_s", median(mbps), "MB/s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

/// Per-layer metrics from paired untraced/traced rounds of the same
/// job list. Counts are per round (identical in every round); host
/// times are as measured (not scaled), medians over rounds or means per
/// call.
std::vector<Metric> per_layer(const std::vector<Round>& plain,
                              const std::vector<Round>& traced, double gcm) {
  const Counts& c = traced.front().counts;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> walls, slowdowns, crypto_s, switches, preemptions, kernel,
      idle, handshake, overhead;
  ProbeTotals probe;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Round& t = traced[i];
    const ProbeTotals& p = t.host.probe;
    walls.push_back(plain[i].wall);
    slowdowns.push_back(plain[i].slowdown);
    crypto_s.push_back(plain[i].crypto_host_s);
    switches.push_back(static_cast<double>(p.voluntary_switches));
    preemptions.push_back(static_cast<double>(p.involuntary_switches));
    kernel.push_back(p.body_sys);
    idle.push_back(t.wall - p.body_cpu - t.main_cpu);
    handshake.push_back(p.layers[static_cast<std::size_t>(Layer::kKeys)].cpu / t.wall);
    overhead.push_back(t.wall - plain[i].wall);
    probe += p;
  }
  const double wall = median(walls);
  const double crypto_host = median(crypto_s);
  // SecureComm does not time the AES-GCM of pipelined chunks; estimate
  // it from the standalone seal+open rate.
  const double chunk_crypto = count(c.chunk_bytes) / (gcm * 1e6);
  const auto per_call_us = [&](Layer layer, double untimed_crypto) {
    const LayerTotals& l = probe.layers[static_cast<std::size_t>(layer)];
    if (l.calls == 0) return 0.0;
    return (l.cpu - l.crypto - untimed_crypto) / count(l.calls) * 1e6;
  };
  std::vector<Metric> m = {
      {"host.wall_s", wall, "s"},
      {"host.slowdown", median(slowdowns), "ratio"},
      {"sim.events", count(c.events), "count"},
      {"sim.events_per_s", count(c.events) / wall, "1/s"},
      {"sim.ctx_switches", median(switches), "count"},
      {"sim.preemptions", median(preemptions), "count"},
      {"sim.kernel_s", median(kernel), "s"},
      {"sim.idle_s", median(idle), "s"},
      {"mpi.call_cpu_us", per_call_us(Layer::kMpi, 0.0), "us"},
      {"secure_mpi.call_self_us",
       per_call_us(Layer::kSecureMpi, chunk_crypto * count(traced.size())), "us"},
      {"secure_mpi.nacks", count(c.nacks), "count"},
      {"secure_mpi.duplicates_suppressed", count(c.duplicates), "count"},
      {"secure_mpi.replays_rejected", count(c.replays), "count"},
      {"crypto.seal_ops", count(c.seals), "count"},
      {"crypto.open_ops", count(c.opens), "count"},
      {"crypto.seal_bytes", count(c.seal_bytes), "bytes"},
      {"crypto.open_bytes", count(c.open_bytes), "bytes"},
      {"crypto.chunks", count(c.chunks), "count"},
      {"crypto.host_s", crypto_host, "s"},
      {"crypto.gcm_mb_s", gcm, "MB/s"},
      {"crypto.share", (crypto_host + chunk_crypto) / wall, "ratio"},
      {"netsim.dropped", count(c.dropped), "count"},
      {"netsim.delayed", count(c.delayed), "count"},
      {"netsim.relay_exposures", count(c.exposures), "count"},
      {"reliable.data_frames", count(c.data_frames), "count"},
      {"reliable.retransmits", count(c.retransmits), "count"},
      {"reliable.spurious_retransmits", count(c.spurious), "count"},
      {"reliable.rtt_samples", count(c.rtt_samples), "count"},
      {"reliable.cwnd_halvings", count(c.cwnd_halvings), "count"},
      {"reliable.window_stalls", count(c.window_stalls), "count"},
      {"reliable.useful_ratio",
       c.data_frames == 0 ? 0.0 : count(c.deliveries) / count(c.data_frames), "ratio"},
      {"keys.handshake_attempts", count(c.handshake_attempts), "count"},
      {"keys.handshake_share", median(handshake), "ratio"},
      {"keys.ratchets", count(c.ratchets), "count"},
      {"keys.catchup_opens", count(c.catchup_opens), "count"},
      {"keys.cache_hits", count(c.cache_hits), "count"},
      {"keys.cache_misses", count(c.cache_misses), "count"},
      {"trace.overhead_s", median(overhead), "s"},
  };
  const HostReadings& h = traced.front().host;
  const auto share = [&](double seconds) {
    return h.virt_total > 0.0 ? seconds / h.virt_total : 0.0;
  };
  for (std::size_t k = 0; k < trace::kNumCategories; ++k) {
    const auto category = static_cast<trace::Category>(k);
    m.push_back({std::string("trace.virt.") + trace::category_name(category) + "_share",
                 share(h.virt[k]), "ratio"});
  }
  m.push_back({"trace.virt.idle_share", share(h.virt_idle), "ratio"});
  return m;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name << "\", \"cat\": \""
        << (s.rank < 0 ? "job" : layer_name(s.layer))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.rank < 0 ? 100 : s.rank)
        << ", \"ts\": " << json_number(s.begin * 1e6)
        << ", \"dur\": " << json_number((s.end - s.begin) * 1e6)
        << ", \"args\": {\"job\": " << s.job << ", \"cpu_us\": " << json_number(s.cpu * 1e6)
        << ", \"crypto_us\": " << json_number(s.crypto * 1e6) << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int write_reference() {
  std::ostringstream out;
  out << "# emc_bench oracle at --seed=1: one line per cell (virtual end time "
         "as hexfloat, exact counters). Regenerate with emc_bench "
         "--write-reference.\n";
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 1);
    for (const Cell& cell : w.cells) {
      const JobResult a = cell.run({});
      const JobResult b = cell.run({});
      const std::string line = oracle_line(name, cell, a);
      if (!a.error.empty() || !b.error.empty() || oracle_line(name, cell, b) != line) {
        std::cerr << "emc_bench: " << name << "/" << cell.name
                  << " is not reproducible: " << a.error << b.error << "\n";
        return 1;
      }
      out << line << "\n";
    }
  }
  std::filesystem::create_directories(
      std::filesystem::path(EMC_BENCH_REFERENCE).parent_path());
  std::ofstream file(EMC_BENCH_REFERENCE);
  file << out.str();
  if (!file) {
    std::cerr << "emc_bench: cannot write " << EMC_BENCH_REFERENCE << "\n";
    return 1;
  }
  std::cout << "wrote " << EMC_BENCH_REFERENCE << "\n";
  return 0;
}

int run(const Options& opt) {
  const Pin pin = pin_to_one_cpu(opt.cpu);
  std::cout << "env cpu=" << pin.cpu << " nproc=" << pin.nproc << " compiler=\""
            << kCompiler << "\" build_type=" << EMC_BENCH_BUILD_TYPE
            << " git=" << EMC_BENCH_GIT_SHA << "\n"
            << "run workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";
  if (opt.write_reference) return write_reference();

  Oracle oracle(opt.workload);
  if (opt.seed == 1) oracle.require_reference(EMC_BENCH_REFERENCE);

  // Every timed set-up and untraced round is bracketed by two host-speed
  // readings and scaled by their mean slowdown.
  HostSpeed before = measure_host_speed();
  const auto bracket = [&before](double handoff_share) {
    const HostSpeed after = measure_host_speed();
    const double s = 0.5 * (slowdown(before, handoff_share) + slowdown(after, handoff_share));
    before = after;
    return s;
  };

  // Set-up: provider self-test, input generation (and the DH group),
  // one untimed warm-up job per cell. Repeated; the first is kept.
  bool self_test_ok = true;
  std::vector<double> setups;
  Workload w;
  for (int i = 0; i < (opt.smoke ? 1 : kSetups); ++i) {
    const auto t0 = SteadyClock::now();
    self_test_ok = crypto::self_test(crypto::provider("boringssl-sim")) && self_test_ok;
    Workload candidate = make_workload(opt.workload, opt.seed);
    for (const Cell& cell : candidate.cells) oracle.check(cell, cell.run({}));
    const double wall = seconds_since(t0);
    setups.push_back(wall / bracket(candidate.handoff_share));
    if (i == 0) w = std::move(candidate);
  }
  if (opt.smoke) w.jobs_per_cell = 1;

  std::vector<Round> plain;
  std::vector<Round> traced;
  std::vector<Span> spans;
  const auto start = SteadyClock::now();
  for (;;) {
    const auto t0 = SteadyClock::now();
    plain.push_back(run_round(w, false, nullptr, oracle));
    plain.back().slowdown = bracket(w.handoff_share);
    if (opt.trace) {
      traced.push_back(run_round(w, true, traced.empty() ? &spans : nullptr, oracle));
      before = measure_host_speed();
    }
    if (opt.smoke || seconds_since(start) + seconds_since(t0) > opt.seconds) break;
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = per_layer(plain, traced, gcm_mb_per_s());
    std::filesystem::create_directories(opt.trace_dir);
    const std::string base = opt.trace_dir + "/" + opt.workload;
    write_spans(base + ".spans.json", spans);
    std::ofstream layers(base + ".layers.json");
    layers << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
           << ", \"rounds\": " << traced.size() << ", \"metrics\": " << metrics_json(metrics)
           << "}\n";
  } else {
    metrics = end_to_end(setups, plain);
  }

  std::printf("setup_s samples:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\nround wall_s:");
  for (const Round& r : plain) std::printf(" %.4f", r.wall);
  std::printf("\nround slowdown:");
  for (const Round& r : plain) std::printf(" %.4f", r.slowdown);
  std::printf("\n");
  bool finite = true;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const bool correct = self_test_ok && finite && oracle.failed() == 0;
  std::printf("rounds=%zu jobs_per_round=%zu attempted=%llu failed=%llu\n", plain.size(),
              w.cells.size() * static_cast<std::size_t>(w.jobs_per_cell),
              static_cast<unsigned long long>(oracle.attempted()),
              static_cast<unsigned long long>(oracle.failed()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(oracle.attempted()),
              static_cast<unsigned long long>(oracle.failed()),
              metrics_json(metrics).c_str());
  return 0;  // the verdict is in the result line
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (kUnfitBuild) {
    std::cerr << "emc_bench: built without NDEBUG or with sanitizers; host "
                 "timings of this build mean nothing. Build with "
                 "-DCMAKE_BUILD_TYPE=Release.\n";
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "emc_bench: " << e.what() << "\n";
    return 1;
  }
}
