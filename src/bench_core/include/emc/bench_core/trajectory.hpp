// Machine-readable perf-trajectory emission: every benchmark campaign
// writes a BENCH_<area>.json next to its results CSVs, holding one
// row per measured configuration (median, bootstrap 95% CI, relative
// stddev, repetition count — the simulated metrics) plus host-side
// meta-metrics (campaign wall-clock, simulation-engine events per
// second), the git SHA, and a hash of the measured configuration set.
// scripts/bench_compare.py diffs these files against committed
// baselines and fails CI on statistically significant slowdowns.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "emc/bench_core/methodology.hpp"
#include "emc/common/timer.hpp"

namespace emc::bench {

/// One measured configuration in a trajectory file.
struct TrajectoryRow {
  std::string config;  ///< e.g. "eth/BoringSSL/16KB"
  std::string metric;  ///< e.g. "throughput", "time"
  std::string unit;    ///< e.g. "MB/s", "s", "us", "%"
  /// Regression direction: true = a drop is a slowdown (throughput),
  /// false = a rise is a slowdown (latency, runtime).
  bool higher_is_better = true;
  double mean = 0.0;
  double median = 0.0;
  double ci95_low = 0.0;
  double ci95_high = 0.0;
  double rel_stddev = 0.0;
  std::size_t n_runs = 0;
  bool stable = false;
};

/// Serializable form of one BENCH_<area>.json.
struct TrajectoryFile {
  int schema_version = 1;
  std::string area;
  std::string git_sha;
  std::string config_hash;  ///< hash of settings + row identities
  std::string settings;     ///< free-form flag summary, hashed
  double host_wall_seconds = 0.0;
  std::uint64_t engine_events = 0;
  double events_per_second = 0.0;
  std::vector<TrajectoryRow> rows;
};

/// Campaign-lifetime collector: construct at the top of a bench main,
/// add() one row per measured configuration, save() at the end. Wall
/// clock runs from construction to save; engine events are taken
/// from the global counter timed_world feeds.
class Trajectory {
 public:
  explicit Trajectory(std::string area);

  /// Free-form summary of the flags that shaped this campaign
  /// (network, policy, iteration overrides). Part of config_hash, so
  /// bench_compare refuses to diff incompatible campaigns.
  void set_settings(std::string settings);

  void add(const std::string& config, const std::string& metric,
           const std::string& unit, bool higher_is_better,
           const MeasureResult& r);

  /// Deterministic single-shot metric (campaign counts, virtual
  /// recovery times): recorded with n=1 and a zero-width CI.
  void add_scalar(const std::string& config, const std::string& metric,
                  const std::string& unit, bool higher_is_better,
                  double value);

  /// Snapshot with host metrics and config hash filled in.
  [[nodiscard]] TrajectoryFile snapshot() const;

  /// Writes BENCH_<area>.json (redirected into ./results/ when that
  /// directory exists, like Table::save_csv). Returns the path
  /// written, or nullopt on I/O failure.
  std::optional<std::string> save() const;

 private:
  TrajectoryFile file_;
  WallTimer timer_;
  std::uint64_t events_at_start_ = 0;
};

/// Engine scheduling events accumulated by timed_world across every
/// simulated world of the process; the trajectory layer turns the
/// delta into events-per-second.
[[nodiscard]] std::uint64_t& global_engine_events();

/// JSON serialization. Non-finite numbers are written as `null` (NaN —
/// e.g. the overhead of a degenerate zero baseline); the reader is
/// scripts/bench_compare.py.
void write_trajectory_json(std::ostream& os, const TrajectoryFile& file);

/// FNV-1a hash (hex) of settings + every row's config/metric/unit —
/// the campaign-shape fingerprint bench_compare matches on.
[[nodiscard]] std::string trajectory_config_hash(const TrajectoryFile& file);

/// Commit SHA of the repo containing the CWD: resolves .git/HEAD
/// (walking up a few parents, following one level of symbolic ref,
/// falling back to packed-refs), or "unknown" outside a checkout.
[[nodiscard]] std::string git_head_sha();

}  // namespace emc::bench
