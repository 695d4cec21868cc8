// BENCH_<area>.json emission: the exact JSON text (NaN and infinity
// as null), the campaign-shape config hash, and the Trajectory
// collector.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "emc/bench_core/trajectory.hpp"

namespace emc::bench {
namespace {

TrajectoryFile sample_file() {
  TrajectoryFile f;
  f.area = "pingpong";
  f.git_sha = "0123456789abcdef";
  f.settings = "net=eth policy=quick salts=3 seed=1";
  f.host_wall_seconds = 5.25;
  f.engine_events = 55352;
  f.events_per_second = 10543.238;
  TrajectoryRow row;
  row.config = "eth/BoringSSL/16KB";
  row.metric = "throughput";
  row.unit = "MB/s";
  row.higher_is_better = true;
  row.mean = 179.78;
  row.median = 180.25;
  row.ci95_low = 175.0;
  row.ci95_high = 184.5;
  row.rel_stddev = 2.1;
  row.n_runs = 9;
  row.stable = true;
  f.rows.push_back(row);
  TrajectoryRow latency;
  latency.config = "eth/Bcast/CryptoPP/4MB";
  latency.metric = "time";
  latency.unit = "us";
  latency.higher_is_better = false;
  latency.mean = 1.5e5;
  latency.median = std::numeric_limits<double>::quiet_NaN();  // -> null
  latency.ci95_low = std::numeric_limits<double>::quiet_NaN();
  latency.ci95_high = std::numeric_limits<double>::quiet_NaN();
  latency.n_runs = 1;
  f.rows.push_back(latency);
  f.config_hash = trajectory_config_hash(f);
  return f;
}

TEST(Trajectory, JsonTextIsExact) {
  const TrajectoryFile f = sample_file();
  std::ostringstream os;
  write_trajectory_json(os, f);
  // Doubles print with 17 significant digits, so every value survives
  // a round trip through the Python reader (scripts/bench_compare.py).
  EXPECT_EQ(os.str(), R"({
  "schema_version": 1,
  "area": "pingpong",
  "git_sha": "0123456789abcdef",
  "config_hash": ")" + f.config_hash + R"(",
  "settings": "net=eth policy=quick salts=3 seed=1",
  "host": {
    "wall_seconds": 5.25,
    "engine_events": 55352,
    "events_per_second": 10543.237999999999
  },
  "rows": [
    {"config": "eth/BoringSSL/16KB", "metric": "throughput", "unit": "MB/s",
     "higher_is_better": true, "mean": 179.78, "median": 180.25,
     "ci95_low": 175, "ci95_high": 184.5, "rel_stddev": 2.1000000000000001,
     "n_runs": 9, "stable": true},
    {"config": "eth/Bcast/CryptoPP/4MB", "metric": "time", "unit": "us",
     "higher_is_better": false, "mean": 150000, "median": null,
     "ci95_low": null, "ci95_high": null, "rel_stddev": 0,
     "n_runs": 1, "stable": false}
  ]
}
)");
}

TEST(Trajectory, NanSerializesAsNull) {
  // JSON has no NaN or infinity: every non-finite number becomes null.
  TrajectoryFile f = sample_file();
  f.rows[0].mean = std::numeric_limits<double>::infinity();
  f.rows[0].median = -std::numeric_limits<double>::infinity();
  f.host_wall_seconds = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream os;
  write_trajectory_json(os, f);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"wall_seconds\": null"), std::string::npos);
  EXPECT_NE(text.find("\"mean\": null, \"median\": null"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Trajectory, ConfigHashTracksCampaignShapeOnly) {
  TrajectoryFile a = sample_file();
  TrajectoryFile b = sample_file();
  // Measured values do not change the shape...
  b.rows[0].median *= 2.0;
  b.host_wall_seconds = 99.0;
  b.git_sha = "ffffffffffffffff";
  EXPECT_EQ(trajectory_config_hash(a), trajectory_config_hash(b));
  // ...but the row set and the settings do.
  b.rows[0].config = "eth/BoringSSL/32KB";
  EXPECT_NE(trajectory_config_hash(a), trajectory_config_hash(b));
  TrajectoryFile c = sample_file();
  c.settings = "net=ib policy=quick salts=3 seed=1";
  EXPECT_NE(trajectory_config_hash(a), trajectory_config_hash(c));
}

TEST(Trajectory, CollectorFillsHostMetrics) {
  Trajectory traj("unit_test_area");
  traj.set_settings("policy=test");
  MeasureResult m;
  m.mean = 2.0;
  m.median = 2.0;
  m.ci95_low = 1.9;
  m.ci95_high = 2.1;
  m.runs = 5;
  m.stable = true;
  traj.add("cfg/a", "throughput", "MB/s", true, m);
  traj.add_scalar("cfg/b", "time", "s", false, 0.25);

  const TrajectoryFile snap = traj.snapshot();
  EXPECT_EQ(snap.area, "unit_test_area");
  EXPECT_EQ(snap.settings, "policy=test");
  EXPECT_EQ(snap.config_hash, trajectory_config_hash(snap));
  EXPECT_GE(snap.host_wall_seconds, 0.0);
  ASSERT_EQ(snap.rows.size(), 2u);
  EXPECT_EQ(snap.rows[0].n_runs, 5u);
  EXPECT_DOUBLE_EQ(snap.rows[1].mean, 0.25);
  EXPECT_DOUBLE_EQ(snap.rows[1].median, 0.25);
  EXPECT_EQ(snap.rows[1].n_runs, 1u);
  EXPECT_FALSE(snap.rows[1].higher_is_better);
}

}  // namespace
}  // namespace emc::bench
