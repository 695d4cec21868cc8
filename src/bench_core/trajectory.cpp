#include "emc/bench_core/trajectory.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <utility>

namespace emc::bench {

std::uint64_t& global_engine_events() {
  static std::uint64_t events = 0;
  return events;
}

Trajectory::Trajectory(std::string area)
    : events_at_start_(global_engine_events()) {
  file_.area = std::move(area);
  file_.git_sha = git_head_sha();
}

void Trajectory::set_settings(std::string settings) {
  file_.settings = std::move(settings);
}

void Trajectory::add(const std::string& config, const std::string& metric,
                     const std::string& unit, bool higher_is_better,
                     const MeasureResult& r) {
  TrajectoryRow row;
  row.config = config;
  row.metric = metric;
  row.unit = unit;
  row.higher_is_better = higher_is_better;
  row.mean = r.mean;
  row.median = r.median;
  row.ci95_low = r.ci95_low;
  row.ci95_high = r.ci95_high;
  row.rel_stddev = r.rel_stddev;
  row.n_runs = r.runs;
  row.stable = r.stable;
  file_.rows.push_back(std::move(row));
}

void Trajectory::add_scalar(const std::string& config,
                            const std::string& metric,
                            const std::string& unit, bool higher_is_better,
                            double value) {
  add(config, metric, unit, higher_is_better, MeasureResult::single(value));
}

TrajectoryFile Trajectory::snapshot() const {
  TrajectoryFile file = file_;
  file.host_wall_seconds = timer_.seconds();
  file.engine_events = global_engine_events() - events_at_start_;
  file.events_per_second =
      file.host_wall_seconds > 0.0
          ? static_cast<double>(file.engine_events) / file.host_wall_seconds
          : 0.0;
  file.config_hash = trajectory_config_hash(file);
  return file;
}

std::optional<std::string> Trajectory::save() const {
  std::filesystem::path target("BENCH_" + file_.area + ".json");
  std::error_code ec;
  if (std::filesystem::is_directory("results", ec)) {
    target = std::filesystem::path("results") / target;
  }
  std::ofstream out(target, std::ios::binary);
  if (!out) return std::nullopt;
  write_trajectory_json(out, snapshot());
  if (!out) return std::nullopt;
  return target.string();
}

// --- JSON emission ----------------------------------------------------

namespace {

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

/// Shortest round-trippable representation; non-finite -> null (JSON
/// has no NaN/inf — the Python side reads null as "no value").
void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void write_trajectory_json(std::ostream& os, const TrajectoryFile& file) {
  os << "{\n";
  os << "  \"schema_version\": " << file.schema_version << ",\n";
  os << "  \"area\": ";
  write_string(os, file.area);
  os << ",\n  \"git_sha\": ";
  write_string(os, file.git_sha);
  os << ",\n  \"config_hash\": ";
  write_string(os, file.config_hash);
  os << ",\n  \"settings\": ";
  write_string(os, file.settings);
  os << ",\n  \"host\": {\n    \"wall_seconds\": ";
  write_number(os, file.host_wall_seconds);
  os << ",\n    \"engine_events\": " << file.engine_events;
  os << ",\n    \"events_per_second\": ";
  write_number(os, file.events_per_second);
  os << "\n  },\n  \"rows\": [";
  for (std::size_t i = 0; i < file.rows.size(); ++i) {
    const TrajectoryRow& row = file.rows[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"config\": ";
    write_string(os, row.config);
    os << ", \"metric\": ";
    write_string(os, row.metric);
    os << ", \"unit\": ";
    write_string(os, row.unit);
    os << ",\n     \"higher_is_better\": "
       << (row.higher_is_better ? "true" : "false");
    os << ", \"mean\": ";
    write_number(os, row.mean);
    os << ", \"median\": ";
    write_number(os, row.median);
    os << ",\n     \"ci95_low\": ";
    write_number(os, row.ci95_low);
    os << ", \"ci95_high\": ";
    write_number(os, row.ci95_high);
    os << ", \"rel_stddev\": ";
    write_number(os, row.rel_stddev);
    os << ",\n     \"n_runs\": " << row.n_runs
       << ", \"stable\": " << (row.stable ? "true" : "false") << "}";
  }
  os << "\n  ]\n}\n";
}

std::string trajectory_config_hash(const TrajectoryFile& file) {
  std::uint64_t hash = 0xCBF29CE484222325ull;  // FNV-1a 64
  const auto mix = [&hash](const std::string& s) {
    for (const char ch : s) {
      hash ^= static_cast<unsigned char>(ch);
      hash *= 0x100000001B3ull;
    }
    hash ^= 0xFF;  // field separator
    hash *= 0x100000001B3ull;
  };
  mix(file.area);
  mix(file.settings);
  for (const TrajectoryRow& row : file.rows) {
    mix(row.config);
    mix(row.metric);
    mix(row.unit);
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string git_head_sha() {
  namespace fs = std::filesystem;
  const auto read_first_line = [](const fs::path& p) -> std::string {
    std::ifstream in(p);
    std::string line;
    std::getline(in, line);
    while (!line.empty() &&
           (line.back() == '\n' || line.back() == '\r' ||
            line.back() == ' ')) {
      line.pop_back();
    }
    return line;
  };

  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return "unknown";
  for (int depth = 0; depth < 6; ++depth) {
    const fs::path git = dir / ".git";
    if (fs::is_directory(git, ec)) {
      const std::string head = read_first_line(git / "HEAD");
      if (head.rfind("ref: ", 0) != 0) {
        return head.empty() ? "unknown" : head;
      }
      const std::string ref = head.substr(5);
      const std::string direct = read_first_line(git / ref);
      if (!direct.empty()) return direct;
      // Packed ref: lines of "<sha> <refname>".
      std::ifstream packed(git / "packed-refs");
      std::string line;
      while (std::getline(packed, line)) {
        if (line.size() > ref.size() + 41 &&
            line.compare(line.size() - ref.size(), ref.size(), ref) == 0) {
          return line.substr(0, 40);
        }
      }
      return "unknown";
    }
    if (!dir.has_parent_path() || dir.parent_path() == dir) break;
    dir = dir.parent_path();
  }
  return "unknown";
}

}  // namespace emc::bench
