// The benchmark's four workloads. A workload is a fixed list of cells
// (one job configuration each); a job builds a fresh simulated world,
// runs it, and checks every payload it received.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "emc/trace/trace.hpp"
#include "probe.hpp"

namespace emc::hostbench {

/// Exact outcome counts of one job: a pure function of the cell and the
/// seed, so every repeat of a cell must reproduce them bit-exactly.
struct Counts {
  std::uint64_t events = 0;         ///< engine scheduling events
  std::uint64_t ops = 0;            ///< messages received + collective calls
  std::uint64_t payload_bytes = 0;  ///< plaintext landing in user buffers
  std::uint64_t seals = 0;
  std::uint64_t opens = 0;
  std::uint64_t seal_bytes = 0;
  std::uint64_t open_bytes = 0;
  std::uint64_t chunks = 0;          ///< pipelined chunks sealed + opened
  std::uint64_t chunk_bytes = 0;     ///< plaintext of pipelined messages
  std::uint64_t nacks = 0;
  std::uint64_t duplicates = 0;      ///< secure-layer benign duplicates
  std::uint64_t replays = 0;
  std::uint64_t exposures = 0;       ///< plaintext seen by hop-trusted relays
  std::uint64_t dropped = 0;         ///< fault injector decisions
  std::uint64_t delayed = 0;
  std::uint64_t data_frames = 0;     ///< ARQ frames on the wire
  std::uint64_t deliveries = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t spurious = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t cwnd_halvings = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t handshake_attempts = 0;
  std::uint64_t ratchets = 0;
  std::uint64_t catchup_opens = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  Counts& operator+=(const Counts& o) noexcept;
};

struct CountField {
  const char* name;
  std::uint64_t Counts::*member;
};

/// Every counter, in oracle-line order.
inline constexpr CountField kCountFields[] = {
    {"events", &Counts::events},
    {"ops", &Counts::ops},
    {"payload_bytes", &Counts::payload_bytes},
    {"seals", &Counts::seals},
    {"opens", &Counts::opens},
    {"seal_bytes", &Counts::seal_bytes},
    {"open_bytes", &Counts::open_bytes},
    {"chunks", &Counts::chunks},
    {"chunk_bytes", &Counts::chunk_bytes},
    {"nacks", &Counts::nacks},
    {"duplicates", &Counts::duplicates},
    {"replays", &Counts::replays},
    {"exposures", &Counts::exposures},
    {"dropped", &Counts::dropped},
    {"delayed", &Counts::delayed},
    {"data_frames", &Counts::data_frames},
    {"deliveries", &Counts::deliveries},
    {"retransmits", &Counts::retransmits},
    {"spurious", &Counts::spurious},
    {"rtt_samples", &Counts::rtt_samples},
    {"cwnd_halvings", &Counts::cwnd_halvings},
    {"window_stalls", &Counts::window_stalls},
    {"handshake_attempts", &Counts::handshake_attempts},
    {"ratchets", &Counts::ratchets},
    {"catchup_opens", &Counts::catchup_opens},
    {"cache_hits", &Counts::cache_hits},
    {"cache_misses", &Counts::cache_misses},
};

inline Counts& Counts::operator+=(const Counts& o) noexcept {
  for (const CountField& f : kCountFields) this->*f.member += o.*f.member;
  return *this;
}

/// Readings of one traced job, summed over its ranks.
struct HostReadings {
  ProbeTotals probe;
  /// Virtual seconds per trace category, the unattributed rest, and
  /// the ranks' summed totals.
  std::array<double, trace::kNumCategories> virt{};
  double virt_idle = 0.0;
  double virt_total = 0.0;

  HostReadings& operator+=(const HostReadings& o) noexcept;
};

struct JobResult {
  std::string error;  ///< empty when the job ran and every check held
  double virtual_end = 0.0;
  Counts counts;
  double crypto_host_s = 0.0;  ///< SecureComm seal_seconds + open_seconds
  HostReadings host;           ///< traced jobs only
};

struct JobOptions {
  bool traced = false;                  ///< probes + trace::TraceRecorder
  std::vector<Span>* spans = nullptr;   ///< keep this job's spans here
  SteadyClock::time_point origin{};     ///< wall zero of the spans
};

struct Cell {
  std::string name;
  std::function<JobResult(const JobOptions&)> run;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  int jobs_per_cell = 1;  ///< per round; a round cycles every cell
  /// Weight of the thread-handoff kernel in this workload's host-speed
  /// reference (see slowdown()): the mix whose slowdown tracked the
  /// workload's own round times best on the calibration host.
  double handoff_share = 0.5;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates the workload's inputs from @p seed (payload bytes, link
/// loss/jitter seeds, handshake seeds, the DH group). Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// "<workload>/<cell> <virtual end as hexfloat> <counter>=<n>...": the
/// replay and reference oracle line of one job.
[[nodiscard]] std::string oracle_line(const std::string& workload,
                                      const Cell& cell, const JobResult& r);

}  // namespace emc::hostbench
