// Virtual-time tracing: opt-in, per-rank span recording for the
// overhead-attribution story the paper tells in §IV–V.
//
// Every virtual-time charge in the simulator has a cause — crypto
// cycles, wire serialization, NIC queueing, waiting for a peer, ARQ
// retransmission dialogues, buffer copies, application compute. A
// TraceRecorder attached via mpi::WorldConfig::trace collects those
// causes as scoped spans stamped with the sim virtual clock:
//
//   * recording is observation only — it never advances virtual time,
//     so a traced run replays the untraced schedule bit-exactly;
//   * events land in per-rank ring buffers preallocated at
//     construction — the hot path never allocates, and when no
//     recorder is attached every instrumentation site is a single
//     null-pointer check;
//   * per-category running totals are accumulated independently of
//     the ring, so the attribution summary stays exact even when a
//     long run wraps the ring and drops old events;
//   * spans are deterministic functions of the simulation: a world
//     whose virtual time is fully analytic (no wall-clock charges, or
//     crypto under secure::CryptoCostModel) produces byte-identical
//     exports for the same seed.
//
// Exporters (Chrome trace_event JSON for Perfetto, attribution
// summary tables) live in emc/trace/export.hpp; the categories and
// the rules for who records what are documented in docs/TRACING.md
// and docs/ARCHITECTURE.md.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace emc::trace {

/// Where a slice of one rank's virtual time went. The causes mirror
/// the decomposition of the paper and its successors (crypto vs wire
/// vs concurrency): see docs/TRACING.md for the exact recording rules
/// of every category.
///
/// All categories except kCryptoHelper describe the rank's own
/// timeline and are disjoint; kCryptoHelper spans run on the rank's
/// simulated helper crypto cores (docs/PIPELINE.md) CONCURRENTLY with
/// the main timeline, so they are excluded from the idle residual and
/// may overlap every other category.
enum class Category : std::uint8_t {
  kCryptoEncrypt = 0,  ///< secure_mpi seal (AES-GCM encrypt + tag)
  kCryptoDecrypt,      ///< secure_mpi open (decrypt + tag verify)
  kWire,               ///< parked while bytes serialize/fly on a link
  kNicQueue,           ///< queued behind a busy NIC (egress drain too)
  kSyncWait,           ///< blocked until a matching peer operation
  kArqRetransmit,      ///< reliability-layer backoff + retransmission
  kCopy,               ///< CPU message handling: overheads + copies
  kCompute,            ///< measured host compute (mpi::Comm::charge)
  kRelayForward,       ///< store-and-forward through route relay hops
  kCryptoHelper,       ///< per-chunk seal/open on a helper crypto core
                       ///< (concurrent lane; `peer` holds the core id)
  kPipelineStall,      ///< main timeline blocked on helper-core crypto
                       ///< (the unhidden tail of a pipelined message)
  kKeyMgmt,            ///< key lifecycle: handshake asymmetric crypto,
                       ///< ratchet steps, group rekey fan-out
};

inline constexpr std::size_t kNumCategories = 12;

/// Stable lower_snake_case name ("crypto_encrypt", ...); used by both
/// exporters, so it is part of the trace file format.
[[nodiscard]] const char* category_name(Category c) noexcept;

/// Recorder sizing knobs.
struct Config {
  /// Ring capacity in events per rank, rounded up to a power of two.
  /// When a rank records more, the oldest events are overwritten
  /// (counted in dropped()); summary totals are unaffected.
  std::size_t ring_capacity = std::size_t{1} << 14;
};

/// One completed span on one rank's virtual timeline.
struct Event {
  double begin = 0.0;        ///< virtual seconds
  double end = 0.0;          ///< virtual seconds, >= begin
  std::uint64_t bytes = 0;   ///< payload bytes involved (0 = n/a)
  std::int32_t peer = -1;    ///< other rank involved (-1 = none)
  Category category = Category::kCompute;
};

/// Per-rank virtual-time span recorder. All mutation happens on the
/// currently running simulated process (the engine runs one rank at a
/// time), so no locking is needed — the same invariant the
/// mailboxes rely on. Construct with the world's rank count and
/// attach via mpi::WorldConfig::trace.
class TraceRecorder {
 public:
  TraceRecorder(const Config& config, int num_ranks);

  [[nodiscard]] int num_ranks() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Records a completed span. Never allocates; clamps end to begin
  /// when a caller hands a reversed interval (defensive — callers
  /// always pass now() pairs).
  void record(int rank, Category category, double begin, double end,
              int peer = -1, std::uint64_t bytes = 0) noexcept;

  /// Marks the start of the traced run window (virtual time). Called
  /// by World::run; re-running a world moves the window, so the
  /// summary always describes the most recent run.
  void begin_run(double at) noexcept;

  /// Records when @p rank's body returned; the rank's attribution
  /// total is rank_end - run_begin.
  void note_rank_done(int rank, double at) noexcept {
    ranks_[checked(rank)].end_time = at;
  }

  [[nodiscard]] double run_begin() const noexcept { return run_begin_; }
  [[nodiscard]] double rank_end(int rank) const {
    return ranks_[checked(rank)].end_time;
  }

  /// Events still held for @p rank, oldest first (the ring unwound).
  [[nodiscard]] std::vector<Event> events(int rank) const;

  /// Events overwritten after the ring filled.
  [[nodiscard]] std::uint64_t dropped(int rank) const {
    const Rank& r = ranks_[checked(rank)];
    const std::uint64_t cap = r.ring.size();
    return r.count > cap ? r.count - cap : 0;
  }

  /// Total spans ever recorded for @p rank.
  [[nodiscard]] std::uint64_t recorded(int rank) const {
    return ranks_[checked(rank)].count;
  }

  /// Exact per-category virtual-second totals for the current run
  /// window (independent of ring capacity).
  [[nodiscard]] const std::array<double, kNumCategories>& category_seconds(
      int rank) const {
    return ranks_[checked(rank)].seconds;
  }

 private:
  struct Rank {
    std::vector<Event> ring;   ///< power-of-two capacity, preallocated
    std::uint64_t count = 0;   ///< spans ever recorded
    std::array<double, kNumCategories> seconds{};
    double end_time = 0.0;
  };

  [[nodiscard]] std::size_t checked(int rank) const;

  Config config_;
  std::size_t mask_;  ///< ring capacity - 1
  double run_begin_ = 0.0;
  std::vector<Rank> ranks_;
};

}  // namespace emc::trace
