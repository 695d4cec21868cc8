// Opt-in runtime correctness analysis for the MiniMPI simulator —
// MUST-style verification made cheap by the cooperative scheduler.
//
// The engine serializes simulated processes, so at every block point
// the verifier sees a precise, race-free global state. Four checkers
// run against it:
//
//   * deadlock analysis     — when the engine finds every process
//     parked, a wait-for graph (recv source/tag, parked rendezvous
//     sender) is reconstructed and the cycle is named.
//   * request lifecycle     — leaked isend/irecv requests, double
//     wait, send-buffer mutation while in flight (checksum at post vs
//     completion), overlapping in-flight receive buffers.
//   * collective call order — op kind, root, and byte counts are
//     cross-checked across ranks per collective sequence number; the
//     first diverging rank is reported.
//   * unmatched messages    — eager envelopes and posted receives
//     still sitting in a mailbox at the end of a run.
//
// All hooks run on the engine's host thread, from the currently
// running simulated process (abort unwinding included), so no locking.
// Hooks never advance virtual time, so enabling verification does not
// change the schedule: a verified run replays the unverified one.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "emc/sim/engine.hpp"
#include "emc/verify/diagnostic.hpp"

namespace emc::verify {

/// SplitMix64 — bijective mix used to derive schedule-perturbation
/// tie-break keys and per-run salts from a seed.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Verification knobs; embedded in mpi::WorldConfig as `verify`.
struct Config {
  /// Master switch. Off = no verifier is constructed, zero overhead.
  bool enabled = false;

  /// When true (default), the first error-severity diagnostic raised
  /// inside an MPI call throws VerifyError immediately, and errors
  /// that can only be recorded (request leaks, which surface in
  /// destructors) are thrown at the end of World::run. When false,
  /// everything is collected for inspection via diagnostics().
  bool fail_fast = true;

  // Per-checker switches (all on by default).
  bool check_deadlock = true;
  bool check_requests = true;
  bool check_collectives = true;
  bool check_unmatched = true;

  /// Non-zero: perturb the engine's same-virtual-time tie-break order
  /// with this salt (see Engine::set_tiebreak_salt). Deterministic per
  /// salt; used by mpi::run_perturbed to flush order-dependent
  /// matching bugs.
  std::uint64_t schedule_salt = 0;

  /// Hard cap on stored diagnostics (protects pathological runs).
  std::size_t max_diagnostics = 256;
};

/// Why a rank is blocked (wait-for-graph node payload).
enum class BlockKind {
  kRecv,      ///< parked in a receive wait
  kRndvSend,  ///< parked on a rendezvous handshake
};

struct BlockInfo {
  BlockKind kind = BlockKind::kRecv;
  int peer = -1;  ///< recv source / rendezvous destination; -1 = any source
  int tag = -1;
};

enum class ReqKind { kSend, kRecv };

/// How a tracked request left the in-flight set.
enum class ReqFinish {
  kCompleted,  ///< waited on; send checksums are verified here
  kLeaked,     ///< destroyed without wait on a healthy path
  kDropped,    ///< destroyed during exception unwinding (no diagnostic)
};

enum class CollKind {
  kBarrier,
  kBcast,
  kAllgather,
  kAlltoall,
  kAlltoallv,
  kGather,
  kScatter,
};

[[nodiscard]] const char* to_string(CollKind kind) noexcept;

class Verifier {
 public:
  /// Attaches to @p engine: installs the deadlock explainer and the
  /// schedule-perturbation salt. The verifier must outlive the last
  /// engine run it is attached to.
  Verifier(const Config& config, sim::Engine& engine);

  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Snapshot of everything recorded so far.
  [[nodiscard]] std::vector<Diagnostic> diagnostics() const;
  [[nodiscard]] std::size_t error_count() const;
  /// True when no error-severity diagnostic has been recorded.
  [[nodiscard]] bool clean() const { return error_count() == 0; }

  /// Clears per-run tracking state (collective records, in-flight
  /// requests, block markers). Recorded diagnostics are kept.
  void begin_run();

  /// End-of-run gate: in fail-fast mode, throws the first error-
  /// severity diagnostic that could not be thrown at its detection
  /// point (request leaks, unmatched-audit escalations).
  void finish_run();

  // --- Hooks (called by the MPI layer) --------------------------------

  /// Rank @p rank is about to park; pair with on_unblock. RAII via
  /// BlockScope below.
  void on_block(int rank, const BlockInfo& info);
  void on_unblock(int rank);

  /// Registers an in-flight request; returns its tracking id. Sends
  /// are checksummed (@p data stays owned by the caller and must be
  /// readable until the matching on_request_finish). Receives are
  /// checked for overlap against this rank's other in-flight receive
  /// buffers. May throw VerifyError (fail-fast, overlap).
  std::uint64_t on_request_start(int rank, ReqKind kind, int peer, int tag,
                                 const std::uint8_t* data, std::size_t len);

  /// Removes a request from the in-flight set. kCompleted re-checksums
  /// send buffers and may throw VerifyError (fail-fast, mutation);
  /// kLeaked records a leak diagnostic without throwing (destructor
  /// context); kDropped is silent. Unknown ids are ignored.
  void on_request_finish(std::uint64_t id, ReqFinish finish);

  /// wait() was called on an invalid request. @p consumed says the
  /// request was once live and already waited on (double wait, a
  /// diagnostic) rather than never initialized.
  void on_wait_invalid(int rank, bool consumed);

  /// Rank entered collective number @p seq on its communicator. For
  /// kBcast, @p bytes is the payload on the root and the buffer
  /// capacity elsewhere (non-root capacity may legally exceed the root
  /// payload); for alltoallv, byte counts are not cross-checked.
  void on_collective(int rank, std::uint64_t seq, CollKind kind, int root,
                     std::size_t bytes);

  /// Shutdown audit entries (called by World::run after the engine
  /// returns cleanly).
  void on_unmatched_envelope(int rank, int src, int tag, std::size_t bytes);
  void on_unmatched_posted(int rank, int want_src, int want_tag);

  /// The ARQ channel on @p rank exhausted its retry budget for the
  /// link to @p peer (graceful degradation). Recorded as a warning —
  /// an environment fault must not abort the surviving ranks.
  void on_peer_unreachable(int rank, int peer, std::uint64_t attempts);

  /// Rank @p rank attempted to post new work on communicator epoch
  /// @p epoch after it was revoked, for the @p count'th time. One
  /// failed post is how a rank *learns* about the revocation; repeated
  /// posts (count >= 2) mean the application swallows RevokedError and
  /// keeps going instead of entering recovery — recorded as a warning
  /// diagnostic the first time the repetition is seen.
  void on_post_after_revoke(int rank, std::uint64_t epoch,
                            std::uint64_t count);

  /// RAII wrapper for on_block/on_unblock; no-op when @p vrf is null.
  class BlockScope {
   public:
    BlockScope(Verifier* vrf, int rank, const BlockInfo& info)
        : vrf_(vrf), rank_(rank) {
      if (vrf_ != nullptr) vrf_->on_block(rank_, info);
    }
    ~BlockScope() {
      if (vrf_ != nullptr) vrf_->on_unblock(rank_);
    }
    BlockScope(const BlockScope&) = delete;
    BlockScope& operator=(const BlockScope&) = delete;

   private:
    Verifier* vrf_;
    int rank_;
  };

 private:
  struct ReqRecord {
    int rank = 0;
    ReqKind kind = ReqKind::kSend;
    int peer = -1;
    int tag = -1;
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    std::uint64_t checksum = 0;
  };

  struct CollRecord {
    int first_rank = -1;
    CollKind kind = CollKind::kBarrier;
    int root = -1;
    std::size_t bytes = 0;     ///< reference byte count (bcast: root payload)
    bool root_seen = false;    ///< bcast: the root has recorded
    std::size_t min_cap = 0;   ///< bcast: smallest non-root capacity so far
    int min_cap_rank = -1;
    bool mismatched = false;   ///< stop cascading reports for this seq
  };

  /// Records @p d; when @p throwable and fail_fast and d is an error,
  /// throws VerifyError(d). Never throws when !throwable.
  void record(Diagnostic d, bool throwable);

  /// Builds the wait-for-graph report for the engine's Deadlock
  /// message and records the kDeadlock diagnostic.
  std::string explain_deadlock();

  Config config_;
  sim::Engine* engine_;

  std::vector<Diagnostic> diagnostics_;
  std::size_t errors_ = 0;
  std::size_t pending_throw_ = 0;  ///< errors recorded but not yet thrown

  // Per-run state.
  std::vector<std::optional<BlockInfo>> blocked_;
  std::unordered_map<std::uint64_t, ReqRecord> inflight_;
  std::unordered_map<std::uint64_t, CollRecord> collectives_;
  std::uint64_t next_req_id_ = 1;
};

}  // namespace emc::verify
