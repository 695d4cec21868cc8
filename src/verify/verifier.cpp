#include "emc/verify/verifier.hpp"

#include <algorithm>
#include <sstream>

namespace emc::verify {

namespace {

/// FNV-1a 64-bit — cheap, order-sensitive content fingerprint for the
/// send-buffer mutation check.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Internal collective tags start here (see Comm::next_coll_tag: 64
/// slots per collective invocation above the user tag range).
constexpr int kInternalTagBase = 1 << 28;

/// Human label for a tag: user tags print verbatim, internal
/// collective tags are decoded into invocation number and round.
std::string tag_label(int tag) {
  if (tag < 0) return "any";
  if (tag < kInternalTagBase) return std::to_string(tag);
  const int off = tag - kInternalTagBase;
  return "collective #" + std::to_string(off / 64) + " round " +
         std::to_string(off % 64);
}

std::string peer_label(int peer) {
  return peer < 0 ? "any source" : "rank " + std::to_string(peer);
}

std::string block_label(const BlockInfo& info) {
  if (info.kind == BlockKind::kRndvSend) {
    return "rendezvous send to rank " + std::to_string(info.peer) +
           " (tag " + tag_label(info.tag) + "), waiting for the receiver";
  }
  return "recv from " + peer_label(info.peer) + " (tag " +
         tag_label(info.tag) + ")";
}

}  // namespace

const char* to_string(Check check) noexcept {
  switch (check) {
    case Check::kDeadlock: return "deadlock";
    case Check::kRequestLeak: return "request-leak";
    case Check::kDoubleWait: return "double-wait";
    case Check::kSendBufferMutated: return "send-buffer-mutated";
    case Check::kOverlappingReceives: return "overlapping-receives";
    case Check::kCollectiveMismatch: return "collective-mismatch";
    case Check::kUnmatchedMessage: return "unmatched-message";
    case Check::kPeerUnreachable: return "peer-unreachable";
    case Check::kRevokeIgnored: return "revoke-ignored";
  }
  return "unknown";
}

const char* to_string(Severity severity) noexcept {
  return severity == Severity::kError ? "error" : "warning";
}

const char* to_string(CollKind kind) noexcept {
  switch (kind) {
    case CollKind::kBarrier: return "barrier";
    case CollKind::kBcast: return "bcast";
    case CollKind::kAllgather: return "allgather";
    case CollKind::kAlltoall: return "alltoall";
    case CollKind::kAlltoallv: return "alltoallv";
    case CollKind::kGather: return "gather";
    case CollKind::kScatter: return "scatter";
  }
  return "unknown";
}

std::string Diagnostic::format() const {
  std::ostringstream os;
  os << '[' << to_string(severity) << "] " << to_string(check)
     << " @ t=" << time << "s ranks {";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    os << (i == 0 ? "" : ",") << ranks[i];
  }
  os << "}: " << message;
  return os.str();
}

// ---------------------------------------------------------------- Verifier

Verifier::Verifier(const Config& config, sim::Engine& engine)
    : config_(config), engine_(&engine) {
  engine_->set_tiebreak_salt(config_.schedule_salt);
  if (config_.check_deadlock) {
    engine_->set_deadlock_explainer([this] { return explain_deadlock(); });
  }
  blocked_.resize(static_cast<std::size_t>(engine_->size()));
}

std::vector<Diagnostic> Verifier::diagnostics() const { return diagnostics_; }

std::size_t Verifier::error_count() const { return errors_; }

void Verifier::begin_run() {
  std::fill(blocked_.begin(), blocked_.end(), std::nullopt);
  inflight_.clear();
  collectives_.clear();
}

void Verifier::record(Diagnostic d, bool throwable) {
  bool do_throw = false;
  if (d.severity == Severity::kError) {
    ++errors_;
    do_throw = throwable && config_.fail_fast;
    if (!do_throw) ++pending_throw_;
  }
  if (diagnostics_.size() < config_.max_diagnostics) {
    diagnostics_.push_back(d);
  }
  if (do_throw) throw VerifyError(std::move(d));
}

void Verifier::finish_run() {
  if (!config_.fail_fast || pending_throw_ == 0) return;
  pending_throw_ = 0;
  const auto it = std::find_if(
      diagnostics_.begin(), diagnostics_.end(),
      [](const Diagnostic& d) { return d.severity == Severity::kError; });
  if (it == diagnostics_.end()) return;
  throw VerifyError(*it);
}

// ------------------------------------------------------------ wait graph

void Verifier::on_block(int rank, const BlockInfo& info) {
  blocked_.at(static_cast<std::size_t>(rank)) = info;
}

void Verifier::on_unblock(int rank) {
  blocked_.at(static_cast<std::size_t>(rank)).reset();
}

std::string Verifier::explain_deadlock() {
  // Called by the engine when every live process is parked, so the
  // block table is frozen.
  const std::vector<std::optional<BlockInfo>>& blocked = blocked_;
  const int n = static_cast<int>(blocked.size());

  // Follow each rank's unique wait-for successor (a wildcard receive
  // has none) until a rank repeats: that suffix is the cycle.
  std::vector<int> cycle;
  for (int start = 0; start < n && cycle.empty(); ++start) {
    if (!blocked[static_cast<std::size_t>(start)]) continue;
    std::vector<int> path;
    std::vector<char> on_path(static_cast<std::size_t>(n), 0);
    int cur = start;
    while (cur >= 0 && cur < n && blocked[static_cast<std::size_t>(cur)] &&
           !on_path[static_cast<std::size_t>(cur)]) {
      on_path[static_cast<std::size_t>(cur)] = 1;
      path.push_back(cur);
      cur = blocked[static_cast<std::size_t>(cur)]->peer;
    }
    if (cur >= 0 && cur < n && blocked[static_cast<std::size_t>(cur)] &&
        on_path[static_cast<std::size_t>(cur)]) {
      const auto first = std::find(path.begin(), path.end(), cur);
      cycle.assign(first, path.end());
    }
  }

  std::ostringstream os;
  if (!cycle.empty()) {
    os << "wait-for cycle:";
    for (const int r : cycle) os << " rank " << r << " ->";
    os << " rank " << cycle.front();
  } else {
    os << "no definite wait-for cycle (wildcard receives present); "
          "blocked ranks listed below";
  }
  std::vector<int> blocked_ranks;
  for (int r = 0; r < n; ++r) {
    if (const auto& info = blocked[static_cast<std::size_t>(r)]) {
      os << "\n  rank " << r << ": blocked in " << block_label(*info);
      blocked_ranks.push_back(r);
    }
  }

  Diagnostic d;
  d.check = Check::kDeadlock;
  d.severity = Severity::kError;
  d.ranks = cycle.empty() ? blocked_ranks : cycle;
  d.time = engine_->now();
  d.message = os.str();
  // Never throw here: the engine raises sim::Deadlock with this text.
  record(std::move(d), /*throwable=*/false);
  if (pending_throw_ > 0) --pending_throw_;  // Deadlock supersedes it
  return os.str();
}

// ------------------------------------------------------ request lifecycle

std::uint64_t Verifier::on_request_start(int rank, ReqKind kind, int peer,
                                         int tag, const std::uint8_t* data,
                                         std::size_t len) {
  if (!config_.check_requests) return 0;
  ReqRecord rec;
  rec.rank = rank;
  rec.kind = kind;
  rec.peer = peer;
  rec.tag = tag;
  rec.data = data;
  rec.len = len;
  if (kind == ReqKind::kSend) rec.checksum = fnv1a(data, len);

  const std::uint64_t id = next_req_id_++;
  Diagnostic overlap;
  bool have_overlap = false;
  if (kind == ReqKind::kRecv && len > 0) {
    for (const auto& [other_id, other] : inflight_) {
      if (other.rank != rank || other.kind != ReqKind::kRecv ||
          other.len == 0) {
        continue;
      }
      const auto a = reinterpret_cast<std::uintptr_t>(data);
      const auto b = reinterpret_cast<std::uintptr_t>(other.data);
      if (a < b + other.len && b < a + len) {
        overlap.check = Check::kOverlappingReceives;
        overlap.severity = Severity::kError;
        overlap.ranks = {rank};
        overlap.time = engine_->now();
        overlap.message =
            "irecv(src=" + peer_label(peer) + ", tag " + tag_label(tag) +
            ", " + std::to_string(len) +
            "B) overlaps the in-flight irecv(src=" + peer_label(other.peer) +
            ", tag " + tag_label(other.tag) + ", " +
            std::to_string(other.len) + "B) posted by the same rank";
        have_overlap = true;
        break;
      }
    }
  }
  inflight_.emplace(id, rec);
  if (have_overlap) record(std::move(overlap), /*throwable=*/true);
  return id;
}

void Verifier::on_request_finish(std::uint64_t id, ReqFinish finish) {
  if (id == 0) return;
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  const ReqRecord rec = it->second;
  inflight_.erase(it);
  if (finish == ReqFinish::kDropped) return;

  const char* kind_name = rec.kind == ReqKind::kSend ? "isend" : "irecv";
  if (finish == ReqFinish::kLeaked) {
    Diagnostic d;
    d.check = Check::kRequestLeak;
    d.severity = Severity::kError;
    d.ranks = {rec.rank};
    d.time = engine_->now();
    d.message = std::string(kind_name) + "(" + peer_label(rec.peer) +
                ", tag " + tag_label(rec.tag) + ", " +
                std::to_string(rec.len) +
                "B) request destroyed without wait";
    record(std::move(d), /*throwable=*/false);  // destructor context
    return;
  }
  if (rec.kind == ReqKind::kSend && fnv1a(rec.data, rec.len) != rec.checksum) {
    Diagnostic d;
    d.check = Check::kSendBufferMutated;
    d.severity = Severity::kError;
    d.ranks = {rec.rank};
    d.time = engine_->now();
    d.message = "isend(" + peer_label(rec.peer) + ", tag " +
                tag_label(rec.tag) + ", " + std::to_string(rec.len) +
                "B) buffer was modified between isend and wait";
    record(std::move(d), /*throwable=*/true);
  }
}

void Verifier::on_wait_invalid(int rank, bool consumed) {
  if (!config_.check_requests || !consumed) return;
  Diagnostic d;
  d.check = Check::kDoubleWait;
  d.severity = Severity::kError;
  d.ranks = {rank};
  d.time = engine_->now();
  d.message = "wait called on a request that was already completed";
  record(std::move(d), /*throwable=*/true);
}

// ----------------------------------------------------------- collectives

void Verifier::on_collective(int rank, std::uint64_t seq, CollKind kind,
                             int root, std::size_t bytes) {
  if (!config_.check_collectives) return;

  Diagnostic d;
  bool mismatch = false;
  const auto [it, fresh] = collectives_.try_emplace(seq);
  CollRecord& rec = it->second;
  if (fresh) {
    rec.first_rank = rank;
    rec.kind = kind;
    rec.root = root;
    if (kind == CollKind::kBcast && rank != root) {
      rec.min_cap = bytes;
      rec.min_cap_rank = rank;
    } else {
      rec.bytes = bytes;
      rec.root_seen = kind != CollKind::kBcast || rank == root;
      rec.min_cap = ~std::size_t{0};
    }
  } else if (!rec.mismatched) {
    const auto report = [&](const std::string& what) {
      d.check = Check::kCollectiveMismatch;
      d.severity = Severity::kError;
      d.time = engine_->now();
      d.message = "collective #" + std::to_string(seq) + ": " + what;
      rec.mismatched = true;
      mismatch = true;
    };
    if (kind != rec.kind) {
      d.ranks = {rank, rec.first_rank};
      report("rank " + std::to_string(rank) + " called " +
             to_string(kind) + " but rank " +
             std::to_string(rec.first_rank) + " called " +
             to_string(rec.kind));
    } else if (root != rec.root) {
      d.ranks = {rank, rec.first_rank};
      report("rank " + std::to_string(rank) + " called " +
             to_string(kind) + " with root " + std::to_string(root) +
             " but rank " + std::to_string(rec.first_rank) +
             " used root " + std::to_string(rec.root));
    } else if (kind == CollKind::kBcast) {
      // Non-root capacity may exceed the root payload, but never
      // undercut it; cross-check lazily once both sides are known.
      if (rank == root) {
        rec.bytes = bytes;
        rec.root_seen = true;
      } else if (bytes < rec.min_cap || rec.min_cap_rank < 0) {
        rec.min_cap = bytes;
        rec.min_cap_rank = rank;
      }
      if (rec.root_seen && rec.min_cap_rank >= 0 &&
          rec.min_cap < rec.bytes) {
        d.ranks = {rec.min_cap_rank, root};
        report("rank " + std::to_string(rec.min_cap_rank) +
               " entered bcast with a " + std::to_string(rec.min_cap) +
               "B buffer but root " + std::to_string(root) +
               " broadcasts " + std::to_string(rec.bytes) + "B");
      }
    } else if (kind != CollKind::kBarrier &&
               kind != CollKind::kAlltoallv && bytes != rec.bytes) {
      d.ranks = {rank, rec.first_rank};
      report("rank " + std::to_string(rank) + " called " +
             to_string(kind) + " with " + std::to_string(bytes) +
             "B blocks but rank " + std::to_string(rec.first_rank) +
             " used " + std::to_string(rec.bytes) + "B");
    }
  }
  if (mismatch) record(std::move(d), /*throwable=*/true);
}

// -------------------------------------------------------- shutdown audit

void Verifier::on_unmatched_envelope(int rank, int src, int tag,
                                     std::size_t bytes) {
  if (!config_.check_unmatched) return;
  Diagnostic d;
  d.check = Check::kUnmatchedMessage;
  d.severity = Severity::kWarning;
  d.ranks = {rank, src};
  d.time = engine_->now();
  d.message = "message from rank " + std::to_string(src) + " (tag " +
              tag_label(tag) + ", " + std::to_string(bytes) +
              "B) was never received by rank " + std::to_string(rank);
  record(std::move(d), /*throwable=*/false);
}

void Verifier::on_peer_unreachable(int rank, int peer,
                                   std::uint64_t attempts) {
  // Environment degradation, not program misuse: recorded as a warning
  // so fail-fast mode never turns graceful degradation into an abort.
  Diagnostic d;
  d.check = Check::kPeerUnreachable;
  d.severity = Severity::kWarning;
  d.ranks = {rank, peer};
  d.time = engine_->now();
  d.message = "rank " + std::to_string(rank) + " declared the link to rank " +
              std::to_string(peer) + " dead after " +
              std::to_string(attempts) +
              " transmission attempts (retry budget exhausted)";
  record(std::move(d), /*throwable=*/false);
}

void Verifier::on_post_after_revoke(int rank, std::uint64_t epoch,
                                    std::uint64_t count) {
  // Only report when the repetition is first established; later posts
  // on the same epoch would just repeat the same finding.
  if (count != 2) return;
  Diagnostic d;
  d.check = Check::kRevokeIgnored;
  d.severity = Severity::kWarning;
  d.ranks = {rank};
  d.time = engine_->now();
  d.message = "rank " + std::to_string(rank) +
              " keeps posting operations on revoked communicator epoch " +
              std::to_string(epoch) +
              " instead of entering recovery (agree/shrink)";
  record(std::move(d), /*throwable=*/false);
}

void Verifier::on_unmatched_posted(int rank, int want_src, int want_tag) {
  if (!config_.check_unmatched) return;
  Diagnostic d;
  d.check = Check::kUnmatchedMessage;
  d.severity = Severity::kWarning;
  d.ranks = {rank};
  d.time = engine_->now();
  d.message = "posted receive (src=" + peer_label(want_src) + ", tag " +
              tag_label(want_tag) + ") on rank " + std::to_string(rank) +
              " was never matched";
  record(std::move(d), /*throwable=*/false);
}

}  // namespace emc::verify
