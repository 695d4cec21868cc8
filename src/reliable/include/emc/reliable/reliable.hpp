// Reliable delivery over the faulty fabric: a sequence-numbered ARQ
// channel layered between the MPI communicators and the network.
//
// The fault injector (src/netsim/fault.hpp) decides the fate of every
// frame as a pure function of (seed, link, per-link frame index), so
// the whole retransmission dialogue — RTO expirations, link NACKs,
// exponential backoff with seeded jitter, duplicate suppression — can
// be resolved deterministically at the moment a frame is handed to the
// wire. The channel plays that dialogue out in virtual time, in one
// attempt loop for every transport: it carries a frame across one leg
// (a direct link, or one hop of a relay route), and a frame the
// channel carries is handed over before it touches the wire, so the
// channel makes every reservation:
//
//   * every frame carries a per-link sequence number and a header
//     length field; truncated frames are NACKed by the receiving link
//     layer and retransmitted,
//   * dropped frames are retransmitted when the sender's RTO fires
//     (exponential backoff, seeded jitter, capped at rto_max),
//   * fabric-duplicated frames are suppressed by the receiver's
//     sequence window (distinct from — and below — the secure layer's
//     anti-replay window),
//   * delayed frames that outlive the RTO provoke a spurious
//     retransmission whose extra copy is suppressed like a duplicate,
//   * corrupted frames on user point-to-point traffic are delivered
//     (the link header CRC covers only the header); integrity is the
//     upper layer's job, and SecureComm turns an authentication
//     failure into an end-to-end NACK + retransmit through
//     Channel::e2e_recover instead of a thrown IntegrityError.
//     Collective-internal frames are checksummed by the link layer and
//     recovered transparently (see docs/RESILIENCE.md).
//
// A bounded retry budget degrades gracefully: when it is exhausted the
// link is marked dead, the failing operation raises a structured
// PeerUnreachable (never a hang, never an uncaught IntegrityError),
// and surviving ranks keep running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "emc/common/bytes.hpp"
#include "emc/netsim/fabric.hpp"

namespace emc::reliable {

/// Wire size of ACK/NACK control frames.
inline constexpr std::size_t kCtrlBytes = 32;

/// Transport discipline of the ARQ sender.
enum class Transport : std::uint8_t {
  /// Original behavior: fixed analytic backoff ladder run open loop
  /// over a direct leg, no send window — the whole dialogue resolved
  /// at send time. Default; replays existing worlds bit-exact.
  kAnalytic,
  /// Ack-clocked transport with a fixed-size window and the same fixed
  /// RTO ladder — the LAN-tuned baseline whose timer collapses into a
  /// spurious-retransmit storm once the path RTT exceeds rto_max.
  kFixedRto,
  /// Ack-clocked AIMD congestion window plus RFC 6298 SRTT/RTTVAR
  /// adaptive RTO with Karn's sampling rule.
  kAdaptive,
};

/// Reliability knobs; embedded in mpi::WorldConfig as `reliability`.
/// Every default is tuned for the simulated 10 GbE / IB profiles:
/// the full backoff ladder resolves well inside a one-second
/// recv_timeout.
struct Config {
  /// Master switch. Off = no channel is constructed; every send/recv
  /// path replays the unreliable wire bit-exact.
  bool enabled = false;

  /// Retransmissions allowed per delivery (beyond the first copy).
  /// Exhaustion marks the link dead and raises PeerUnreachable.
  int max_retries = 8;

  /// Retransmission timer: attempt k waits rto_initial * backoff^k
  /// (capped at rto_max), multiplied by a seeded jitter factor in
  /// [1 - jitter, 1 + jitter].
  double rto_initial = 200e-6;
  double rto_max = 20e-3;
  double backoff = 2.0;
  double jitter = 0.2;

  /// Seed for the jitter stream (independent of the FaultPlan seed).
  std::uint64_t seed = 1;

  /// Sender discipline. kAnalytic keeps every existing path bit-exact;
  /// the clocked modes add ACK return, window stalls, and (kAdaptive)
  /// RTT estimation to the resolved dialogue.
  Transport transport = Transport::kAnalytic;

  /// Clocked modes: initial congestion window (frames in flight before
  /// the first ACK) and its upper bound. kFixedRto always runs a full
  /// cwnd_limit window; kAdaptive slow-starts from cwnd_initial.
  int cwnd_initial = 4;
  int cwnd_limit = 64;

  /// kAdaptive: floor of the adaptive RTO (RFC 6298 recommends 1 s on
  /// real internet paths; simulated WAN links settle faster).
  double rto_min = 1e-3;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

/// Cumulative ARQ accounting across all links of one world.
struct ReliabilityStats {
  std::uint64_t data_frames = 0;        ///< frames put on the wire (incl. rexmit)
  std::uint64_t deliveries = 0;         ///< payloads handed up intact-or-damaged
  std::uint64_t retransmits = 0;        ///< RTO- or NACK-driven resends
  std::uint64_t rto_expirations = 0;    ///< sender timer fired (frame lost)
  std::uint64_t link_nacks = 0;         ///< receiver link layer rejected a frame
  std::uint64_t e2e_nacks = 0;          ///< upper-layer integrity NACKs
  std::uint64_t duplicates_suppressed = 0;  ///< fabric copies absorbed by seq window
  std::uint64_t spurious_retransmits = 0;   ///< RTO fired on a delayed (not lost) frame
  std::uint64_t delays_absorbed = 0;    ///< latency spikes survived without loss
  std::uint64_t damaged_deliveries = 0; ///< corrupt payloads handed to the upper layer
  std::uint64_t recoveries = 0;         ///< deliveries that needed >1 attempt
  double recovery_delay_total = 0.0;    ///< extra virtual seconds those waited
  std::uint64_t links_dead = 0;         ///< retry budgets exhausted
  std::uint64_t rtt_samples = 0;        ///< unambiguous RTT measurements taken
  std::uint64_t cwnd_halvings = 0;      ///< AIMD multiplicative decreases
  std::uint64_t window_stalls = 0;      ///< sends blocked on a full cwnd
  double window_stall_seconds = 0.0;    ///< virtual seconds spent in stalls
  std::uint64_t relay_frames = 0;       ///< frames forwarded by relay hops
  std::uint64_t relay_deliveries = 0;   ///< successful relay hop handoffs

  friend bool operator==(const ReliabilityStats&,
                         const ReliabilityStats&) = default;
};

/// Structured graceful-degradation error: the retry budget for the
/// (src -> dst) link is exhausted (or the link was already declared
/// dead). Raised on the sender for failed transmissions and on the
/// receiver for tombstoned or unrecoverable receives.
struct PeerUnreachable : std::runtime_error {
  PeerUnreachable(int src_rank, int dst_rank, std::uint64_t attempts_made)
      : std::runtime_error(
            "peer unreachable: link " + std::to_string(src_rank) + " -> " +
            std::to_string(dst_rank) + " declared dead after " +
            std::to_string(attempts_made) + " transmission attempts"),
        src(src_rank),
        dst(dst_rank),
        attempts(attempts_made) {}
  int src;
  int dst;
  std::uint64_t attempts;
};

/// Outcome of one ARQ delivery resolved at send time.
struct Delivery {
  enum class Result {
    kDelivered,        ///< clean payload arrives at `arrival`
    kDeliveredDamaged, ///< payload arrives with `damage` applied
    kDeadLink,         ///< retry budget exhausted; nothing arrives
  };
  Result result = Result::kDelivered;
  double arrival = 0.0;           ///< virtual time the accepted copy lands
  net::FaultDecision damage;      ///< valid when kDeliveredDamaged
  std::uint64_t seq = 0;          ///< ARQ sequence number of the payload
  std::uint32_t transmissions = 0;///< frames this delivery put on the wire
  /// NIC queueing of the first copy on the first leg, for trace
  /// attribution.
  double queue_delay = 0.0;
  /// Routed deliveries: virtual seconds past the first hop (relay
  /// store-and-forward + per-hop surcharge). 0 on direct links.
  double relay_delay = 0.0;
};

/// Clean-payload retransmit buffer entry for one receiving rank: the
/// sender-side copy of the most recent damaged delivery, used by
/// end-to-end NACK recovery to materialize the retransmitted frame.
struct RetransmitStash {
  bool valid = false;
  int src = -1;
  int tag = -1;
  std::uint64_t seq = 0;
  std::uint32_t transmissions = 0;  ///< budget already spent on this payload
  Bytes clean;
};

class Channel {
 public:
  /// Validates @p config and attaches to @p fabric (whose fault
  /// injector drives every per-attempt decision). The fabric must
  /// outlive the channel.
  Channel(const Config& config, net::Fabric& fabric);

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const ReliabilityStats& stats() const noexcept {
    return stats_;
  }

  /// Mutable accounting for the receiver-driven parts of the ARQ
  /// (the rendezvous pull retry loop runs on the receiving rank, in
  /// mpi::Comm, outside deliver()).
  [[nodiscard]] ReliabilityStats& stats_mut() noexcept { return stats_; }

  /// Resolves the full ARQ dialogue for one payload frame from @p src
  /// to @p dst that leaves the sender no earlier than @p send_time,
  /// making every wire reservation itself (the caller reserves
  /// nothing; see carries()). When @p frame_checksummed is true
  /// (collective-internal traffic) the link layer detects corruption
  /// and recovers it; otherwise a corrupted copy is delivered damaged
  /// and recovery is left to the upper layer (e2e_recover). @p relay
  /// governs what intermediate hops of a routed path do (surcharge,
  /// per-hop integrity); ignored on direct links.
  Delivery deliver(int src, int dst, std::size_t bytes, double send_time,
                   bool frame_checksummed,
                   const net::RelayPolicy& relay = {});

  /// True when the channel carries (src -> dst) payload frames: faults
  /// can strike them, the transport is clocked, or the route is
  /// relayed. The caller then hands each frame to deliver() before
  /// touching the wire; otherwise it reserves the wire itself.
  [[nodiscard]] bool carries(int src, int dst) const {
    return fabric_->faults_for(src, dst) != nullptr ||
           config_.transport != Transport::kAnalytic ||
           fabric_->relayed(src, dst);
  }

  /// End-to-end recovery: the upper layer on rank @p dst detected an
  /// integrity failure at @p now for a frame from @p src. Simulates
  /// the NACK control frame plus the sender's retransmissions until a
  /// clean copy arrives; returns its arrival time. Routed pairs replay
  /// the dialogue over the full route at end-to-end fault granularity.
  /// Throws PeerUnreachable (and marks the link dead) when the
  /// remaining retry budget is exhausted.
  double e2e_recover(int src, int dst, std::size_t bytes, double now,
                     std::uint32_t already_spent,
                     const net::RelayPolicy& relay = {});

  /// True once the (src -> dst) retry budget has been exhausted.
  [[nodiscard]] bool link_dead(int src, int dst) const {
    return dead_links_.contains({src, dst});
  }
  void mark_link_dead(int src, int dst) {
    if (dead_links_.insert({src, dst}).second) ++stats_.links_dead;
  }

  /// Retransmit-buffer slot for deliveries damaged in flight, one per
  /// receiving rank (the upper layer NACKs immediately after the
  /// damaged receive, so one slot suffices).
  [[nodiscard]] RetransmitStash& stash(int dst_rank) {
    return stash_.at(static_cast<std::size_t>(dst_rank));
  }

  /// Retransmission timer for attempt @p attempt on (src, dst, seq):
  /// exponential backoff with seeded jitter. Exposed for tests.
  [[nodiscard]] double rto(int src, int dst, std::uint64_t seq,
                           int attempt) const;

 private:
  /// Per-leg congestion/RTT state; only the kFixedRto window and the
  /// kAdaptive timer read it.
  struct CcState {
    bool seeded = false;   ///< true once the first RTT sample landed
    double srtt = 0.0;     ///< smoothed RTT (RFC 6298)
    double rttvar = 0.0;   ///< RTT variance estimate
    double cwnd = 0.0;     ///< congestion window, frames
    double ssthresh = 0.0; ///< slow-start threshold, frames
    /// ACK return times of frames still occupying the window.
    std::multiset<double> inflight;
  };

  [[nodiscard]] std::uint64_t next_seq(int src, int dst) {
    return seq_[{src, dst}]++;
  }

  CcState& cc_state(int a, int b);
  void rtt_sample(CcState& cc, double sample);
  void cc_on_loss(CcState& cc);
  void cc_on_ack(CcState& cc);

  /// RTO of attempt @p attempt under the configured transport:
  /// kAdaptive derives the base from SRTT/RTTVAR (nominal-RTT fallback
  /// from @p prof before the first sample) and backs off uncapped
  /// (Karn); the other modes use the fixed rto() ladder.
  [[nodiscard]] double transport_rto(const CcState& cc,
                                     const net::NetworkProfile& prof, int a,
                                     int b, std::uint64_t seq,
                                     int attempt) const;

  struct Leg;
  struct Crossing;

  /// Leg @p i of the way from @p src to @p dst: the direct link when
  /// @p route is empty, else the hop route[i] -> route[i + 1].
  Leg leg_of(int src, int dst, const std::vector<int>& route,
             std::size_t i);

  /// The one attempt loop: carries a frame of @p bytes across @p leg,
  /// first copy at @p t. Per attempt: NIC reservation, RTO, fault
  /// draw. NACKs reserve the reverse direction; corruption is NACKed
  /// when @p nack_corrupt, else the copy lands damaged. An @p open_loop
  /// sender resends once, spuriously, when a delay outlives the RTO.
  Crossing cross(const Leg& leg, Delivery& out, std::size_t bytes, double t,
                 bool nack_corrupt, bool open_loop);

  /// Clocked transports: stalls @p t until the window has a free slot.
  double window_gate(CcState& cc, double t);
  /// Clocked transports: the timer-vs-ACK race after @p c was accepted,
  /// then the RTT sample, the window growth and the ACK's window slot.
  void ack_race(const Leg& leg, const Crossing& c, std::size_t bytes,
                Delivery& out);

  Config config_;
  net::Fabric* fabric_;
  ReliabilityStats stats_;
  /// Per-link ARQ sequence counters (send side).
  std::map<std::pair<int, int>, std::uint64_t> seq_;
  /// Per-leg congestion-control state (relay hops are keyed by
  /// negative hop coordinates).
  std::map<std::pair<int, int>, CcState> cc_;
  /// Links whose retry budget has been exhausted.
  std::set<std::pair<int, int>> dead_links_;
  std::vector<RetransmitStash> stash_;
};

}  // namespace emc::reliable
