#include "emc/reliable/reliable.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace emc::reliable {

namespace {

/// SplitMix64 finalizer — same avalanche the fault injector uses, so
/// the jitter stream is a pure function of (seed, link, seq, attempt).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr double unit_double(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t link_key(int src, int dst) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
}

void check_positive(double v, const char* name) {
  if (v <= 0.0) {
    throw std::invalid_argument(std::string("reliable::Config: ") + name +
                                " must be positive");
  }
}

}  // namespace

void Config::validate() const {
  if (!enabled) return;
  if (max_retries < 1) {
    throw std::invalid_argument(
        "reliable::Config: max_retries must be at least 1");
  }
  check_positive(rto_initial, "rto_initial");
  check_positive(rto_max, "rto_max");
  if (rto_max < rto_initial) {
    throw std::invalid_argument(
        "reliable::Config: rto_max must be >= rto_initial");
  }
  if (backoff < 1.0) {
    throw std::invalid_argument("reliable::Config: backoff must be >= 1");
  }
  if (jitter < 0.0 || jitter >= 1.0) {
    throw std::invalid_argument(
        "reliable::Config: jitter must be in [0, 1)");
  }
  if (cwnd_initial < 1) {
    throw std::invalid_argument(
        "reliable::Config: cwnd_initial must be at least 1");
  }
  if (cwnd_limit < cwnd_initial) {
    throw std::invalid_argument(
        "reliable::Config: cwnd_limit must be >= cwnd_initial");
  }
  if (rto_min < 0.0) {
    throw std::invalid_argument(
        "reliable::Config: rto_min must be non-negative");
  }
}

Channel::Channel(const Config& config, net::Fabric& fabric)
    : config_(config),
      fabric_(&fabric),
      stash_(static_cast<std::size_t>(fabric.config().total_ranks())) {
  config_.validate();
}

double Channel::rto(int src, int dst, std::uint64_t seq, int attempt) const {
  double base = config_.rto_initial;
  for (int k = 0; k < attempt; ++k) {
    base = std::min(base * config_.backoff, config_.rto_max);
  }
  base = std::min(base, config_.rto_max);
  if (config_.jitter == 0.0) return base;
  const std::uint64_t h =
      mix64(config_.seed ^ mix64(link_key(src, dst) ^ mix64(seq) ^
                                 static_cast<std::uint64_t>(attempt)));
  const double factor = 1.0 + config_.jitter * (2.0 * unit_double(h) - 1.0);
  return base * factor;
}

Channel::CcState& Channel::cc_state(int a, int b) {
  auto [it, inserted] = cc_.try_emplace({a, b});
  if (inserted) {
    // kFixedRto has no AIMD: it always runs the full window.
    it->second.cwnd = config_.transport == Transport::kAdaptive
                          ? static_cast<double>(config_.cwnd_initial)
                          : static_cast<double>(config_.cwnd_limit);
    it->second.ssthresh = static_cast<double>(config_.cwnd_limit);
  }
  return it->second;
}

void Channel::rtt_sample(CcState& cc, double sample) {
  // RFC 6298: SRTT/RTTVAR with alpha = 1/8, beta = 1/4.
  if (!cc.seeded) {
    cc.srtt = sample;
    cc.rttvar = sample / 2.0;
    cc.seeded = true;
  } else {
    const double err = std::abs(cc.srtt - sample);
    cc.rttvar = 0.75 * cc.rttvar + 0.25 * err;
    cc.srtt = 0.875 * cc.srtt + 0.125 * sample;
  }
  ++stats_.rtt_samples;
}

void Channel::cc_on_loss(CcState& cc) {
  cc.ssthresh = std::max(cc.cwnd / 2.0, 2.0);
  cc.cwnd = cc.ssthresh;
  ++stats_.cwnd_halvings;
}

void Channel::cc_on_ack(CcState& cc) {
  if (cc.cwnd < cc.ssthresh) {
    cc.cwnd += 1.0;  // slow start
  } else {
    cc.cwnd += 1.0 / cc.cwnd;  // congestion avoidance
  }
  cc.cwnd = std::min(cc.cwnd, static_cast<double>(config_.cwnd_limit));
}

double Channel::transport_rto(const CcState& cc,
                              const net::NetworkProfile& prof, int a, int b,
                              std::uint64_t seq, int attempt) const {
  if (config_.transport != Transport::kAdaptive) {
    return rto(a, b, seq, attempt);
  }
  // Adaptive base: SRTT + max(G, 4 * RTTVAR) once seeded (RFC 6298,
  // with rto_min doubling as the clock granularity G so a fully
  // converged RTTVAR can never shave the timer to exactly the RTT);
  // before the first sample, fall back to twice the nominal path RTT
  // so a WAN link never starts below its own propagation delay.
  // Retries back off uncapped (Karn) — max_retries bounds the ladder.
  double base =
      cc.seeded
          ? std::max(config_.rto_min,
                     cc.srtt + std::max(config_.rto_min, 4.0 * cc.rttvar))
          : std::max(config_.rto_min, 4.0 * prof.latency);
  for (int k = 0; k < attempt; ++k) base *= config_.backoff;
  if (config_.jitter == 0.0) return base;
  const std::uint64_t h =
      mix64(config_.seed ^ mix64(link_key(a, b) ^ mix64(seq) ^
                                 static_cast<std::uint64_t>(attempt)));
  return base * (1.0 + config_.jitter * (2.0 * unit_double(h) - 1.0));
}

/// One stretch of a frame's way under one ARQ dialogue: a whole direct
/// link between two ranks, or one hop of a relay route between nodes.
struct Channel::Leg {
  int a = 0;          ///< sending rank (direct link) or node (hop)
  int b = 0;          ///< receiving rank or node
  int ia = 0;         ///< sender coordinate in the injector/RTO/cc streams
  int ib = 0;         ///< receiver coordinate
  bool hop = false;   ///< reserved through reserve_hop (flow ia)
  bool relay = false; ///< a hop that leaves a relay node
  net::FaultInjector* faults = nullptr;
  const net::NetworkProfile* fwd = nullptr;
  const net::NetworkProfile* rev = nullptr;
  CcState* cc = nullptr;
};

/// How one frame got across one leg.
struct Channel::Crossing {
  bool delivered = false;   ///< false: the retry budget ran out
  int attempt = 0;          ///< the attempt whose copy was accepted
  bool spurious = false;    ///< open loop: a late copy provoked a resend
  double start = 0.0;       ///< wire start of the accepted attempt
  double timer = 0.0;       ///< its RTO
  double ideal = 0.0;       ///< arrival of the first copy
  double queue_delay = 0.0; ///< NIC queueing of the first copy
  double accepted = 0.0;    ///< when the accepted copy lands
  net::FaultDecision damage;  ///< kCorrupt when it landed damaged
};

Channel::Leg Channel::leg_of(int src, int dst,
                             const std::vector<int>& route, std::size_t i) {
  if (route.empty()) {
    return {.a = src,
            .b = dst,
            .ia = src,
            .ib = dst,
            .faults = fabric_->faults_for(src, dst),
            .fwd = &fabric_->profile(src, dst),
            .rev = &fabric_->profile(dst, src),
            .cc = &cc_state(src, dst)};
  }
  // Relay hops are identified by negative coordinates (-2 - node) in
  // the injector/RTO/cc hash streams so they can never collide with a
  // rank id or the FaultTrigger -1 wildcard.
  const int a = route[i];
  const int b = route[i + 1];
  const int ia = i == 0 ? src : -2 - a;
  const int ib = i + 2 == route.size() ? dst : -2 - b;
  return {.a = a,
          .b = b,
          .ia = ia,
          .ib = ib,
          .hop = true,
          .relay = i > 0,
          .faults = fabric_->faults_for_hop(a, b),
          .fwd = &fabric_->hop_profile(a, b),
          .rev = &fabric_->hop_profile(b, a),
          .cc = &cc_state(ia, ib)};
}

Channel::Crossing Channel::cross(const Leg& leg, Delivery& out,
                                 std::size_t bytes, double t,
                                 bool nack_corrupt, bool open_loop) {
  const bool adaptive = config_.transport == Transport::kAdaptive;
  const auto reserve = [&](bool back, std::size_t n, double at) {
    const int from = back ? leg.b : leg.a;
    const int to = back ? leg.a : leg.b;
    return leg.hop ? fabric_->reserve_hop(from, to, leg.ia, n, at)
                   : fabric_->reserve_path(from, to, n, at);
  };
  Crossing c;
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    ++out.transmissions;
    ++stats_.data_frames;
    if (leg.relay) ++stats_.relay_frames;
    if (attempt > 0) ++stats_.retransmits;
    const net::PathTimes path = reserve(false, bytes, t);
    if (attempt == 0) {
      c.queue_delay = path.queue_delay;
      c.ideal = path.arrival;
    }
    const double timer =
        transport_rto(*leg.cc, *leg.fwd, leg.ia, leg.ib, out.seq, attempt);
    const net::FaultDecision d = leg.faults != nullptr
                                     ? leg.faults->next(leg.ia, leg.ib, bytes)
                                     : net::FaultDecision{};

    switch (d.kind) {
      case net::FaultKind::kNone:
      case net::FaultKind::kRankCrash:  // not a wire fault; never drawn
        c.accepted = path.arrival;
        break;
      case net::FaultKind::kDelay:
        // The copy is intact but late. Open loop: if the spike outlives
        // the RTO the sender retransmits spuriously; the earlier
        // arrival wins and the other copy is absorbed by the sequence
        // window. Clocked: the caller's timer-vs-ACK race models it.
        c.accepted = path.arrival + d.delay_seconds;
        if (open_loop && d.delay_seconds > timer) {
          ++out.transmissions;
          ++stats_.data_frames;
          ++stats_.spurious_retransmits;
          ++stats_.duplicates_suppressed;
          c.spurious = true;
          c.accepted =
              std::min(c.accepted, reserve(false, bytes, t + timer).arrival);
        }
        ++stats_.delays_absorbed;
        break;
      case net::FaultKind::kDuplicate:
        // Both copies cross the wire; the second is suppressed by the
        // receiver's sequence window (it still occupies the NIC).
        (void)reserve(false, bytes, path.arrival);
        ++stats_.duplicates_suppressed;
        c.accepted = path.arrival;
        break;
      case net::FaultKind::kDrop:
        // Nothing arrives; the sender's RTO fires and the frame is
        // retransmitted after the backoff interval.
        ++stats_.rto_expirations;
        if (adaptive) cc_on_loss(*leg.cc);
        t += timer;
        continue;
      case net::FaultKind::kCorrupt:
        if (!nack_corrupt) {
          // Integrity is deferred to the destination's upper layer:
          // the damaged copy is delivered and, if that layer
          // authenticates, recovered through e2e_recover.
          c.damage = d;
          c.accepted = path.arrival;
          break;
        }
        [[fallthrough]];  // caught on arrival: NACKed like a truncation
      case net::FaultKind::kTruncate:
        // The header length field exposes the truncation at the
        // receiving link layer, which NACKs; the sender retransmits as
        // soon as the NACK lands.
        ++stats_.link_nacks;
        if (adaptive) cc_on_loss(*leg.cc);
        t = reserve(true, kCtrlBytes, path.arrival).arrival;
        continue;
    }
    c.delivered = true;
    c.attempt = attempt;
    c.start = path.start;
    c.timer = timer;
    return c;
  }
  return c;
}

double Channel::window_gate(CcState& cc, double t) {
  // Ack-clocked window gate: every un-ACKed frame occupies one window
  // slot; a full window stalls the sender until the earliest
  // outstanding ACK returns.
  while (!cc.inflight.empty() && *cc.inflight.begin() <= t) {
    cc.inflight.erase(cc.inflight.begin());
  }
  while (static_cast<int>(cc.inflight.size()) >=
         std::max(1, static_cast<int>(cc.cwnd))) {
    const double wake = *cc.inflight.begin();
    cc.inflight.erase(cc.inflight.begin());
    if (wake > t) {
      ++stats_.window_stalls;
      stats_.window_stall_seconds += wake - t;
      t = wake;
    }
  }
  return t;
}

void Channel::ack_race(const Leg& leg, const Crossing& c, std::size_t bytes,
                       Delivery& out) {
  CcState& cc = *leg.cc;
  // The ACK crosses back on the reverse profile; it is modeled
  // analytically (latency + serialization, no NIC reservation) so tiny
  // control frames do not perturb the reverse data path. NACKs DO
  // reserve the NIC — they gate forward progress.
  const double ack_time =
      c.accepted + leg.rev->latency +
      static_cast<double>(kCtrlBytes) / leg.rev->bandwidth;

  // Spurious-retransmit race: the sender's timer keeps firing until
  // the ACK lands; every extra copy burns real NIC time and is
  // absorbed by the receiver's sequence window. On a WAN path whose
  // RTT exceeds the fixed rto_max this fires on EVERY frame — the
  // failure mode the adaptive transport exists to avoid. The timer
  // arms when the frame hits the wire, as TCP's does — not when the
  // application handed it to a possibly-backlogged NIC.
  double timer_start = c.start;
  double r = c.timer;
  int spur = 0;
  int ladder = c.attempt;
  while (timer_start + r < ack_time && spur < config_.max_retries) {
    ++spur;
    ++out.transmissions;
    ++stats_.data_frames;
    ++stats_.spurious_retransmits;
    ++stats_.duplicates_suppressed;
    (void)fabric_->reserve_path(leg.a, leg.b, bytes, timer_start + r);
    timer_start += r;
    ++ladder;
    r = transport_rto(cc, *leg.fwd, leg.ia, leg.ib, out.seq, ladder);
  }

  if (config_.transport == Transport::kAdaptive) {
    // Karn's rule: only a frame that was transmitted exactly once
    // yields an unambiguous RTT sample — measured from the wire
    // transmission, so sender-side NIC queueing does not masquerade
    // as path RTT.
    if (c.attempt == 0 && spur == 0) rtt_sample(cc, ack_time - c.start);
    if (c.attempt == 0) cc_on_ack(cc);
  }
  cc.inflight.insert(ack_time);
}

Delivery Channel::deliver(int src, int dst, std::size_t bytes,
                          double send_time, bool frame_checksummed,
                          const net::RelayPolicy& relay) {
  Delivery out;
  out.seq = next_seq(src, dst);

  if (link_dead(src, dst)) {
    out.result = Delivery::Result::kDeadLink;
    return out;
  }

  // A direct link is one leg, a relay route one leg per hop. Legs run
  // open loop, except that a clocked transport on a direct link gates
  // on its window and races the ACK. Per-hop integrity (hop-trusted
  // relays re-authenticate) NACKs corruption at the faulty hop; a
  // direct link NACKs it only on link-checksummed frames.
  const bool routed = fabric_->relayed(src, dst);
  const std::vector<int> route =
      routed ? fabric_->path_nodes(src, dst) : std::vector<int>{};
  const std::size_t legs = routed ? route.size() - 1 : 1;
  const bool clocked = !routed && config_.transport != Transport::kAnalytic;
  const bool nack_corrupt =
      frame_checksummed || (routed && relay.hop_integrity);

  double t = send_time;
  double first_leg_arrival = 0.0;
  double penalty = 0.0;
  bool retransmitted = false;
  for (std::size_t i = 0; i < legs; ++i) {
    const Leg leg = leg_of(src, dst, route, i);
    if (clocked) t = window_gate(*leg.cc, t);
    const Crossing c = cross(leg, out, bytes, t, nack_corrupt, !clocked);
    if (!c.delivered) {
      // One saturated hop kills the end-to-end path: same graceful
      // degradation as a direct link (tombstones + PeerUnreachable).
      mark_link_dead(src, dst);
      out.result = Delivery::Result::kDeadLink;
      return out;
    }
    if (clocked) {
      ack_race(leg, c, bytes, out);
    } else if (config_.transport == Transport::kAdaptive && c.attempt == 0 &&
               !c.spurious) {
      // Open-loop hops still learn their RTT for the adaptive timer.
      rtt_sample(*leg.cc, (c.accepted - t) + leg.rev->latency +
                              static_cast<double>(kCtrlBytes) /
                                  leg.rev->bandwidth);
    }
    // The damage rides the rest of the route: later hops forward the
    // already-damaged bytes, so the first damage wins.
    if (c.damage.kind == net::FaultKind::kCorrupt &&
        out.result == Delivery::Result::kDelivered) {
      out.result = Delivery::Result::kDeliveredDamaged;
      out.damage = c.damage;
    }
    retransmitted = retransmitted || c.attempt > 0;
    penalty += c.accepted - c.ideal;
    t = c.accepted;
    if (i == 0) {
      out.queue_delay = c.queue_delay;
      first_leg_arrival = t;
    } else {
      ++stats_.relay_deliveries;
    }
    if (i + 1 < legs) t += relay.hop_delay(bytes);
  }

  out.arrival = t;
  out.relay_delay = t - first_leg_arrival;
  if (out.result == Delivery::Result::kDeliveredDamaged) {
    ++stats_.damaged_deliveries;
  }
  ++stats_.deliveries;
  if (retransmitted) {
    ++stats_.recoveries;
    stats_.recovery_delay_total += penalty;
  }
  return out;
}

double Channel::e2e_recover(int src, int dst, std::size_t bytes, double now,
                            std::uint32_t already_spent,
                            const net::RelayPolicy& relay) {
  if (link_dead(src, dst)) throw PeerUnreachable(src, dst, already_spent);

  net::FaultInjector* faults = fabric_->faults_for(src, dst);
  std::uint32_t attempts = already_spent;
  double t = now;

  // Outer loop: one end-to-end NACK round per upper-layer detection.
  // Inner loop: the sender's retransmissions until a copy arrives.
  for (;;) {
    ++stats_.e2e_nacks;
    double t_send = fabric_
                        ->reserve_route(dst, src, kCtrlBytes, t,
                                        relay.hop_delay(kCtrlBytes))
                        .arrival;
    for (int attempt = 0;; ++attempt) {
      if (attempts >= static_cast<std::uint32_t>(config_.max_retries) + 1) {
        mark_link_dead(src, dst);
        throw PeerUnreachable(src, dst, attempts);
      }
      ++attempts;
      ++stats_.data_frames;
      ++stats_.retransmits;
      const net::PathTimes path = fabric_->reserve_route(
          src, dst, bytes, t_send, relay.hop_delay(bytes));
      const net::FaultDecision d =
          faults != nullptr ? faults->next(src, dst, bytes)
                            : net::FaultDecision{};
      switch (d.kind) {
        case net::FaultKind::kDrop:
          ++stats_.rto_expirations;
          t_send += rto(src, dst, /*seq=*/attempts, attempt);
          continue;
        case net::FaultKind::kTruncate:
          ++stats_.link_nacks;
          t_send = fabric_
                       ->reserve_route(dst, src, kCtrlBytes,
                                       path.arrival,
                                       relay.hop_delay(kCtrlBytes))
                       .arrival;
          continue;
        case net::FaultKind::kCorrupt:
          // Damaged again: the upper layer will fail authentication at
          // arrival and issue the next NACK round.
          t = path.arrival;
          break;
        case net::FaultKind::kDuplicate:
          (void)fabric_->reserve_route(src, dst, bytes, path.arrival,
                                       relay.hop_delay(bytes));
          ++stats_.duplicates_suppressed;
          ++stats_.recoveries;
          stats_.recovery_delay_total += path.arrival - now;
          return path.arrival;
        case net::FaultKind::kDelay:
          ++stats_.delays_absorbed;
          ++stats_.recoveries;
          stats_.recovery_delay_total += path.arrival + d.delay_seconds - now;
          return path.arrival + d.delay_seconds;
        case net::FaultKind::kNone:
        case net::FaultKind::kRankCrash:  // not a wire fault; never drawn
          ++stats_.recoveries;
          stats_.recovery_delay_total += path.arrival - now;
          return path.arrival;
      }
      break;  // kCorrupt: back to the outer NACK loop
    }
  }
}

}  // namespace emc::reliable
