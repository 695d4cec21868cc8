// Heterogeneous / hostile network extensions for the simulated fabric.
//
// The baseline cluster model is a uniform trusted LAN: every inter-node
// pair shares one NetworkProfile and one global FaultPlan. This header
// adds the hostile-network scenario pack:
//
//   * LinkProfile / LinkSpec — per-directed-node-pair overrides (WAN
//     links with high RTT, asymmetric bandwidth, seeded latency jitter,
//     their own FaultPlan, and deterministic background cross-traffic),
//   * RouteSpec — multi-hop relayed routes through intermediate nodes
//     that store-and-forward every payload (the untrusted-overlay
//     topology; trust policy lives in the secure layer, see
//     net::RelayPolicy and secure::RelayTrust),
//   * RelayPolicy — what an intermediate hop does to a payload in
//     flight (per-hop processing surcharge, per-hop integrity checks).
//
// Everything stays deterministic: jitter draws and cross-traffic burst
// schedules are pure SplitMix64 functions of (seed, link, index), so a
// fixed configuration replays byte-identically — the same property the
// fault injector guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "emc/netsim/fault.hpp"
#include "emc/netsim/profile.hpp"

namespace emc::net {

/// Deterministic background cross-traffic on one directed link: a
/// seeded burst process that occupies the link's NIC independently of
/// the simulated application. Burst k starts at a seeded time near
/// k * period and carries a seeded size near burst_bytes; both are
/// jittered by +-`jitter` relative variation. The schedule is a pure
/// function of (seed, link, k) — no RNG state, no clock.
struct CrossTraffic {
  std::uint64_t seed = 1;
  double period = 0.0;          ///< mean seconds between bursts; 0 = off
  std::size_t burst_bytes = 0;  ///< mean bytes per burst; 0 = off
  double jitter = 0.5;          ///< relative variation of period/size, [0, 1)

  [[nodiscard]] bool enabled() const noexcept {
    return period > 0.0 && burst_bytes > 0;
  }

  /// Throws std::invalid_argument on out-of-range values, including a
  /// mean utilization >= 1 of a link of @p link_bandwidth bytes/s
  /// (cross traffic that saturates the link forever would starve every
  /// application message — reject it up front instead of hanging).
  void validate(double link_bandwidth) const;
};

/// Per-directed-link override of the uniform fabric. Applies to every
/// message whose (source node -> destination node) pair matches a
/// LinkSpec, including individual hops of a multi-hop route.
struct LinkProfile {
  /// Wire timing/contention model of this link (replaces the cluster's
  /// `inter` profile). Asymmetric links are two LinkSpecs — one per
  /// direction — with different bandwidths.
  NetworkProfile net = ethernet_10g();

  /// Upper bound of the seeded extra one-way latency added per message
  /// (uniform in [0, jitter)); 0 disables jitter. Jittered arrivals
  /// are clamped to stay monotone per link: a FIFO link never
  /// reorders its envelopes.
  double jitter = 0.0;

  /// Seed of the jitter stream (independent of faults/cross seeds).
  std::uint64_t seed = 1;

  /// Per-link fault plan. When enabled it *replaces* the cluster-wide
  /// plan for traffic on this link; a disabled plan inherits the
  /// cluster plan.
  FaultPlan faults;

  /// Deterministic background load on this link.
  CrossTraffic cross;

  /// Throws std::invalid_argument on out-of-range rates (negative
  /// latency/jitter, non-positive bandwidth, invalid fault
  /// probabilities, over-saturating cross traffic).
  void validate() const;
};

/// Binds a LinkProfile to one directed node pair. At most one spec per
/// (src_node, dst_node); src_node != dst_node (intra-node transport is
/// not overridable — it models the memory bus, not a wire).
struct LinkSpec {
  int src_node = 0;
  int dst_node = 1;
  LinkProfile profile;
};

/// Multi-hop relayed route: traffic from src_node to dst_node is
/// store-and-forwarded through the `via` nodes in order instead of
/// using the direct link. Routes are directional — configure both
/// directions for bidirectional relaying. Each hop uses that node
/// pair's LinkSpec override when one exists, else the cluster `inter`
/// profile, and (with the ARQ layer on) runs its own per-hop
/// retransmission dialogue.
struct RouteSpec {
  int src_node = 0;
  int dst_node = 1;
  std::vector<int> via;  ///< intermediate node ids, in forwarding order
};

/// What an intermediate hop does to a relayed payload. Installed on
/// the communicator by the layer that owns the trust decision
/// (secure::SecureComm maps its RelayTrust policy here); the default
/// is a transparent store-and-forward relay.
struct RelayPolicy {
  /// Per-relay processing surcharge, affine in the payload size
  /// (virtual seconds): fixed + bytes * per_byte. Hop-trusted secure
  /// relays pay a decrypt + re-encrypt here; end-to-end relays forward
  /// sealed bytes for free.
  double per_hop_fixed = 0.0;
  double per_hop_byte = 0.0;

  /// When true, every hop verifies payload integrity on arrival (the
  /// hop-trusted re-authentication), so corruption is caught and
  /// NACKed at the faulty hop instead of riding to the destination.
  bool hop_integrity = false;

  [[nodiscard]] double hop_delay(std::size_t bytes) const noexcept {
    return per_hop_fixed + static_cast<double>(bytes) * per_hop_byte;
  }
};

/// Metro-area WAN path: ~2 ms one-way, 1 Gb/s, socket-stack overheads.
[[nodiscard]] NetworkProfile wan_metro();

/// Continental WAN path: ~40 ms one-way, 200 Mb/s — the regime of the
/// light-weight wide-area communication-library study (arXiv
/// 1008.2767), where RTT dwarfs serialization.
[[nodiscard]] NetworkProfile wan_continental();

/// Convenience: a lossy WAN link with seeded loss and latency jitter.
[[nodiscard]] LinkProfile wan_link(NetworkProfile base, double p_drop,
                                   double jitter, std::uint64_t seed);

}  // namespace emc::net
