// Cluster fabric: maps ranks to nodes, owns per-node NIC arbiters, and
// computes message path timings in virtual time.
//
// All state is mutated only by the currently running simulated process
// (the sim engine runs one process at a time), so no locking is needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "emc/netsim/fault.hpp"
#include "emc/netsim/profile.hpp"
#include "emc/netsim/wan.hpp"

namespace emc::net {

/// Static description of the simulated cluster.
struct ClusterConfig {
  int num_nodes = 1;
  int ranks_per_node = 1;
  NetworkProfile inter = ethernet_10g();
  NetworkProfile intra = intra_node();

  /// Wire fault model (disabled unless probabilities/triggers are set).
  FaultPlan faults;

  /// Per-directed-node-pair link overrides (WAN links, asymmetric
  /// bandwidth, seeded jitter, per-link faults, cross-traffic). Empty
  /// keeps the uniform fabric. Validated at Fabric construction: at
  /// most one spec per directed pair, nodes in range, rates sane.
  std::vector<LinkSpec> links;

  /// Multi-hop relayed routes (see RouteSpec). Traffic between ranks
  /// whose node pair matches a route is store-and-forwarded through
  /// the intermediate nodes. Empty keeps direct delivery.
  std::vector<RouteSpec> routes;

  [[nodiscard]] int total_ranks() const noexcept {
    return num_nodes * ranks_per_node;
  }
};

/// Result of reserving the egress path for one message.
struct PathTimes {
  double start = 0.0;        ///< when the NIC begins serializing the bytes
  double egress_done = 0.0;  ///< when the sender-side buffer is free
  double arrival = 0.0;      ///< when the last byte reaches the receiver
  double queue_delay = 0.0;  ///< start - earliest: time queued at the NIC
  /// Relayed routes only: virtual seconds spent beyond the first hop
  /// (store-and-forward through the intermediate nodes, including any
  /// per-relay processing surcharge). 0 on direct paths. The receiver
  /// attributes this span to trace::Category::kRelayForward.
  double relay_delay = 0.0;
};

class Fabric {
 public:
  explicit Fabric(ClusterConfig config);

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] int node_of(int rank) const {
    check_rank(rank);
    return rank / config_.ranks_per_node;
  }

  [[nodiscard]] bool same_node(int a, int b) const {
    return node_of(a) == node_of(b);
  }

  /// Profile governing traffic between two ranks (the link override's
  /// profile when the node pair has one).
  [[nodiscard]] const NetworkProfile& profile(int src, int dst) const;

  /// Profile of the directed (src_node -> dst_node) inter-node link.
  [[nodiscard]] const NetworkProfile& hop_profile(int src_node,
                                                  int dst_node) const;

  /// Reserves the sender-side NIC for a @p bytes message from @p src
  /// to @p dst, no earlier than @p earliest, applying FIFO bandwidth
  /// sharing and the profile's contention model. Advances the NIC
  /// "next free" pointer; returns the path timing. CPU-side costs
  /// (software overheads, eager copies) are charged by the caller.
  /// Single-link only: multi-hop routes are ignored (see
  /// reserve_route).
  PathTimes reserve_path(int src, int dst, std::size_t bytes, double earliest);

  /// Route-aware reservation: like reserve_path, but when the rank
  /// pair's node pair matches a RouteSpec the payload is chained
  /// store-and-forward through every hop, paying @p per_relay_delay
  /// extra virtual seconds at each intermediate node (the relay
  /// processing surcharge — see RelayPolicy). egress_done and
  /// queue_delay describe the first hop (the sender's NIC);
  /// arrival/relay_delay describe the full route.
  PathTimes reserve_route(int src, int dst, std::size_t bytes,
                          double earliest, double per_relay_delay = 0.0);

  /// Reserves one directed inter-node hop (used by the per-hop ARQ).
  /// @p flow identifies the sending entity for the contention model.
  PathTimes reserve_hop(int src_node, int dst_node, int flow,
                        std::size_t bytes, double earliest);

  /// The route governing (src_node -> dst_node) traffic, or nullptr.
  [[nodiscard]] const RouteSpec* route_for(int src_node,
                                           int dst_node) const;

  /// Node sequence a (src -> dst) payload crosses, endpoints included
  /// (size 1 intra-node, 2 direct, 3+ relayed).
  [[nodiscard]] std::vector<int> path_nodes(int src, int dst) const;

  /// True when (src -> dst) rank traffic crosses at least one relay.
  [[nodiscard]] bool relayed(int src, int dst) const;

  /// Number of intermediate relay nodes on the (src -> dst) path.
  [[nodiscard]] int relay_count(int src, int dst) const;

  /// Number of distinct source ranks with transfers still in flight
  /// through src's relevant NIC at time @p at. Exposed for tests of
  /// the contention model.
  [[nodiscard]] int active_flows(int src, int dst, double at) const;

  /// Installs @p plan, replacing any active injector (a plan with no
  /// probabilities and no triggers uninstalls it). Validates the plan
  /// even when disabled.
  void set_fault_plan(const FaultPlan& plan);

  /// The cluster-wide fault injector, or nullptr when no cluster plan
  /// is active. Per-link plans (LinkProfile::faults) live on their
  /// links — use faults_for for the injector governing a rank pair.
  [[nodiscard]] FaultInjector* faults() noexcept { return injector_.get(); }

  /// The injector governing (src -> dst) rank traffic: the node
  /// pair's per-link injector when its LinkSpec carries an enabled
  /// plan, else the cluster-wide injector (may be nullptr).
  [[nodiscard]] FaultInjector* faults_for(int src, int dst);

  /// Same, for one directed inter-node hop of a relayed route.
  [[nodiscard]] FaultInjector* faults_for_hop(int src_node, int dst_node);

  /// Accounting hook for the secure layer's exposure counting: called
  /// by the communicator once per payload delivery that crossed
  /// @p relays intermediate nodes. Under a hop-trusted relay policy
  /// every such crossing exposes plaintext to the relay operator.
  void note_relay_exposure(int relays) noexcept {
    relay_exposures_ += static_cast<std::uint64_t>(relays);
  }
  [[nodiscard]] std::uint64_t relay_exposures() const noexcept {
    return relay_exposures_;
  }

 private:
  struct Nic {
    double next_free = 0.0;
    /// (source rank, completion time) of recent transfers; used to
    /// count concurrent *flows* for the contention model.
    std::vector<std::pair<int, double>> active;
  };

  /// Mutable state of one overridden directed link.
  struct LinkState {
    const LinkSpec* spec = nullptr;  ///< into config_.links (stable)
    Nic nic;
    std::uint64_t msg_count = 0;     ///< jitter draw index
    double last_arrival = 0.0;       ///< FIFO reorder guard watermark
    std::uint64_t cross_emitted = 0; ///< cross-traffic bursts consumed
    double cross_next = 0.0;         ///< next burst start time
    std::unique_ptr<FaultInjector> injector;  ///< per-link plan, if any
  };

  void check_rank(int rank) const {
    if (rank < 0 || rank >= config_.total_ranks()) {
      throw std::out_of_range("rank out of range");
    }
  }

  void validate_topology() const;

  Nic& nic_for(int src, int dst);
  [[nodiscard]] const Nic& nic_for(int src, int dst) const;

  [[nodiscard]] LinkState* link_state(int src_node, int dst_node);
  [[nodiscard]] const LinkState* link_state(int src_node,
                                            int dst_node) const;

  /// Shared FIFO + contention reservation core.
  PathTimes reserve_core(Nic& nic, const NetworkProfile& prof, int flow,
                         std::size_t bytes, double earliest);

  /// Reservation on an overridden link: cross-traffic drain, core
  /// reservation, seeded jitter, FIFO reorder guard.
  PathTimes reserve_link(LinkState& ls, int flow, std::size_t bytes,
                         double earliest);

  ClusterConfig config_;
  std::vector<Nic> inter_nics_;  // one per node
  std::vector<Nic> intra_nics_;  // one per node (memory bus)
  std::map<std::pair<int, int>, LinkState> links_;  // overridden pairs
  std::map<std::pair<int, int>, const RouteSpec*> routes_;
  std::unique_ptr<FaultInjector> injector_;
  std::uint64_t relay_exposures_ = 0;
};

}  // namespace emc::net
