#include "emc/netsim/fabric.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace emc::net {

namespace {

// SplitMix64 finalizer — the same hash family the fault injector uses,
// so every per-link draw is a pure function of (seed, link, index).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_double(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t link_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
}

}  // namespace

Fabric::Fabric(ClusterConfig config) : config_(std::move(config)) {
  if (config_.num_nodes < 1 || config_.ranks_per_node < 1) {
    throw std::invalid_argument("cluster must have >=1 node and >=1 rank/node");
  }
  validate_topology();
  inter_nics_.resize(static_cast<std::size_t>(config_.num_nodes));
  intra_nics_.resize(static_cast<std::size_t>(config_.num_nodes));
  for (const LinkSpec& spec : config_.links) {
    LinkState& ls = links_[{spec.src_node, spec.dst_node}];
    ls.spec = &spec;
    if (spec.profile.faults.enabled()) {
      ls.injector = std::make_unique<FaultInjector>(spec.profile.faults);
    }
    if (spec.profile.cross.enabled()) {
      // First burst lands near one mean period in, jittered like every
      // later gap, so t=0 traffic is not systematically penalized.
      const std::uint64_t h =
          mix64(spec.profile.cross.seed ^
                mix64(link_key(spec.src_node, spec.dst_node)));
      ls.cross_next = spec.profile.cross.period *
                      (1.0 + spec.profile.cross.jitter *
                                 (2.0 * unit_double(h) - 1.0));
    }
  }
  for (const RouteSpec& route : config_.routes) {
    routes_[{route.src_node, route.dst_node}] = &route;
  }
  set_fault_plan(config_.faults);
}

void Fabric::validate_topology() const {
  const auto check_node = [this](int node, const char* what) {
    if (node < 0 || node >= config_.num_nodes) {
      throw std::invalid_argument(std::string(what) + " node " +
                                  std::to_string(node) +
                                  " out of range [0, " +
                                  std::to_string(config_.num_nodes) + ")");
    }
  };

  // Satellite hardening: validate the cluster-wide plan even when it is
  // disabled — a silently out-of-range probability must not lurk until
  // someone flips the plan on.
  config_.faults.validate();

  std::set<std::pair<int, int>> seen_links;
  for (const LinkSpec& spec : config_.links) {
    check_node(spec.src_node, "LinkSpec source");
    check_node(spec.dst_node, "LinkSpec destination");
    if (spec.src_node == spec.dst_node) {
      throw std::invalid_argument(
          "LinkSpec: src_node == dst_node (intra-node transport models "
          "the memory bus and is not overridable)");
    }
    if (!seen_links.insert({spec.src_node, spec.dst_node}).second) {
      throw std::invalid_argument(
          "duplicate LinkSpec for directed pair (" +
          std::to_string(spec.src_node) + " -> " +
          std::to_string(spec.dst_node) + ")");
    }
    spec.profile.validate();
  }

  std::set<std::pair<int, int>> seen_routes;
  for (const RouteSpec& route : config_.routes) {
    check_node(route.src_node, "RouteSpec source");
    check_node(route.dst_node, "RouteSpec destination");
    if (route.src_node == route.dst_node) {
      throw std::invalid_argument("RouteSpec: src_node == dst_node");
    }
    if (route.via.empty()) {
      throw std::invalid_argument(
          "RouteSpec: via is empty (a route with no relays is the direct "
          "link; omit the route instead)");
    }
    if (!seen_routes.insert({route.src_node, route.dst_node}).second) {
      throw std::invalid_argument(
          "duplicate RouteSpec for directed pair (" +
          std::to_string(route.src_node) + " -> " +
          std::to_string(route.dst_node) + ")");
    }
    std::set<int> hops;
    for (int hop : route.via) {
      check_node(hop, "RouteSpec relay");
      if (hop == route.src_node || hop == route.dst_node) {
        throw std::invalid_argument(
            "RouteSpec: relay node " + std::to_string(hop) +
            " is a route endpoint");
      }
      if (!hops.insert(hop).second) {
        throw std::invalid_argument("RouteSpec: relay node " +
                                    std::to_string(hop) +
                                    " appears twice on one route");
      }
    }
  }
}

void Fabric::set_fault_plan(const FaultPlan& plan) {
  plan.validate();
  injector_ = plan.enabled() ? std::make_unique<FaultInjector>(plan) : nullptr;
}

const Fabric::LinkState* Fabric::link_state(int src_node,
                                            int dst_node) const {
  const auto it = links_.find({src_node, dst_node});
  return it == links_.end() ? nullptr : &it->second;
}

Fabric::LinkState* Fabric::link_state(int src_node, int dst_node) {
  return const_cast<LinkState*>(
      std::as_const(*this).link_state(src_node, dst_node));
}

const NetworkProfile& Fabric::profile(int src, int dst) const {
  if (same_node(src, dst)) return config_.intra;
  if (const LinkState* ls = link_state(node_of(src), node_of(dst))) {
    return ls->spec->profile.net;
  }
  return config_.inter;
}

const NetworkProfile& Fabric::hop_profile(int src_node, int dst_node) const {
  if (const LinkState* ls = link_state(src_node, dst_node)) {
    return ls->spec->profile.net;
  }
  return config_.inter;
}

const Fabric::Nic& Fabric::nic_for(int src, int dst) const {
  const auto node = static_cast<std::size_t>(node_of(src));
  if (same_node(src, dst)) return intra_nics_[node];
  if (const LinkState* ls = link_state(node_of(src), node_of(dst))) {
    return ls->nic;
  }
  return inter_nics_[node];
}

Fabric::Nic& Fabric::nic_for(int src, int dst) {
  return const_cast<Nic&>(std::as_const(*this).nic_for(src, dst));
}

int Fabric::active_flows(int src, int dst, double at) const {
  const Nic& nic = nic_for(src, dst);
  std::vector<int> sources;
  for (const auto& [source, end] : nic.active) {
    if (end > at &&
        std::find(sources.begin(), sources.end(), source) == sources.end()) {
      sources.push_back(source);
    }
  }
  return static_cast<int>(sources.size());
}

PathTimes Fabric::reserve_core(Nic& nic, const NetworkProfile& prof, int flow,
                               std::size_t bytes, double earliest) {
  const double start = std::max(earliest, nic.next_free);

  // Contention: count distinct *flows* (source ranks) with traffic
  // still pending when this transfer was submitted — the mechanism
  // behind the paper's 8-pair InfiniBand throttling (Fig. 11). Window
  // depth from a single sender does not trigger it.
  double per_msg = prof.per_msg_nic;
  double bandwidth = prof.bandwidth;
  if (prof.contention_threshold > 0) {
    std::erase_if(nic.active, [earliest](const std::pair<int, double>& e) {
      return e.second <= earliest;
    });
    std::vector<int> sources;
    for (const auto& [source, end] : nic.active) {
      if (end > earliest &&
          std::find(sources.begin(), sources.end(), source) == sources.end()) {
        sources.push_back(source);
      }
    }
    if (static_cast<int>(sources.size()) >= prof.contention_threshold) {
      per_msg *= prof.contention_msg_factor;
      bandwidth *= prof.contention_bw_factor;
    }
  }

  const double busy = per_msg + static_cast<double>(bytes) / bandwidth;
  nic.next_free = start + busy;
  if (prof.contention_threshold > 0) {
    nic.active.emplace_back(flow, nic.next_free);
  }

  return PathTimes{
      .start = start,
      .egress_done = start + busy,
      .arrival = start + busy + prof.latency,
      .queue_delay = start - earliest,
  };
}

PathTimes Fabric::reserve_link(LinkState& ls, int flow, std::size_t bytes,
                               double earliest) {
  const LinkProfile& lp = ls.spec->profile;
  const std::uint64_t lk = link_key(ls.spec->src_node, ls.spec->dst_node);

  // Drain background cross-traffic bursts that are due before this
  // message could start. Each burst occupies the NIC like a foreign
  // transfer; sizes and gaps are pure hashes of (seed, link, k).
  // Termination: validate() guarantees mean utilization < 1, so
  // next_free advances strictly slower than cross_next.
  if (lp.cross.enabled()) {
    for (;;) {
      const double candidate = std::max(earliest, ls.nic.next_free);
      if (ls.cross_next > candidate) break;
      const std::uint64_t h =
          mix64(lp.cross.seed ^ mix64(lk ^ mix64(ls.cross_emitted)));
      const double size =
          static_cast<double>(lp.cross.burst_bytes) *
          (1.0 + lp.cross.jitter * (2.0 * unit_double(h) - 1.0));
      ls.nic.next_free = std::max(ls.nic.next_free, ls.cross_next) +
                         size / lp.net.bandwidth;
      const double gap =
          lp.cross.period *
          (1.0 + lp.cross.jitter * (2.0 * unit_double(mix64(h)) - 1.0));
      ls.cross_next += gap;
      ++ls.cross_emitted;
    }
  }

  PathTimes pt = reserve_core(ls.nic, lp.net, flow, bytes, earliest);

  if (lp.jitter > 0.0) {
    const std::uint64_t h = mix64(lp.seed ^ mix64(lk ^ mix64(ls.msg_count)));
    pt.arrival += lp.jitter * unit_double(h);
  }
  ++ls.msg_count;

  // FIFO reorder guard: a jitter draw must not let message k arrive
  // before message k-1.
  pt.arrival = std::max(pt.arrival, ls.last_arrival);
  ls.last_arrival = pt.arrival;

  return pt;
}

PathTimes Fabric::reserve_path(int src, int dst, std::size_t bytes,
                               double earliest) {
  check_rank(src);
  check_rank(dst);
  if (!same_node(src, dst)) {
    if (LinkState* ls = link_state(node_of(src), node_of(dst))) {
      return reserve_link(*ls, src, bytes, earliest);
    }
  }
  Nic& nic = nic_for(src, dst);
  return reserve_core(nic, profile(src, dst), src, bytes, earliest);
}

PathTimes Fabric::reserve_hop(int src_node, int dst_node, int flow,
                              std::size_t bytes, double earliest) {
  if (LinkState* ls = link_state(src_node, dst_node)) {
    return reserve_link(*ls, flow, bytes, earliest);
  }
  Nic& nic = inter_nics_[static_cast<std::size_t>(src_node)];
  return reserve_core(nic, config_.inter, flow, bytes, earliest);
}

PathTimes Fabric::reserve_route(int src, int dst, std::size_t bytes,
                                double earliest, double per_relay_delay) {
  check_rank(src);
  check_rank(dst);
  const RouteSpec* route =
      same_node(src, dst) ? nullptr : route_for(node_of(src), node_of(dst));
  if (route == nullptr) return reserve_path(src, dst, bytes, earliest);

  const std::vector<int> nodes = path_nodes(src, dst);
  PathTimes first = reserve_hop(nodes[0], nodes[1], src, bytes, earliest);
  double t = first.arrival;
  for (std::size_t i = 1; i + 1 < nodes.size(); ++i) {
    t += per_relay_delay;
    // Relay hops are driven by the relay node, not the origin rank:
    // encode the node as a negative flow id so the contention model
    // sees it as a distinct sender and it cannot collide with a rank.
    const PathTimes hop =
        reserve_hop(nodes[i], nodes[i + 1], -2 - nodes[i], bytes, t);
    t = hop.arrival;
  }
  first.relay_delay = t - first.arrival;
  first.arrival = t;
  return first;
}

const RouteSpec* Fabric::route_for(int src_node, int dst_node) const {
  const auto it = routes_.find({src_node, dst_node});
  return it == routes_.end() ? nullptr : it->second;
}

std::vector<int> Fabric::path_nodes(int src, int dst) const {
  const int sn = node_of(src);
  const int dn = node_of(dst);
  if (sn == dn) return {sn};
  std::vector<int> nodes{sn};
  if (const RouteSpec* route = route_for(sn, dn)) {
    nodes.insert(nodes.end(), route->via.begin(), route->via.end());
  }
  nodes.push_back(dn);
  return nodes;
}

bool Fabric::relayed(int src, int dst) const {
  return !same_node(src, dst) &&
         route_for(node_of(src), node_of(dst)) != nullptr;
}

int Fabric::relay_count(int src, int dst) const {
  if (same_node(src, dst)) return 0;
  const RouteSpec* route = route_for(node_of(src), node_of(dst));
  return route == nullptr ? 0 : static_cast<int>(route->via.size());
}

FaultInjector* Fabric::faults_for(int src, int dst) {
  if (!same_node(src, dst)) {
    if (LinkState* ls = link_state(node_of(src), node_of(dst))) {
      if (ls->injector != nullptr) return ls->injector.get();
    }
  }
  return injector_.get();
}

FaultInjector* Fabric::faults_for_hop(int src_node, int dst_node) {
  if (LinkState* ls = link_state(src_node, dst_node)) {
    if (ls->injector != nullptr) return ls->injector.get();
  }
  return injector_.get();
}

}  // namespace emc::net
