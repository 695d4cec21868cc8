// Hostile-network scenario pack: per-link WAN overrides (jitter,
// cross-traffic, per-link faults), multi-hop relayed routes, and the
// construction-time validation of both.
#include <gtest/gtest.h>

#include <vector>

#include "emc/netsim/fabric.hpp"

namespace emc::net {
namespace {

ClusterConfig lan(int nodes, int ranks_per_node = 1) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.ranks_per_node = ranks_per_node;
  return config;
}

ClusterConfig wan_pair(LinkProfile profile) {
  ClusterConfig config = lan(2);
  config.links.push_back({0, 1, profile});
  config.links.push_back({1, 0, std::move(profile)});
  return config;
}

// ---------------------------------------------------------------------
// Construction-time validation (structured usage errors, not UB later).

TEST(WanValidation, RejectsLinkNodesOutOfRange) {
  ClusterConfig config = lan(2);
  config.links.push_back({0, 2, LinkProfile{}});
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  config.links.back() = {-1, 1, LinkProfile{}};
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
}

TEST(WanValidation, RejectsSelfLinkAndDuplicatePair) {
  ClusterConfig config = lan(2);
  config.links.push_back({1, 1, LinkProfile{}});
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  config.links.back() = {0, 1, LinkProfile{}};
  config.links.push_back({0, 1, LinkProfile{}});
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
}

TEST(WanValidation, RejectsDegenerateLinkProfiles) {
  LinkProfile bad;
  bad.net.bandwidth = 0.0;
  EXPECT_THROW(Fabric{wan_pair(bad)}, std::invalid_argument);
  bad = LinkProfile{};
  bad.net.latency = -1e-3;
  EXPECT_THROW(Fabric{wan_pair(bad)}, std::invalid_argument);
  bad = LinkProfile{};
  bad.jitter = -1.0;
  EXPECT_THROW(Fabric{wan_pair(bad)}, std::invalid_argument);
}

TEST(WanValidation, RejectsInvalidPerLinkFaultRates) {
  LinkProfile lossy;
  lossy.faults.p_drop = 1.5;
  EXPECT_THROW(Fabric{wan_pair(lossy)}, std::invalid_argument);
  lossy = LinkProfile{};
  lossy.faults.p_drop = 0.6;
  lossy.faults.p_corrupt = 0.6;  // sums past 1
  EXPECT_THROW(Fabric{wan_pair(lossy)}, std::invalid_argument);
}

TEST(WanValidation, RejectsPerLinkRankCrashes) {
  // Crashes are world-scoped scripted events, not link behaviour.
  LinkProfile crashy;
  crashy.faults.crashes.push_back({0, 1.0});
  EXPECT_THROW(Fabric{wan_pair(crashy)}, std::invalid_argument);
}

TEST(WanValidation, RejectsSaturatingCrossTraffic) {
  LinkProfile jammed;
  jammed.cross.period = 1e-3;
  // Mean burst longer than the mean period: utilization >= 1 forever.
  jammed.cross.burst_bytes =
      static_cast<std::size_t>(jammed.net.bandwidth * 2e-3);
  EXPECT_THROW(Fabric{wan_pair(jammed)}, std::invalid_argument);
  jammed.cross.burst_bytes = 100;
  jammed.cross.jitter = 1.0;  // jitter must stay in [0, 1)
  EXPECT_THROW(Fabric{wan_pair(jammed)}, std::invalid_argument);
}

TEST(WanValidation, RejectsBadRoutes) {
  ClusterConfig config = lan(4);
  config.routes.push_back({0, 3, {}});  // empty via
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  config.routes.back() = {0, 3, {4}};  // via out of range
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  config.routes.back() = {0, 3, {1, 1}};  // duplicate relay
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  config.routes.back() = {0, 3, {0}};  // endpoint as relay
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  config.routes.back() = {0, 0, {1}};  // self route
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  config.routes.back() = {0, 3, {1}};
  config.routes.push_back({0, 3, {2}});  // duplicate directed pair
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
}

TEST(WanValidation, ValidatesClusterPlanEvenWhenDisabled) {
  // A plan with no enabled probabilities but a nonsense rate is a
  // usage error; it must not slide through just because enabled() is
  // false.
  ClusterConfig config = lan(2);
  config.faults.p_drop = -0.25;
  EXPECT_THROW(Fabric{config}, std::invalid_argument);
  Fabric fabric{lan(2)};
  FaultPlan disabled_bad;
  disabled_bad.p_corrupt = -1.0;
  EXPECT_THROW(fabric.set_fault_plan(disabled_bad), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Per-link overrides: profile selection, jitter, reordering policy.

TEST(WanLinks, OverrideReplacesInterProfile) {
  LinkProfile wan = wan_link(wan_continental(), 0.0, 0.0, 7);
  Fabric fabric{wan_pair(wan)};
  EXPECT_EQ(fabric.profile(0, 1).name, wan_continental().name);
  EXPECT_EQ(fabric.hop_profile(1, 0).name, wan_continental().name);
  // Intra-node traffic is untouched by link overrides.
  Fabric both{[] {
    ClusterConfig c = lan(2, 2);
    c.links.push_back({0, 1, wan_link(wan_metro(), 0.0, 0.0, 1)});
    return c;
  }()};
  EXPECT_EQ(both.profile(0, 1).name, intra_node().name);
  EXPECT_EQ(both.profile(0, 2).name, wan_metro().name);
}

TEST(WanLinks, AsymmetricBandwidthPerDirection) {
  LinkProfile down = wan_link(wan_metro(), 0.0, 0.0, 1);
  LinkProfile up = down;
  up.net.bandwidth = down.net.bandwidth / 10.0;  // slow uplink
  ClusterConfig config = lan(2);
  config.links.push_back({0, 1, down});
  config.links.push_back({1, 0, up});
  Fabric fabric{config};
  const std::size_t bytes = 1'000'000;
  const PathTimes fwd = fabric.reserve_path(0, 1, bytes, 0.0);
  const PathTimes rev = fabric.reserve_path(1, 0, bytes, 0.0);
  EXPECT_GT(rev.egress_done - rev.start, (fwd.egress_done - fwd.start) * 5.0);
}

TEST(WanLinks, JitterDelaysButNeverReordersByDefault) {
  LinkProfile calm = wan_link(wan_metro(), 0.0, 0.0, 11);
  LinkProfile jittery = wan_link(wan_metro(), 0.0, 5e-3, 11);
  Fabric base{wan_pair(calm)};
  Fabric wan{wan_pair(jittery)};
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double at = 0.1 * i;
    const PathTimes clean = base.reserve_path(0, 1, 1000, at);
    const PathTimes jit = wan.reserve_path(0, 1, 1000, at);
    EXPECT_GE(jit.arrival, clean.arrival);              // jitter only adds
    EXPECT_LT(jit.arrival, clean.arrival + 5e-3 + 1e-12);
    EXPECT_GE(jit.arrival, last);                       // FIFO preserved
    last = jit.arrival;
  }
}

TEST(WanLinks, JitterStreamIsSeededAndDeterministic) {
  const LinkProfile a = wan_link(wan_continental(), 0.0, 10e-3, 5);
  LinkProfile b = a;
  b.seed = 6;
  Fabric run1{wan_pair(a)};
  Fabric run2{wan_pair(a)};
  Fabric other{wan_pair(b)};
  bool seed_matters = false;
  for (int i = 0; i < 50; ++i) {
    const PathTimes x = run1.reserve_path(0, 1, 4096, 0.05 * i);
    const PathTimes y = run2.reserve_path(0, 1, 4096, 0.05 * i);
    EXPECT_DOUBLE_EQ(x.arrival, y.arrival);  // bit-exact replay
    if (other.reserve_path(0, 1, 4096, 0.05 * i).arrival != x.arrival) {
      seed_matters = true;
    }
  }
  EXPECT_TRUE(seed_matters);
}

TEST(WanLinks, PerLinkFaultsShadowClusterPlan) {
  ClusterConfig config = lan(3);
  config.faults.p_drop = 1.0;  // cluster: drop everything
  LinkProfile clean;
  clean.faults.p_corrupt = 1e-9;  // enabled -> replaces cluster plan
  clean.faults.seed = 99;
  config.links.push_back({0, 1, clean});
  Fabric fabric{config};
  ASSERT_NE(fabric.faults_for(0, 1), nullptr);
  EXPECT_NE(fabric.faults_for(0, 1), fabric.faults());
  EXPECT_EQ(fabric.faults_for(0, 2), fabric.faults());
  // The per-link injector essentially never drops.
  const FaultDecision d = fabric.faults_for(0, 1)->next(0, 1, 1024, true);
  EXPECT_NE(d.kind, FaultKind::kDrop);
}

// ---------------------------------------------------------------------
// Cross-traffic: deterministic background load.

TEST(WanCross, BackgroundBurstsDelayForegroundTraffic) {
  LinkProfile quiet = wan_link(wan_metro(), 0.0, 0.0, 3);
  LinkProfile busy = quiet;
  busy.cross.period = 1e-3;
  busy.cross.burst_bytes = 25'000;  // ~20% mean utilization at 1 Gb/s
  busy.cross.seed = 42;
  Fabric calm{wan_pair(quiet)};
  Fabric loaded{wan_pair(busy)};
  double calm_total = 0.0;
  double loaded_total = 0.0;
  for (int i = 0; i < 100; ++i) {
    calm_total += calm.reserve_path(0, 1, 10'000, 2e-3 * i).arrival;
    loaded_total += loaded.reserve_path(0, 1, 10'000, 2e-3 * i).arrival;
  }
  EXPECT_GT(loaded_total, calm_total);
}

TEST(WanCross, ScheduleIsDeterministicAcrossRuns) {
  LinkProfile busy = wan_link(wan_metro(), 0.0, 0.0, 3);
  busy.cross.period = 5e-4;
  busy.cross.burst_bytes = 12'000;
  Fabric run1{wan_pair(busy)};
  Fabric run2{wan_pair(busy)};
  for (int i = 0; i < 100; ++i) {
    const PathTimes a = run1.reserve_path(0, 1, 2048, 1e-3 * i);
    const PathTimes b = run2.reserve_path(0, 1, 2048, 1e-3 * i);
    EXPECT_DOUBLE_EQ(a.start, b.start);
    EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
  }
}

TEST(WanCross, FarFutureReservationDoesNotReplayBacklog) {
  // Jumping far ahead in virtual time must fast-forward the burst
  // schedule in bounded work, and the sub-unity utilization guard
  // keeps the NIC catching up: a message sent late still leaves
  // promptly (within a few burst lengths of its earliest time).
  LinkProfile busy = wan_link(wan_metro(), 0.0, 0.0, 3);
  busy.cross.period = 1e-3;
  busy.cross.burst_bytes = 30'000;
  Fabric fabric{wan_pair(busy)};
  const PathTimes t = fabric.reserve_path(0, 1, 1000, 1000.0);
  EXPECT_GE(t.start, 1000.0);
  EXPECT_LT(t.start, 1000.0 + 0.1);
}

// ---------------------------------------------------------------------
// Multi-hop relayed routes.

ClusterConfig relayed_triangle() {
  ClusterConfig config = lan(3);
  config.routes.push_back({0, 2, {1}});
  config.routes.push_back({2, 0, {1}});
  return config;
}

TEST(WanRoutes, TopologyQueries) {
  Fabric fabric{relayed_triangle()};
  ASSERT_NE(fabric.route_for(0, 2), nullptr);
  EXPECT_EQ(fabric.route_for(0, 1), nullptr);
  EXPECT_TRUE(fabric.relayed(0, 2));
  EXPECT_FALSE(fabric.relayed(0, 1));
  EXPECT_EQ(fabric.relay_count(0, 2), 1);
  EXPECT_EQ(fabric.relay_count(0, 1), 0);
  EXPECT_EQ(fabric.path_nodes(0, 2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(fabric.path_nodes(0, 1), (std::vector<int>{0, 1}));
  EXPECT_EQ(fabric.path_nodes(0, 0), (std::vector<int>{0}));
}

TEST(WanRoutes, StoreAndForwardArrivesAfterDirect) {
  Fabric routed{relayed_triangle()};
  Fabric direct{lan(3)};
  const std::size_t bytes = 100'000;
  const PathTimes via = routed.reserve_route(0, 2, bytes, 0.0);
  const PathTimes straight = direct.reserve_route(0, 2, bytes, 0.0);
  EXPECT_GT(via.arrival, straight.arrival);  // two serializations + 2x latency
  EXPECT_GT(via.relay_delay, 0.0);
  EXPECT_DOUBLE_EQ(straight.relay_delay, 0.0);
  EXPECT_NEAR(via.arrival - via.relay_delay, straight.arrival, 1e-12);
}

TEST(WanRoutes, PerRelayDelayIsChargedPerIntermediateNode) {
  ClusterConfig config = lan(4);
  config.routes.push_back({0, 3, {1, 2}});
  Fabric fabric{config};
  Fabric fabric2{config};
  const PathTimes free_relay = fabric.reserve_route(0, 3, 1000, 0.0, 0.0);
  const PathTimes paid_relay = fabric2.reserve_route(0, 3, 1000, 0.0, 1e-3);
  EXPECT_NEAR(paid_relay.arrival, free_relay.arrival + 2e-3, 1e-12);
}

TEST(WanRoutes, RouteHopsUseLinkOverrides) {
  ClusterConfig config = relayed_triangle();
  LinkProfile slow = wan_link(wan_continental(), 0.0, 0.0, 1);
  config.links.push_back({1, 2, slow});  // second hop is a WAN link
  Fabric overridden{config};
  Fabric uniform{relayed_triangle()};
  const PathTimes slow_route = overridden.reserve_route(0, 2, 10'000, 0.0);
  const PathTimes fast_route = uniform.reserve_route(0, 2, 10'000, 0.0);
  EXPECT_GT(slow_route.arrival, fast_route.arrival + 0.03);  // 40ms hop
}

TEST(WanRoutes, ExposureAccountingAccumulates) {
  Fabric fabric{relayed_triangle()};
  EXPECT_EQ(fabric.relay_exposures(), 0u);
  fabric.note_relay_exposure(fabric.relay_count(0, 2));
  fabric.note_relay_exposure(fabric.relay_count(0, 1));
  fabric.note_relay_exposure(fabric.relay_count(2, 0));
  EXPECT_EQ(fabric.relay_exposures(), 2u);
}

}  // namespace
}  // namespace emc::net
