// Hostile-network campaign: ARQ goodput across a seeded loss sweep on
// WAN link profiles (fixed-RTO ladder vs the adaptive RFC 6298 + AIMD
// transport), and untrusted multi-hop relay routes under the two
// relay-trust policies (hop-trusted decrypt/re-encrypt vs end-to-end
// sealed forwarding), with plaintext-exposure accounting.
//
//   bench_wan [--quick|--paper] [--msgs=N] [--salts=K] [--seed=S]
//             [--trace=FILE]
//
// Every link is hostile on purpose: seeded frame loss, seeded latency
// jitter, and deterministic background cross-traffic bursts. All of it
// is pure-hash randomness (SplitMix64 of seed/link/index), so the same
// flags replay byte-identically — the CSVs and trajectory rows are
// fixtures, not samples. The campaign hard-checks its own acceptance
// properties (zero app-visible errors across the sweep, adaptive
// beating fixed on WAN paths, exposure 0 end-to-end vs exactly
// msgs x relays hop-trusted) and exits non-zero if any fail.
#include "bench_common.hpp"

#include "emc/reliable/reliable.hpp"

namespace {

using namespace emc;
using namespace emc::bench;

constexpr std::size_t kPayloadBytes = 4096;  // eager on every profile

/// Both directions of a hostile point-to-point WAN link: seeded loss,
/// ~5% latency jitter, and background bursts at ~20% mean utilization
/// (worst case 60%, under the saturation guard).
net::LinkProfile hostile_link(const net::NetworkProfile& base,
                              double p_drop) {
  net::LinkProfile link =
      net::wan_link(base, p_drop, base.latency / 20.0, /*seed=*/17);
  link.cross.period = 1e-3;
  link.cross.burst_bytes =
      static_cast<std::size_t>(base.bandwidth * 2e-4);
  link.cross.seed = 29;
  return link;
}

/// Two single-rank nodes joined by a hostile symmetric link, ARQ on.
mpi::WorldConfig wan_world(const net::NetworkProfile& base, double p_drop,
                           reliable::Transport transport) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  const net::LinkProfile link = hostile_link(base, p_drop);
  config.cluster.links.push_back({0, 1, link});
  config.cluster.links.push_back({1, 0, link});
  config.reliability.enabled = true;
  config.reliability.transport = transport;
  config.reliability.max_retries = 24;  // 30% loss is loss, not death
  return config;
}

/// One-way stream with payload verification: any lost, damaged, or
/// misordered delivery the ARQ fails to mask throws, which fails the
/// whole campaign — "zero application-visible errors" is load-bearing.
std::function<void(mpi::Comm&)> stream_body(int msgs) {
  return [msgs](mpi::Comm& comm) {
    for (int i = 0; i < msgs; ++i) {
      const Bytes payload(kPayloadBytes,
                          static_cast<std::uint8_t>(0x30 + i));
      if (comm.rank() == 0) {
        comm.send(payload, 1, i);
      } else {
        Bytes buf(kPayloadBytes);
        const mpi::Status st = comm.recv(buf, 0, i);
        if (st.bytes != kPayloadBytes || buf != payload) {
          throw std::runtime_error("app-visible corruption at msg " +
                                   std::to_string(i));
        }
      }
    }
  };
}

/// Hostile multi-hop overlay: rank 0 reaches the last rank only through
/// `relays` untrusted store-and-forward nodes; every hop link is lossy.
mpi::WorldConfig relay_world(int relays, double p_drop) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = relays + 2;
  config.cluster.ranks_per_node = 1;
  const int last = relays + 1;
  const net::LinkProfile hop = hostile_link(net::wan_metro(), p_drop);
  for (int n = 0; n < last; ++n) {
    config.cluster.links.push_back({n, n + 1, hop});
    config.cluster.links.push_back({n + 1, n, hop});
  }
  std::vector<int> via(static_cast<std::size_t>(relays));
  for (int i = 0; i < relays; ++i) via[static_cast<std::size_t>(i)] = i + 1;
  config.cluster.routes.push_back({0, last, via});
  std::vector<int> back(via.rbegin(), via.rend());
  config.cluster.routes.push_back({last, 0, back});
  config.reliability.enabled = true;
  config.reliability.transport = reliable::Transport::kAdaptive;
  config.reliability.max_retries = 24;
  return config;
}

/// Encrypted stream across the relay route. Captures the destination's
/// exposure-event count (deterministic, so last sample == every
/// sample) into @p exposures.
std::function<void(mpi::Comm&)> relay_body(int msgs,
                                           secure::RelayTrust trust,
                                           std::uint64_t& exposures) {
  return [msgs, trust, &exposures](mpi::Comm& plain) {
    secure::SecureConfig scfg;
    scfg.provider = "boringssl-sim";
    scfg.key = crypto::demo_key(32);
    scfg.nonce_mode = secure::NonceMode::kCounter;
    scfg.cost_model = nominal_cost_model(scfg.provider);
    scfg.relay_trust = trust;
    secure::SecureComm comm(plain, scfg);
    const int last = plain.size() - 1;
    for (int i = 0; i < msgs; ++i) {
      const Bytes payload(kPayloadBytes,
                          static_cast<std::uint8_t>(0x60 + i));
      if (plain.rank() == 0) {
        comm.send(payload, last, i);
      } else if (plain.rank() == last) {
        Bytes buf(kPayloadBytes);
        const mpi::Status st = comm.recv(buf, 0, i);
        if (st.bytes != kPayloadBytes || buf != payload) {
          throw std::runtime_error("app-visible corruption at msg " +
                                   std::to_string(i));
        }
      }
    }
    if (plain.rank() == last) exposures = comm.exposure_events();
  };
}

std::string pct_label(double p) {
  return fmt_double(p * 100.0, 0) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  args.allow_only(with_common_flags({"msgs", "trace"}));
  calibrate_cpu_scale(args);
  const StabilityPolicy policy = policy_from(args);
  const SaltSchedule schedule = schedule_from(args);
  const int msgs = static_cast<int>(args.get_int("msgs", 12));

  print_header("Hostile-network WAN campaign (loss sweep + untrusted relays)",
               args);

  Trajectory traj("wan");
  traj.set_settings("policy=" + policy_name(args) +
                    " salts=" + std::to_string(schedule.salts) +
                    " seed=" + std::to_string(schedule.seed) +
                    " msgs=" + std::to_string(msgs));

  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok) failures.push_back(what);
  };

  // ---- Part 1: goodput across the loss sweep, fixed vs adaptive ----
  const std::vector<double> losses = {0.0, 0.05, 0.15, 0.30};
  const std::vector<std::pair<std::string, net::NetworkProfile>> profiles = {
      {"metro", net::wan_metro()},
      {"continental", net::wan_continental()},
  };
  const std::vector<std::pair<std::string, reliable::Transport>> transports =
      {{"fixed", reliable::Transport::kFixedRto},
       {"adaptive", reliable::Transport::kAdaptive}};

  std::vector<std::string> columns = {"profile", "transport"};
  for (const double p : losses) columns.push_back("loss " + pct_label(p));
  Table goodput_table("WAN goodput under seeded loss (MB/s)", columns);

  // goodput[profile][transport][loss] in B/s, for the acceptance checks.
  std::vector<std::vector<std::vector<double>>> goodput(
      profiles.size(),
      std::vector<std::vector<double>>(transports.size()));

  for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
    for (std::size_t ti = 0; ti < transports.size(); ++ti) {
      std::vector<std::string> row = {profiles[pi].first,
                                      transports[ti].first};
      std::vector<MeasureResult> measures;
      for (const double p_drop : losses) {
        const mpi::WorldConfig config =
            wan_world(profiles[pi].second, p_drop, transports[ti].second);
        const MeasureResult m = measure_world(
            config, policy, schedule, stream_body(msgs),
            [msgs](double elapsed) {
              return static_cast<double>(kPayloadBytes) * msgs / elapsed;
            });
        goodput[pi][ti].push_back(m.mean);
        row.push_back(fmt_mbps(m.mean));
        measures.push_back(m);
        traj.add("goodput/" + profiles[pi].first + "/" +
                     transports[ti].first + "/loss=" + pct_label(p_drop),
                 "goodput", "MB/s", /*higher_is_better=*/true,
                 scale_result(m, 1e-6));
      }
      goodput_table.add_row(std::move(row));
      for (std::size_t i = 0; i < measures.size(); ++i) {
        goodput_table.attach_stats(i + 2, measures[i], 1e-6);
      }
    }
  }
  goodput_table.print(std::cout);
  if (const auto saved = goodput_table.save_csv("wan_goodput.csv")) {
    std::cout << "csv: " << *saved << "\n";
  }

  // ---- Part 2: untrusted relay routes, hop-trusted vs end-to-end ----
  const std::vector<std::pair<std::string, secure::RelayTrust>> trusts = {
      {"hop-trusted", secure::RelayTrust::kHopTrusted},
      {"end-to-end", secure::RelayTrust::kEndToEnd}};
  constexpr double kRelayLoss = 0.05;

  Table relay_table(
      "Untrusted relay routes at 5% per-hop loss (metro hops)",
      {"route", "trust", "goodput", "exposure events"});
  // exposures[relays-1][trust index], for the acceptance checks.
  std::vector<std::vector<std::uint64_t>> exposure_counts(
      2, std::vector<std::uint64_t>(trusts.size(), 0));
  std::vector<std::vector<double>> relay_goodput(
      2, std::vector<double>(trusts.size(), 0.0));

  for (int relays = 1; relays <= 2; ++relays) {
    const std::string route =
        "0 -> " + std::to_string(relays + 1) + " via " +
        std::to_string(relays) + (relays == 1 ? " relay" : " relays");
    for (std::size_t ti = 0; ti < trusts.size(); ++ti) {
      std::uint64_t exposures = 0;
      const MeasureResult m = measure_world(
          relay_world(relays, kRelayLoss), policy, schedule,
          relay_body(msgs, trusts[ti].second, exposures),
          [msgs](double elapsed) {
            return static_cast<double>(kPayloadBytes) * msgs / elapsed;
          });
      exposure_counts[static_cast<std::size_t>(relays - 1)][ti] = exposures;
      relay_goodput[static_cast<std::size_t>(relays - 1)][ti] = m.mean;
      relay_table.add_row({route, trusts[ti].first, fmt_mbps(m.mean),
                           std::to_string(exposures)});
      const std::string cfg = "relay/hops=" + std::to_string(relays) + "/" +
                              trusts[ti].first;
      traj.add(cfg, "goodput", "MB/s", /*higher_is_better=*/true,
               scale_result(m, 1e-6));
      traj.add_scalar(cfg, "exposure_events", "count",
                      /*higher_is_better=*/false,
                      static_cast<double>(exposures));
    }
  }
  relay_table.print(std::cout);
  if (const auto saved = relay_table.save_csv("wan_relay.csv")) {
    std::cout << "csv: " << *saved << "\n";
  }

  // ---- Acceptance properties (the campaign polices itself) ----
  std::cout << "acceptance:\n";
  for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
    for (std::size_t ti = 0; ti < transports.size(); ++ti) {
      const auto& g = goodput[pi][ti];
      bool alive = true;
      for (const double v : g) alive = alive && v > 0.0;
      check(alive, profiles[pi].first + "/" + transports[ti].first +
                       ": nonzero goodput at every loss rate");
    }
    // Graceful degradation is the adaptive transport's property: less
    // wire as loss grows, never a cliff to zero. (The fixed ladder is
    // already storm-floored at 0% loss — its sweep is flat.)
    const auto& ga = goodput[pi][1];
    check(ga.back() < ga.front(),
          profiles[pi].first +
              "/adaptive: goodput degrades gracefully with loss");
    // The timer discipline is the difference: on long paths the fixed
    // ladder (capped at 20 ms) fires before any ACK can return.
    for (std::size_t li = 0; li < 2; ++li) {
      check(goodput[pi][1][li] > goodput[pi][0][li],
            profiles[pi].first + " loss " + pct_label(losses[li]) +
                ": adaptive RTO beats the fixed ladder");
    }
  }
  for (int relays = 1; relays <= 2; ++relays) {
    const auto& row = exposure_counts[static_cast<std::size_t>(relays - 1)];
    check(row[0] == static_cast<std::uint64_t>(msgs) *
                        static_cast<std::uint64_t>(relays),
          std::to_string(relays) +
              "-relay hop-trusted: one exposure per relay per payload");
    check(row[1] == 0, std::to_string(relays) +
                           "-relay end-to-end: zero plaintext exposures");
  }

  // Same flags must replay byte-identically: re-run one marquee cell
  // at the baseline salt and demand exact equality.
  {
    const mpi::WorldConfig config = wan_world(
        net::wan_continental(), 0.15, reliable::Transport::kAdaptive);
    const double a = timed_world(config, stream_body(msgs), 0);
    const double b = timed_world(config, stream_body(msgs), 0);
    check(a == b, "continental/adaptive/loss=15% replays bit-exactly");
  }

  // ---- Optional deep trace artifacts (--trace) ----
  {
    std::vector<TraceRun> runs;
    for (const auto& [name, transport] :
         std::vector<std::pair<std::string, reliable::Transport>>{
             {"analytic", reliable::Transport::kAnalytic},
             {"fixed", reliable::Transport::kFixedRto},
             {"adaptive", reliable::Transport::kAdaptive}}) {
      runs.push_back({"metro-15loss-" + name,
                      wan_world(net::wan_metro(), 0.15, transport),
                      stream_body(msgs)});
    }
    for (const auto& [name, trust] : trusts) {
      runs.push_back({"relay2-15loss-" + name, relay_world(2, 0.15),
                      [msgs, trust](mpi::Comm& comm) {
                        std::uint64_t exposures = 0;
                        relay_body(msgs, trust, exposures)(comm);
                      }});
    }
    emit_attribution_traces(args, "wan", std::move(runs));
  }

  save_trajectory(traj);
  if (!failures.empty()) {
    std::cerr << failures.size() << " acceptance check(s) failed\n";
    return 1;
  }
  return 0;
}
