// Seeded fault-injection campaign: the same adversarial wire schedule
// replayed against plain MiniMPI and against the AES-GCM secure layer.
// The plain baseline delivers damaged payloads as if they were data;
// the secure layer converts every injected fault into a detected
// IntegrityError (or a replay rejection) and never hands silently
// corrupted bytes to the application.
//
// The closing campaign kills ranks outright: scripted node crashes
// mid-collective and mid-NAS-kernel, swept over crash time x crash
// rank, with the ULFM-style revoke/agree/shrink (+ rekey) recovery
// measured in virtual time (results/ft_recovery.csv).
//
//   bench_faults [--messages=N] [--rndv-messages=N] [--seed=S]
#include <algorithm>
#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "emc/ft/recover.hpp"
#include "emc/nas/nas.hpp"
#include "emc/netsim/fault.hpp"
#include "emc/reliable/reliable.hpp"

namespace {

using namespace emc;
using emc::bench::Table;

/// Self-describing payload for message @p index: a big-endian index
/// header plus an index-derived fill byte, so the receiver can detect
/// any corruption, truncation, or duplication without side channels.
Bytes payload_for(std::uint32_t index, std::size_t bytes) {
  Bytes p(bytes, static_cast<std::uint8_t>(0x5A ^ (index & 0xFF)));
  store_be32(p.data(), index);
  return p;
}

bool payload_intact(BytesView p, std::uint32_t index, std::size_t bytes) {
  if (p.size() != bytes || load_be32(p.data()) != index) return false;
  const auto fill = static_cast<std::uint8_t>(0x5A ^ (index & 0xFF));
  for (std::size_t i = 4; i < p.size(); ++i) {
    if (p[i] != fill) return false;
  }
  return true;
}

struct CampaignResult {
  net::FaultStats injected;
  std::uint64_t sent = 0;
  std::uint64_t intact = 0;    ///< delivered and verified byte-exact
  std::uint64_t silent = 0;    ///< delivered damaged with NO error raised
  std::uint64_t detected = 0;  ///< IntegrityError raised at the receiver
  /// Secure path only: benign fabric duplicates absorbed by the
  /// anti-replay window without raising an error (the plain path
  /// delivers the extra copy and it lands in `silent`).
  std::uint64_t suppressed = 0;
  /// Messages the application never got intact: dropped outright, or
  /// damaged (silently on the plain path, detected on the secure one).
  /// Always sent == intact + never_intact.
  std::uint64_t never_intact = 0;
  double end = 0.0;

  friend bool operator==(const CampaignResult&, const CampaignResult&) =
      default;
};

/// One sender floods one receiver across the inter-node link while the
/// FaultPlan damages the traffic; the receiver drains until the
/// delivery timeout fires and classifies every arrival.
CampaignResult run_campaign(bool secured, std::size_t msg_bytes,
                            std::uint32_t messages,
                            const net::FaultPlan& plan) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  config.cluster.inter = net::ethernet_10g();
  config.cluster.faults = plan;
  config.recv_timeout = 1.0;  // virtual seconds; dwarfs any send gap
  // The campaign doubles as a false-positive check for the correctness
  // verifier: with fail_fast on (the default), any spurious diagnostic
  // under injected faults aborts the bench loudly.
  config.verify.enabled = true;

  mpi::World world(config);
  CampaignResult r;
  r.sent = messages;
  std::vector<bool> seen(messages, false);

  r.end = world.run([&](mpi::Comm& comm) {
    secure::SecureConfig sc;
    sc.provider = "boringssl-sim";
    sc.cost_model = secure::CryptoCostModel{};  // functional campaign, not a timing one
    sc.bind_context = true;
    sc.replay_window = 16;
    secure::SecureComm secure(comm, sc);
    mpi::Communicator& channel =
        secured ? static_cast<mpi::Communicator&>(secure) : comm;

    if (comm.rank() == 0) {
      for (std::uint32_t i = 0; i < messages; ++i) {
        channel.send(payload_for(i, msg_bytes), 1, 1);
      }
      return;
    }
    for (;;) {
      Bytes buf(msg_bytes);
      try {
        const mpi::Status st = channel.recv(buf, 0, 1);
        const BytesView got = BytesView(buf).first(st.bytes);
        const std::uint32_t idx = st.bytes >= 4 ? load_be32(buf.data())
                                                : messages;
        if (idx < messages && !seen[idx] &&
            payload_intact(got, idx, msg_bytes)) {
          seen[idx] = true;
          ++r.intact;
        } else {
          ++r.silent;  // damaged, duplicated, or unidentifiable bytes
        }
      } catch (const secure::IntegrityError&) {
        ++r.detected;
      } catch (const mpi::MpiError&) {
        break;  // delivery timeout: the wire has gone quiet
      }
    }
    for (std::uint32_t i = 0; i < messages; ++i) {
      if (!seen[i]) ++r.never_intact;
    }
    if (secured) r.suppressed = secure.counters().duplicates_suppressed;
  });
  r.injected = world.fabric().faults()->stats();
  bench::global_engine_events() += world.engine().scheduled_events();
  return r;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// One cell of the reliability recovery campaign: the same flood, but
/// with the ARQ channel enabled. Every workload must complete with
/// zero application-visible errors — drops are retransmitted, corrupt
/// secure frames are NACKed end to end, duplicates are absorbed.
struct RecoveryResult {
  net::FaultStats injected;
  reliable::ReliabilityStats arq;
  std::uint64_t intact = 0;
  std::uint64_t app_errors = 0;  ///< any exception or damaged delivery
  double end = 0.0;

  friend bool operator==(const RecoveryResult&, const RecoveryResult&) =
      default;
};

RecoveryResult run_recovery(std::size_t msg_bytes, std::uint32_t messages,
                            const net::FaultPlan& plan) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  config.cluster.inter = net::ethernet_10g();
  config.cluster.faults = plan;
  config.recv_timeout = 1.0;
  config.verify.enabled = true;
  config.reliability.enabled = true;

  mpi::World world(config);
  RecoveryResult r;
  r.end = world.run([&](mpi::Comm& comm) {
    secure::SecureConfig sc;
    sc.provider = "boringssl-sim";
    sc.cost_model = secure::CryptoCostModel{};
    sc.bind_context = true;
    sc.replay_window = 16;
    secure::SecureComm secure(comm, sc);

    if (comm.rank() == 0) {
      for (std::uint32_t i = 0; i < messages; ++i) {
        secure.send(payload_for(i, msg_bytes), 1, 1);
      }
      return;
    }
    // With the ARQ underneath, the receiver expects every message to
    // arrive intact and in order: no drain-until-timeout loop, no
    // tolerated errors.
    for (std::uint32_t i = 0; i < messages; ++i) {
      Bytes buf(msg_bytes);
      try {
        const mpi::Status st = secure.recv(buf, 0, 1);
        if (payload_intact(BytesView(buf).first(st.bytes), i, msg_bytes)) {
          ++r.intact;
        } else {
          ++r.app_errors;
        }
      } catch (const std::exception&) {
        ++r.app_errors;
        break;
      }
    }
  });
  r.injected = world.fabric().faults()->stats();
  r.arq = world.reliability()->stats();
  bench::global_engine_events() += world.engine().scheduled_events();
  return r;
}

// ------------------------------------------------- rank-crash campaign

/// One cell of the ULFM recovery campaign: a scripted rank crash mid
/// workload, measured from crash to full recovery in virtual time.
/// Every field is derived from virtual-time observations, so two runs
/// of the same cell must compare equal bit for bit.
struct FtCell {
  double crash_at = 0.0;
  double revoked_at = 0.0;    ///< identical on every survivor
  double agree_done = 0.0;    ///< last survivor leaves ft::agree
  double recover_done = 0.0;  ///< last survivor holds the new comm
  double end = 0.0;
  std::uint64_t mask = 0;     ///< committed survivor bitmask
  std::uint64_t epoch = 0;    ///< fresh epoch of the shrunken comm
  std::uint64_t rekeys = 0;   ///< summed over survivors (secure cells)
  int survivors = 0;
  bool consistent = false;  ///< identical mask/epoch/revocation everywhere
  bool data_ok = false;     ///< post-recovery workload verified everywhere

  friend bool operator==(const FtCell&, const FtCell&) = default;
};

std::string mask_bits(std::uint64_t mask, int ranks) {
  std::string s = "0b";
  for (int r = ranks - 1; r >= 0; --r) {
    s += ((mask >> r) & 1) != 0 ? '1' : '0';
  }
  return s;
}

/// Kills @p crash_rank at @p crash_at while every rank runs the
/// workload (a 4 KiB allgather flood or repeated mini-NAS CG), then
/// drives the survivors through revoke -> agree -> shrink (plus a
/// fresh group key exchange and rekey on the secure cells) and
/// finishes the workload on the recovered communicator.
FtCell run_ft_cell(bool nas_workload, bool secured, int ranks,
                   int crash_rank, double crash_at) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = ranks;
  config.cluster.ranks_per_node = 1;
  config.cluster.inter = net::ethernet_10g();
  config.cluster.faults.crashes = {{.rank = crash_rank, .at = crash_at}};
  config.verify.enabled = true;
  // The rekey runs a real DH exchange whose modexp cost is wall-clock
  // measured; zero the compute charge so every timeline is pure
  // protocol + wire virtual time and the CSV replays byte-identical.
  // Crypto stays visible on the secure cells through the analytic
  // cost model, which advances the clock directly (unscaled).
  config.cpu_scale = 0.0;

  static const crypto::DhGroup dh = crypto::generate_test_group(192, 42);

  const auto n = static_cast<std::size_t>(ranks);
  std::vector<double> revoked(n, -1.0);
  std::vector<double> agreed(n, -1.0);
  std::vector<double> recovered(n, -1.0);
  std::vector<std::uint64_t> masks(n, 0);
  std::vector<std::uint64_t> epochs(n, 0);
  std::vector<std::uint64_t> rekeys(n, 0);
  std::vector<char> workload_ok(n, 0);

  mpi::World world(config);
  FtCell cell;
  cell.crash_at = crash_at;
  cell.end = world.run([&](mpi::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());

    std::optional<secure::SecureComm> sec;
    if (secured) {
      secure::SecureConfig sc;
      sc.provider = "boringssl-sim";
      sc.key = crypto::demo_key(32);
      sc.nonce_mode = secure::NonceMode::kCounter;
      sc.cost_model = bench::nominal_cost_model(sc.provider);
      sec.emplace(comm, sc);
    }
    mpi::Communicator& pre =
        sec ? static_cast<mpi::Communicator&>(*sec) : comm;

    // One workload step on @p ch; returns whether its result verified.
    const auto step = [&](mpi::Communicator& ch, mpi::Comm& plain) {
      if (nas_workload) {
        return nas::run_cg(ch, plain, nas::ProblemClass::kS).verified;
      }
      Bytes part(4 * 1024, static_cast<std::uint8_t>(0x30 + ch.rank()));
      Bytes all(part.size() * static_cast<std::size_t>(ch.size()));
      ch.allgather(part, all);
      bool good = true;
      for (int r = 0; r < ch.size(); ++r) {
        const std::uint8_t* row =
            all.data() + static_cast<std::size_t>(r) * part.size();
        for (std::size_t b = 0; b < part.size(); ++b) {
          good &= row[b] == static_cast<std::uint8_t>(0x30 + r);
        }
      }
      return good;
    };

    // The crashed rank dies mid step; every survivor fails over into
    // recovery. The loop bound only guards a broken revocation path.
    bool revoked_seen = false;
    for (int it = 0; it < 100000 && !revoked_seen; ++it) {
      try {
        (void)step(pre, comm);
      } catch (const ft::RevokedError& e) {
        revoked[me] = e.revoked_at;
        revoked_seen = true;
      }
    }
    if (!revoked_seen) {
      throw std::runtime_error("ft campaign: revocation never arrived");
    }

    const std::uint64_t mask = ft::agree(comm);
    masks[me] = mask;
    agreed[me] = comm.process().now();

    std::unique_ptr<mpi::Comm> plain_next;
    ft::SecureRecovery rec;
    mpi::Comm* next = nullptr;
    mpi::Communicator* post = nullptr;
    if (secured) {
      rec = ft::shrink_secure(comm, mask, sec->config(), dh);
      next = rec.comm.get();
      post = rec.secure.get();
      rekeys[me] = rec.secure->counters().rekeys;
    } else {
      plain_next = ft::shrink(comm, mask);
      next = plain_next.get();
      post = plain_next.get();
    }
    recovered[me] = comm.process().now();
    epochs[me] = next->epoch();

    // Finish the workload on the recovered communicator; every
    // survivor must verify it end to end with zero data errors.
    bool good = true;
    const int rounds = nas_workload ? 1 : 4;
    for (int i = 0; i < rounds; ++i) good &= step(*post, *next);
    workload_ok[me] = good ? 1 : 0;
  });

  // Host-side reduction: the survivors must have observed identical
  // revocation, mask, and epoch; recovery cost is the latest survivor.
  bool all_data_ok = true;
  cell.consistent = true;
  for (int r = 0; r < ranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (recovered[i] < 0.0) continue;  // the crashed rank never recovers
    if (cell.survivors == 0) {
      cell.revoked_at = revoked[i];
      cell.mask = masks[i];
      cell.epoch = epochs[i];
    } else {
      cell.consistent &= revoked[i] == cell.revoked_at &&
                         masks[i] == cell.mask && epochs[i] == cell.epoch;
    }
    ++cell.survivors;
    cell.agree_done = std::max(cell.agree_done, agreed[i]);
    cell.recover_done = std::max(cell.recover_done, recovered[i]);
    cell.rekeys += rekeys[i];
    all_data_ok &= workload_ok[i] != 0;
  }
  cell.data_ok = cell.survivors > 0 && all_data_ok;
  bench::global_engine_events() += world.engine().scheduled_events();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  args.allow_only({"messages", "rndv-messages", "seed"});
  const auto eager_messages =
      static_cast<std::uint32_t>(args.get_int("messages", 300));
  const auto rndv_messages =
      static_cast<std::uint32_t>(args.get_int("rndv-messages", 40));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));

  bench::Trajectory traj("faults");
  traj.set_settings("seed=" + std::to_string(seed) +
                    " messages=" + std::to_string(eager_messages) +
                    " rndv-messages=" + std::to_string(rndv_messages));

  net::FaultPlan plan;
  plan.seed = seed;
  plan.p_corrupt = 0.08;
  plan.p_truncate = 0.04;
  plan.p_duplicate = 0.04;
  plan.p_drop = 0.04;

  std::cout << "### Fault-injection campaign (seed " << seed << ")\n"
            << "    plan: corrupt 8% / truncate 4% / duplicate 4% / drop 4%"
               " per message\n"
            << "    note: rendezvous pulls cannot be lost, so drop and"
               " duplicate degrade to corruption there\n";

  Table table("Injected faults vs what each transport reports",
              {"scenario", "transport", "sent", "corrupted", "truncated",
               "duplicated", "dropped", "intact", "silently damaged",
               "detected", "dup suppressed", "never intact"});

  struct Scenario {
    const char* name;
    std::size_t bytes;
    std::uint32_t messages;
  };
  // 4 KiB rides the eager path; 128 KiB crosses the ethernet
  // rendezvous threshold and exercises the zero-copy pull.
  const Scenario scenarios[] = {
      {"eager 4KB", 4 * 1024, eager_messages},
      {"rendezvous 128KB", 128 * 1024, rndv_messages},
  };

  for (const Scenario& s : scenarios) {
    for (const bool secured : {false, true}) {
      const CampaignResult r =
          run_campaign(secured, s.bytes, s.messages, plan);
      table.add_row({s.name, secured ? "AES-GCM secure" : "plain MiniMPI",
                     u64(r.sent), u64(r.injected.corrupted),
                     u64(r.injected.truncated), u64(r.injected.duplicated),
                     u64(r.injected.dropped), u64(r.intact), u64(r.silent),
                     u64(r.detected), u64(r.suppressed),
                     u64(r.never_intact)});
      if (secured && r.silent != 0) {
        std::cout << "!! secure path delivered damaged bytes silently\n";
        table.print(std::cout);
        return 1;
      }
    }
  }

  // Reproducibility gate: the same seed must replay the exact same
  // campaign, decision for decision.
  const CampaignResult a =
      run_campaign(true, scenarios[0].bytes, scenarios[0].messages, plan);
  const CampaignResult b =
      run_campaign(true, scenarios[0].bytes, scenarios[0].messages, plan);
  if (!(a == b)) {
    std::cout << "!! campaign is not deterministic for a fixed seed\n";
    return 1;
  }
  std::cout << "    determinism: identical rerun for seed " << seed
            << " (end time " << a.end << "s)\n";
  traj.add_scalar("campaign/eager-4KB/secure", "end_time", "s",
                  /*higher_is_better=*/false, a.end);

  table.print(std::cout);
  if (const auto saved = table.save_csv("faults.csv")) {
    std::cout << "csv: " << *saved << "\n";
  }

  // ---------------------------------------------------- recovery campaign
  // The same flood with the ARQ reliability layer underneath: sweep
  // loss and corruption rates and report goodput, recovery latency,
  // and retransmit amplification. Every cell must finish with zero
  // application-visible errors — that is the whole point of the layer.
  std::cout << "\n### Recovery campaign (ARQ reliability layer enabled)\n"
            << "    fixed: duplicate 2% / delay 2% per message; sweep"
               " drop x corrupt\n";

  Table recovery("Goodput and recovery cost under loss (AES-GCM + ARQ)",
                 {"scenario", "p_drop", "p_corrupt", "sent", "intact",
                  "app errors", "goodput", "retransmits", "rto fires",
                  "link nacks", "e2e nacks", "recovery latency",
                  "amplification"});

  const double rates[] = {0.0, 0.05, 0.15};
  bool recovery_clean = true;
  for (const Scenario& s : scenarios) {
    for (const double p_drop : rates) {
      for (const double p_corrupt : rates) {
        net::FaultPlan rp;
        rp.seed = seed;
        rp.p_drop = p_drop;
        rp.p_corrupt = p_corrupt;
        rp.p_duplicate = 0.02;
        rp.p_delay = 0.02;
        const RecoveryResult r = run_recovery(s.bytes, s.messages, rp);
        const double goodput =
            r.end > 0.0
                ? static_cast<double>(r.intact) *
                      static_cast<double>(s.bytes) / r.end
                : 0.0;
        const double latency =
            r.arq.recoveries > 0
                ? r.arq.recovery_delay_total /
                      static_cast<double>(r.arq.recoveries)
                : 0.0;
        const double amplification =
            static_cast<double>(r.arq.data_frames) /
            static_cast<double>(std::max<std::uint64_t>(1, r.arq.deliveries));
        recovery.add_row(
            {s.name, bench::fmt_double(p_drop), bench::fmt_double(p_corrupt),
             u64(s.messages), u64(r.intact), u64(r.app_errors),
             bench::fmt_mbps(goodput), u64(r.arq.retransmits),
             u64(r.arq.rto_expirations), u64(r.arq.link_nacks),
             u64(r.arq.e2e_nacks), bench::fmt_us(latency),
             bench::fmt_double(amplification, 3)});
        if (r.app_errors != 0 || r.intact != s.messages) {
          recovery_clean = false;
        }
      }
    }
  }
  recovery.print(std::cout);
  if (!recovery_clean) {
    std::cout << "!! reliability layer leaked errors to the application\n";
    return 1;
  }

  // Reproducibility gate for the recovery path: the marquee cell
  // (drop 5% / corrupt 5%) must replay decision-for-decision.
  net::FaultPlan marquee;
  marquee.seed = seed;
  marquee.p_drop = 0.05;
  marquee.p_corrupt = 0.05;
  marquee.p_duplicate = 0.02;
  marquee.p_delay = 0.02;
  const RecoveryResult ra =
      run_recovery(scenarios[0].bytes, scenarios[0].messages, marquee);
  const RecoveryResult rb =
      run_recovery(scenarios[0].bytes, scenarios[0].messages, marquee);
  if (!(ra == rb)) {
    std::cout << "!! recovery campaign is not deterministic\n";
    return 1;
  }
  std::cout << "    determinism: identical recovery rerun for seed " << seed
            << " (end time " << ra.end << "s)\n";
  traj.add_scalar("recovery/eager-4KB/drop5-corrupt5", "end_time", "s",
                  /*higher_is_better=*/false, ra.end);
  if (const auto saved = recovery.save_csv("reliability.csv")) {
    std::cout << "csv: " << *saved << "\n";
  }

  // ------------------------------------------------ rank-crash campaign
  // Rank crashes are not wire damage: the ARQ cannot retransmit around
  // a dead endpoint. This campaign kills one rank mid-collective and
  // mid-NAS-iteration and measures the ULFM-style recovery — revoke,
  // survivor agreement, shrink, and (encrypted cells) the fresh group
  // key exchange + rekey — entirely in virtual time.
  std::cout << "\n### Rank-crash recovery campaign (revoke/agree/shrink"
               " + rekey)\n"
            << "    4 ranks, one scripted crash; sweep crash rank x crash"
               " time, mid-allgather and mid-NAS-CG\n";

  Table ft_table("Virtual-time cost of ULFM-style recovery",
                 {"workload", "transport", "crash rank", "crash t",
                  "survivor mask", "revoke delay", "agree", "shrink+rekey",
                  "total recovery", "rekeys", "end t", "workload ok"});

  const int ft_ranks = 4;
  bool ft_clean = true;
  for (const bool nas_workload : {false, true}) {
    for (const bool secured : {false, true}) {
      for (const int crash_rank : {0, 1, 3}) {
        for (const double crash_at : {1.5e-4, 4.5e-4}) {
          const FtCell c = run_ft_cell(nas_workload, secured, ft_ranks,
                                       crash_rank, crash_at);
          ft_table.add_row(
              {nas_workload ? "NAS CG (S)" : "allgather 4KB",
               secured ? "AES-GCM + rekey" : "plain",
               std::to_string(crash_rank), bench::fmt_us(c.crash_at),
               mask_bits(c.mask, ft_ranks),
               bench::fmt_us(c.revoked_at - c.crash_at),
               bench::fmt_us(c.agree_done - c.revoked_at),
               bench::fmt_us(c.recover_done - c.agree_done),
               bench::fmt_us(c.recover_done - c.crash_at), u64(c.rekeys),
               bench::fmt_us(c.end), c.data_ok ? "yes" : "NO"});
          // Gate: exactly the crashed rank died, every survivor agreed
          // on the same mask/epoch/revocation, the post-recovery
          // workload verified everywhere, and encrypted cells rekeyed
          // exactly once per survivor.
          const std::uint64_t want_mask =
              ((std::uint64_t{1} << ft_ranks) - 1) &
              ~(std::uint64_t{1} << crash_rank);
          const std::uint64_t want_rekeys =
              secured ? static_cast<std::uint64_t>(c.survivors) : 0;
          if (!c.consistent || !c.data_ok || c.survivors != ft_ranks - 1 ||
              c.mask != want_mask || c.rekeys != want_rekeys) {
            ft_clean = false;
          }
        }
      }
    }
  }
  ft_table.print(std::cout);
  if (!ft_clean) {
    std::cout << "!! rank-crash recovery left errors or disagreement\n";
    return 1;
  }

  // Reproducibility gate: crash recovery — including the rekey's group
  // key exchange — must replay bit-exact for both workload shapes.
  const FtCell fa = run_ft_cell(false, true, ft_ranks, 3, 1.5e-4);
  const FtCell fb = run_ft_cell(false, true, ft_ranks, 3, 1.5e-4);
  const FtCell ga = run_ft_cell(true, true, ft_ranks, 1, 4.5e-4);
  const FtCell gb = run_ft_cell(true, true, ft_ranks, 1, 4.5e-4);
  if (!(fa == fb) || !(ga == gb)) {
    std::cout << "!! rank-crash recovery is not deterministic\n";
    return 1;
  }
  std::cout << "    determinism: identical recovery reruns (end times "
            << fa.end << "s / " << ga.end << "s)\n";
  if (const auto saved = ft_table.save_csv("ft_recovery.csv")) {
    std::cout << "csv: " << *saved << "\n";
  }
  traj.add_scalar("ft/allgather/crash3/recovery", "time", "s",
                  /*higher_is_better=*/false, fa.recover_done - fa.crash_at);
  traj.add_scalar("ft/nas-cg/crash1/recovery", "time", "s",
                  /*higher_is_better=*/false, ga.recover_done - ga.crash_at);
  bench::save_trajectory(traj);
  return 0;
}
