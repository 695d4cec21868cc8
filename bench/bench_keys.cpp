// Production key-lifecycle campaign: LKH group rekey vs flat full
// re-exchange across group sizes, authenticated link handshakes over
// a lossy continental WAN, keyring ratchets under a live message
// stream, a rekey storm under membership churn, and the
// million-session cache at production occupancy.
//
//   bench_keys [--quick|--paper] [--msgs=N] [--trace[=path]]
//
// Every simulated metric is deterministic — seeded handshake backoff,
// seeded LKH key schedules, virtual-clock timing — so the tables are
// fixtures, not samples, and every cell replays bit-exactly under the
// same flags. The campaign polices the ISSUE acceptance criteria
// itself and exits non-zero when any fail: O(log N) LKH rekey
// messages against the O(N) flat comparator for N in {8..1024}, a
// 30%-loss wan_continental handshake with zero app-visible errors,
// and same-seed bit-exact replay of the lossy cells.
#include <cmath>
#include <memory>

#include "bench_common.hpp"
#include "emc/common/timer.hpp"
#include "emc/keys/derive.hpp"
#include "emc/keys/handshake.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/keys/lkh.hpp"
#include "emc/keys/session_cache.hpp"
#include "emc/netsim/wan.hpp"
#include "emc/trace/trace.hpp"

namespace {

using namespace emc;
using namespace emc::bench;

/// Two single-rank nodes separated by a lossy continental WAN link
/// (both directions), the hostile fabric of the handshake acceptance
/// criterion. recv_timeout must exceed the ~40 ms one-way latency or
/// every wait would time out before the reply can arrive.
mpi::WorldConfig lossy_world(double p_drop, std::uint64_t seed) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  config.recv_timeout = 0.25;
  const net::LinkProfile wan =
      net::wan_link(net::wan_continental(), p_drop, 2e-3, seed);
  config.cluster.links.push_back({0, 1, wan});
  net::LinkProfile back =
      net::wan_link(net::wan_continental(), p_drop, 2e-3, seed ^ 1);
  config.cluster.links.push_back({1, 0, back});
  return config;
}

keys::HandshakeConfig lossy_handshake_cfg() {
  keys::HandshakeConfig cfg;
  cfg.seed = 0xc0ffee;
  cfg.max_attempts = 25;
  cfg.backoff_max = 0.5;
  return cfg;
}

/// One handshake campaign cell: both endpoints run the exchange,
/// failures and chain mismatches are counted as app-visible errors.
struct HandshakeCell {
  double end_time = 0.0;  ///< virtual seconds until both ranks return
  int attempts = 0;       ///< max of the two endpoints' attempts
  int errors = 0;         ///< HandshakeFailed + chain disagreements
};

HandshakeCell run_handshake_cell(double p_drop, std::uint64_t world_seed) {
  HandshakeCell cell;
  Bytes chains[2];
  int attempts[2] = {0, 0};
  int errors = 0;
  const crypto::DhGroup group = crypto::generate_test_group(192, 42);
  mpi::World world(lossy_world(p_drop, world_seed));
  cell.end_time = world.run([&](mpi::Comm& comm) {
    try {
      const keys::HandshakeResult r = keys::link_handshake(
          comm, 1 - comm.rank(), group, lossy_handshake_cfg());
      chains[comm.rank()] = r.chain;
      attempts[comm.rank()] = r.attempts;
    } catch (const keys::HandshakeFailed&) {
      ++errors;
    }
  });
  if (errors == 0 && chains[0] != chains[1]) ++errors;
  cell.attempts = std::max(attempts[0], attempts[1]);
  cell.errors = errors;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  args.allow_only(with_common_flags({"msgs", "trace"}));
  calibrate_cpu_scale(args);
  const int msgs = static_cast<int>(args.get_int("msgs", 200));

  print_header("Key lifecycle (handshake, ratchet, LKH group rekey, "
               "session cache)", args);

  Trajectory traj("keys");
  traj.set_settings("policy=" + policy_name(args) +
                    " msgs=" + std::to_string(msgs));

  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok) failures.push_back(what);
  };

  // ---- Part 1: LKH rekey cost vs flat full re-exchange ----
  // One eviction + one re-admission per group size. The flat
  // comparator re-wraps one session key per surviving member (O(N));
  // LKH rotates one leaf-to-root path (O(log N)).
  {
    Table table("Membership-change rekey cost: LKH vs flat full "
                "re-exchange (messages; wire bytes in parentheses)",
                {"N", "LKH evict", "LKH rejoin", "flat re-exchange",
                 "flat/LKH"});
    const std::size_t frame_bytes = keys::lkh_frame_bytes(32);
    for (int n = 8; n <= 1024; n *= 2) {
      keys::LkhTree tree(n);
      const std::size_t full = tree.full_reexchange_messages();
      const keys::LkhBatch evict = tree.remove_member(n / 2);
      const keys::LkhBatch rejoin = tree.add_member(n / 2);
      const auto fmt = [&](std::size_t frames) {
        return std::to_string(frames) + " (" +
               std::to_string(frames * frame_bytes) + " B)";
      };
      const double ratio =
          static_cast<double>(full) /
          static_cast<double>(std::max<std::size_t>(1, evict.frames.size()));
      table.add_row({std::to_string(n), fmt(evict.frames.size()),
                     fmt(rejoin.frames.size()), fmt(full),
                     fmt_double(ratio, 1) + "x"});
      traj.add_scalar("lkh/evict/N=" + std::to_string(n), "messages",
                      "msgs", /*higher_is_better=*/false,
                      static_cast<double>(evict.frames.size()));
      traj.add_scalar("lkh/full/N=" + std::to_string(n), "messages",
                      "msgs", /*higher_is_better=*/false,
                      static_cast<double>(full));

      const auto log2n =
          static_cast<std::size_t>(std::lround(std::log2(n)));
      check(full == static_cast<std::size_t>(n) - 1,
            "flat comparator is N-1 at N=" + std::to_string(n));
      check(evict.frames.size() <= 2 * log2n &&
                rejoin.frames.size() <= 2 * log2n,
            "LKH rekey <= 2*log2(N) messages at N=" + std::to_string(n));
      if (n >= 64) {
        check(evict.frames.size() < full / 2,
              "LKH beats flat by >2x at N=" + std::to_string(n));
      }
    }
    table.print(std::cout);
    if (const auto saved = table.save_csv("keys_lkh_rekey.csv")) {
      std::cout << "csv: " << *saved << "\n";
    }
  }

  // ---- Part 2: authenticated handshake over a lossy WAN ----
  // The fail-closed bootstrap on wan_continental at increasing frame
  // loss. The 30% cell is the ISSUE acceptance criterion: the
  // exchange must complete with zero app-visible errors, purely via
  // timeout-driven retries with seeded backoff.
  {
    Table table("Link handshake on wan_continental (80 ms RTT), by "
                "frame-loss probability (8 seeded loss patterns each)",
                {"loss", "mean virtual s", "max attempts", "app errors"});
    const std::vector<double> losses = {0.0, 0.15, 0.30};
    constexpr std::uint64_t kSeeds = 8;
    int retries_at_30 = 0;
    for (const double p : losses) {
      double time_sum = 0.0;
      int max_attempts = 0;
      int errors = 0;
      for (std::uint64_t seed = 11; seed < 11 + kSeeds; ++seed) {
        const HandshakeCell cell = run_handshake_cell(p, seed);
        time_sum += cell.end_time;
        max_attempts = std::max(max_attempts, cell.attempts);
        errors += cell.errors;
      }
      if (p == 0.30) retries_at_30 = max_attempts;
      const double mean_time = time_sum / kSeeds;
      table.add_row({fmt_double(100.0 * p, 0) + "%",
                     fmt_double(mean_time, 3),
                     std::to_string(max_attempts),
                     std::to_string(errors)});
      const std::string tag = "loss=" + fmt_double(100.0 * p, 0) + "%";
      traj.add_scalar("handshake/" + tag, "time", "s",
                      /*higher_is_better=*/false, mean_time);
      traj.add_scalar("handshake/attempts/" + tag, "attempts", "n",
                      /*higher_is_better=*/false,
                      static_cast<double>(max_attempts));
      check(errors == 0,
            "handshake completes with zero app-visible errors at " + tag);
    }
    check(retries_at_30 > 1,
          "30% loss actually exercises the retry/backoff path");
    table.print(std::cout);
    if (const auto saved = table.save_csv("keys_handshake_loss.csv")) {
      std::cout << "csv: " << *saved << "\n";
    }

    // Same seeds must replay bit-exactly — end time AND retry count.
    const HandshakeCell a = run_handshake_cell(0.30, 11);
    const HandshakeCell b = run_handshake_cell(0.30, 11);
    check(a.end_time == b.end_time && a.attempts == b.attempts,
          "30%-loss handshake replays bit-exactly under the same seed");
    const HandshakeCell c = run_handshake_cell(0.30, 12);
    check(c.end_time != a.end_time,
          "a different loss seed yields a different timeline");

    // The asymmetric crypto must land on the key_mgmt trace lane.
    mpi::WorldConfig traced = lossy_world(0.0, 17);
    auto rec = std::make_shared<trace::TraceRecorder>(trace::Config{}, 2);
    traced.trace = rec;
    const crypto::DhGroup group = crypto::generate_test_group(192, 42);
    mpi::World world(traced);
    world.run([&](mpi::Comm& comm) {
      (void)keys::link_handshake(comm, 1 - comm.rank(), group,
                                 lossy_handshake_cfg());
    });
    const auto key_mgmt = [&](int rank) {
      return rec->category_seconds(rank)[static_cast<std::size_t>(
          trace::Category::kKeyMgmt)];
    };
    check(key_mgmt(0) > 0.0 && key_mgmt(1) > 0.0,
          "handshake bills asymmetric crypto on the key_mgmt lane");
  }

  // ---- Part 3: keyring ratchets under a live stream ----
  // A tiny per-epoch seal budget forces the nonce-exhaustion guard to
  // rotate epochs online: the stream must cross several epochs with
  // zero app-visible errors and replay bit-exactly.
  {
    const auto campaign = [&](std::uint64_t* ratchets, std::uint64_t* catchups,
                              int* delivered) {
      return timed_world(
          mpi::WorldConfig{[] {
            mpi::WorldConfig config;
            config.cluster.num_nodes = 2;
            config.cluster.ranks_per_node = 1;
            return config;
          }()},
          [&](mpi::Comm& plain) {
            const int peer = 1 - plain.rank();
            auto ring =
                std::make_shared<keys::LinkKeyring>("boringssl-sim", 32);
            ring->install(peer, Bytes(keys::kChainBytes, 0xab), plain.now());
            secure::SecureConfig sc;
            sc.nonce_mode = secure::NonceMode::kCounter;
            sc.cost_model = secure::CryptoCostModel{};
            sc.nonce_rekey_threshold = 16;  // per-epoch seal budget
            sc.keyring = ring;
            secure::SecureComm comm(plain, sc);
            for (int i = 0; i < msgs; ++i) {
              const Bytes payload(1024, static_cast<std::uint8_t>(i));
              if (plain.rank() == 0) {
                comm.send(payload, 1, i);
                Bytes buf(1024);
                (void)comm.recv(buf, 1, i);
                if (buf == payload && delivered) ++*delivered;
              } else {
                Bytes buf(1024);
                (void)comm.recv(buf, 0, i);
                comm.send(buf, 0, i);
              }
            }
            // Rank 0 seals first each round, so its seal-budget
            // ratchet leads; rank 1 follows via catch-up opens.
            if (plain.rank() == 0) {
              if (ratchets) *ratchets = ring->counters().ratchets;
            } else if (catchups) {
              *catchups = ring->counters().catchup_opens;
            }
          });
    };
    std::uint64_t ratchets = 0;
    std::uint64_t catchups = 0;
    int delivered = 0;
    const double t1 = campaign(&ratchets, &catchups, &delivered);
    const double t2 = campaign(nullptr, nullptr, nullptr);
    std::cout << "keyring stream: " << msgs << " ping-pongs, " << ratchets
              << " epoch advances, " << catchups
              << " receiver catch-ups, " << fmt_double(t1, 4)
              << " virtual s\n";
    traj.add_scalar("keyring/stream", "time", "s",
                    /*higher_is_better=*/false, t1);
    traj.add_scalar("keyring/ratchets", "ratchets", "n",
                    /*higher_is_better=*/false,
                    static_cast<double>(ratchets));
    check(delivered == msgs,
          "every payload delivered intact across epoch rotations");
    check(ratchets > 0 && catchups > 0,
          "stream crossed epochs mid-run (ratchets and catch-ups > 0)");
    check(t1 == t2, "keyring stream replays bit-exactly");
  }

  // ---- Part 4: rekey storm under membership churn ----
  // Alternating evictions and re-admissions at N=256: the cumulative
  // LKH message count against what the flat scheme would have spent
  // on the same churn sequence.
  {
    constexpr int kGroup = 256;
    constexpr int kChurn = 100;
    keys::LkhTree tree(kGroup);
    std::size_t lkh_msgs = 0;
    std::size_t flat_msgs = 0;
    for (int i = 0; i < kChurn; ++i) {
      // Seeded-but-simple member choice: sweep the leaves so every
      // path depth gets exercised.
      const int member = (i * 37) % kGroup;
      flat_msgs += tree.full_reexchange_messages();
      lkh_msgs += tree.remove_member(member).frames.size();
      flat_msgs += tree.full_reexchange_messages();
      lkh_msgs += tree.add_member(member).frames.size();
    }
    std::cout << "rekey storm: " << 2 * kChurn << " membership changes at N="
              << kGroup << ": LKH " << lkh_msgs << " msgs vs flat "
              << flat_msgs << " msgs ("
              << fmt_double(static_cast<double>(flat_msgs) /
                               static_cast<double>(lkh_msgs), 1)
              << "x)\n";
    traj.add_scalar("storm/lkh", "messages", "msgs",
                    /*higher_is_better=*/false,
                    static_cast<double>(lkh_msgs));
    traj.add_scalar("storm/flat", "messages", "msgs",
                    /*higher_is_better=*/false,
                    static_cast<double>(flat_msgs));
    check(lkh_msgs * 8 < flat_msgs,
          "churn storm: LKH spends <1/8 the flat scheme's messages");
  }

  // ---- Part 5: session cache at production occupancy ----
  // Two million distinct sessions stream through a one-million-entry
  // cache: residency must stay bounded (bounded live key schedules),
  // eviction count must be exact, and re-touching the resident half
  // must hit. Counter outcomes are deterministic; the ops/s line is
  // host-dependent color, not a gated metric.
  {
    constexpr std::size_t kCap = std::size_t{1} << 20;
    constexpr std::size_t kSessions = 2 * kCap;
    keys::SessionCache cache({.capacity = kCap});
    const crypto::Provider& prov = crypto::provider("boringssl-sim");
    Bytes raw(32, 0x5c);
    WallTimer timer;
    std::size_t max_size = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      raw[0] = static_cast<std::uint8_t>(s);
      raw[1] = static_cast<std::uint8_t>(s >> 8);
      cache.put(s, 0, prov.make_key(raw));
      max_size = std::max(max_size, cache.size());
    }
    std::uint64_t resident_hits = 0;
    for (std::size_t s = kSessions - kCap; s < kSessions; ++s) {
      if (cache.get(s, 0) != nullptr) ++resident_hits;
    }
    const double wall = timer.seconds();
    std::cout << "session cache: " << kSessions << " sessions through "
              << kCap << "-entry cache in " << fmt_double(wall, 2)
              << " host s (" << fmt_double(
                     static_cast<double>(kSessions + kCap) / wall / 1e6, 2)
              << " M ops/s), evictions=" << cache.stats().evictions << "\n";
    traj.add_scalar("cache/evictions", "evictions", "n",
                    /*higher_is_better=*/false,
                    static_cast<double>(cache.stats().evictions));
    check(max_size <= kCap,
          "residency never exceeds capacity (bounded key schedules)");
    check(cache.stats().evictions == kSessions - kCap,
          "eviction count is exact: sessions - capacity");
    check(resident_hits == kCap, "the newest <capacity> sessions all hit");
  }

  // ---- Optional deep trace artifacts (--trace) ----
  {
    const crypto::DhGroup group = crypto::generate_test_group(192, 42);
    emit_attribution_traces(
        args, "keys",
        {{"handshake-wan-30loss", lossy_world(0.30, 17),
          [group](mpi::Comm& comm) {
            (void)keys::link_handshake(comm, 1 - comm.rank(), group,
                                       lossy_handshake_cfg());
          }}});
  }

  save_trajectory(traj);
  if (!failures.empty()) {
    std::cerr << failures.size() << " acceptance check(s) failed\n";
    return 1;
  }
  return 0;
}
