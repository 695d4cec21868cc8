// End-to-end key lifecycle: keyring-backed SecureComm traffic that
// ratchets mid-run without stopping, fail-closed unknown/quarantined
// links, the compromise-recovery drill (quarantine -> re-handshake ->
// old keys dead), grace-window drain and expiry, and the LKH-backed
// crash rekey over a real recovered communicator.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>

#include "emc/ft/recover.hpp"
#include "emc/keys/derive.hpp"
#include "emc/keys/handshake.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/keys/lkh.hpp"
#include "emc/mpi/world.hpp"
#include "emc/secure_mpi/secure_comm.hpp"

namespace emc::keys {
namespace {

using mpi::Comm;
using mpi::WorldConfig;

WorldConfig plain_world(int ranks, double recv_timeout = 0.0) {
  WorldConfig config;
  config.cluster.num_nodes = ranks;
  config.cluster.ranks_per_node = 1;
  config.cluster.inter = net::ethernet_10g();
  config.recv_timeout = recv_timeout;
  return config;
}

/// Timing-independent secure config: counter nonces for collectives,
/// no wall-clock billing, and this rank's own keyring.
secure::SecureConfig keyring_config(std::shared_ptr<LinkKeyring> ring,
                                    std::uint64_t seal_budget) {
  secure::SecureConfig sc;
  sc.nonce_mode = secure::NonceMode::kCounter;
  sc.cost_model = secure::CryptoCostModel{};
  sc.nonce_rekey_threshold = seal_budget;
  sc.keyring = std::move(ring);
  return sc;
}

std::shared_ptr<LinkKeyring> make_ring(const RatchetConfig& ratchet = {}) {
  return std::make_shared<LinkKeyring>("boringssl-sim", 32, ratchet);
}

const Bytes& demo_chain() {
  static const Bytes chain(kChainBytes, 0xab);
  return chain;
}

TEST(KeyLifecycle, RatchetsMidRunWithoutStoppingTraffic) {
  // A tiny per-epoch seal budget turns the nonce-exhaustion guard
  // into frequent online rotations: fifty ping-pongs must cross
  // several epochs with zero app-visible errors and zero plaintext
  // mismatches, the receiver catching up each time the sender
  // ratchets first.
  constexpr int kIters = 50;
  std::array<std::uint64_t, 2> ratchets{};
  std::array<std::uint64_t, 2> catchups{};
  std::array<int, 2> delivered{};
  mpi::run_world(plain_world(2), [&](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    auto ring = make_ring();
    ring->install(peer, demo_chain(), comm.now());
    secure::SecureComm sec(comm, keyring_config(ring, /*seal_budget=*/8));
    Bytes buf(64);
    for (int i = 0; i < kIters; ++i) {
      Bytes payload(64, static_cast<std::uint8_t>(i + me));
      if (me == 0) {
        sec.send(payload, peer, 5);
        (void)sec.recv(buf, peer, 6);
        delivered[0] += buf == Bytes(64, static_cast<std::uint8_t>(i + 1));
      } else {
        (void)sec.recv(buf, peer, 5);
        delivered[1] += buf == Bytes(64, static_cast<std::uint8_t>(i));
        sec.send(payload, peer, 6);
      }
    }
    ratchets[static_cast<std::size_t>(me)] = sec.counters().link_ratchets;
    catchups[static_cast<std::size_t>(me)] = sec.counters().catchup_opens;
    // Both sides cross epochs; the epoch advance itself may come from
    // this side's own seal budget or from catching up with the peer.
    EXPECT_GT(ring->counters().ratchets, 0u) << "rank " << me;
    EXPECT_GT(ring->epoch(peer), 0u) << "rank " << me;
    EXPECT_GT(ring->cache_stats().hits, 0u) << "rank " << me;
    if (me == 0) {
      // Rank 0 seals first each round, so its budget fires first and
      // the peer follows via catch-up — the online replacement of the
      // old fail-closed NonceExhaustedError.
      EXPECT_GT(ring->counters().budget_ratchets, 0u);
    }
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(r)], kIters) << "rank " << r;
  }
  EXPECT_GT(ratchets[0], 0u);  // seal-triggered rotations on the leader
  // The follower observed the leader ratcheting first.
  EXPECT_GT(catchups[0] + catchups[1], 0u);
}

TEST(KeyLifecycle, UnknownAndQuarantinedLinksFailClosed) {
  std::array<bool, 2> unknown_rejected{};
  std::array<bool, 2> quarantine_rejected{};
  bool receiver_rejected = false;
  mpi::run_world(plain_world(2), [&](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    auto ring = make_ring();
    secure::SecureComm sec(comm, keyring_config(ring, 0));
    Bytes payload(32, 0x11);
    // No handshake ran: sealing must refuse, not fall back to the
    // group key.
    try {
      sec.send(payload, peer, 3);
    } catch (const KeyringError&) {
      unknown_rejected[static_cast<std::size_t>(me)] = true;
    }
    ring->install(peer, demo_chain(), comm.now());
    ring->quarantine(peer);
    try {
      sec.send(payload, peer, 3);
    } catch (const LinkQuarantined&) {
      quarantine_rejected[static_cast<std::size_t>(me)] = true;
    }
    // Receiver-side fail-closed: rank 0 re-installs and seals a valid
    // message; rank 1 keeps the link quarantined, so nothing
    // authenticates and the open surfaces as an integrity failure.
    if (me == 0) {
      ring->install(peer, demo_chain(), comm.now());
      sec.send(payload, peer, 4);
    } else {
      Bytes buf(32);
      try {
        (void)sec.recv(buf, peer, 4);
      } catch (const secure::IntegrityError&) {
        receiver_rejected = true;
      }
      EXPECT_GT(sec.counters().auth_failures, 0u);
    }
  });
  EXPECT_TRUE(unknown_rejected[0]);
  EXPECT_TRUE(unknown_rejected[1]);
  EXPECT_TRUE(quarantine_rejected[0]);
  EXPECT_TRUE(quarantine_rejected[1]);
  EXPECT_TRUE(receiver_rejected);
}

TEST(KeyLifecycle, CompromiseDrillReHandshakeRestoresTraffic) {
  // The full drill over a real (clean) fabric: bootstrap handshake,
  // traffic, suspected compromise -> quarantine (fail closed),
  // re-handshake under a new instance, traffic resumes under keys the
  // old chain cannot derive.
  static const crypto::DhGroup dh = crypto::generate_test_group(192, 42);
  std::array<bool, 2> drilled{};
  mpi::run_world(plain_world(2, /*recv_timeout=*/0.05), [&](Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    auto ring = make_ring();

    HandshakeConfig hs;
    HandshakeResult boot = link_handshake(comm, peer, dh, hs);
    ring->install(peer, boot.chain, comm.now());
    secure_zero(boot.chain);

    secure::SecureComm sec(comm, keyring_config(ring, 0));
    Bytes payload(48, static_cast<std::uint8_t>(0x20 + me));
    Bytes buf(48);
    if (me == 0) {
      sec.send(payload, peer, 7);
    } else {
      (void)sec.recv(buf, peer, 7);
      ASSERT_EQ(buf, Bytes(48, 0x20));
    }

    // Compromise suspected: both ends quarantine. Sealing fails
    // closed until the link is re-keyed.
    ring->quarantine(peer);
    EXPECT_THROW(sec.send(payload, peer, 7), LinkQuarantined);

    hs.instance = 1;  // stragglers of instance 0 can never complete this
    HandshakeResult fresh = link_handshake(comm, peer, dh, hs);
    ring->install(peer, fresh.chain, comm.now());
    secure_zero(fresh.chain);
    EXPECT_EQ(ring->counters().installs, 2u);
    EXPECT_EQ(ring->counters().quarantines, 1u);

    Bytes again(48, static_cast<std::uint8_t>(0x30 + me));
    if (me == 0) {
      sec.send(again, peer, 8);
      (void)sec.recv(buf, peer, 8);
      EXPECT_EQ(buf, Bytes(48, 0x31));
    } else {
      (void)sec.recv(buf, peer, 8);
      EXPECT_EQ(buf, Bytes(48, 0x30));
      sec.send(again, peer, 8);
    }
    drilled[static_cast<std::size_t>(me)] = true;
  });
  EXPECT_TRUE(drilled[0]);
  EXPECT_TRUE(drilled[1]);
}

TEST(KeyLifecycle, OldKeyCiphertextsDieAfterReHandshake) {
  // The attacker's view of the drill, at the keyring layer: a
  // ciphertext captured under the pre-quarantine key must not open
  // under any candidate the re-keyed link offers.
  LinkKeyring ring("boringssl-sim", 32);
  ring.install(4, demo_chain(), 0.0);
  const LinkKeyring::SealKey sk = ring.seal_key(4, 0.0, 0);
  const Bytes plain = bytes_of("attack-window-payload");
  std::uint8_t nonce[crypto::kGcmNonceBytes] = {0x01};
  Bytes wire(plain.size() + crypto::kGcmTagBytes);
  sk.aead->seal(BytesView(nonce, sizeof nonce), {}, plain, wire);

  ring.quarantine(4);
  Bytes fresh_chain(kChainBytes, 0xcd);  // the re-handshake's new chain
  ring.install(4, fresh_chain, 1.0);

  std::vector<LinkKeyring::OpenCandidate> candidates;
  ring.open_candidates(4, 1.0, candidates);
  ASSERT_FALSE(candidates.empty());
  Bytes out(plain.size());
  for (const auto& c : candidates) {
    EXPECT_FALSE(c.aead->open(BytesView(nonce, sizeof nonce), {}, wire, out))
        << "old-key ciphertext opened under epoch " << c.epoch;
  }
}

TEST(KeyLifecycle, GraceWindowDrainsInFlightThenExpires) {
  // Sender and receiver keyrings share a chain. The sender ratchets
  // on its seal budget; a ciphertext sealed just before the ratchet
  // still opens within the grace window (drain), and is a dead letter
  // after it expires.
  const RatchetConfig ratchet{.grace_window = 1.0};
  LinkKeyring sender("boringssl-sim", 32, ratchet);
  LinkKeyring receiver("boringssl-sim", 32, ratchet);
  sender.install(2, demo_chain(), 0.0);
  receiver.install(2, demo_chain(), 0.0);

  // Seal one epoch-0 message, then force the budget ratchet.
  const LinkKeyring::SealKey old_sk = sender.seal_key(2, 0.0, /*budget=*/1);
  ASSERT_EQ(old_sk.epoch, 0u);
  const Bytes plain = bytes_of("in-flight-before-ratchet");
  std::uint8_t nonce[crypto::kGcmNonceBytes] = {0x07};
  Bytes old_wire(plain.size() + crypto::kGcmTagBytes);
  old_sk.aead->seal(BytesView(nonce, sizeof nonce), {}, plain, old_wire);

  const LinkKeyring::SealKey new_sk = sender.seal_key(2, 0.1, /*budget=*/1);
  ASSERT_EQ(new_sk.epoch, 1u);
  ASSERT_TRUE(new_sk.ratcheted);

  // The receiver sees the epoch-1 message first and catches up,
  // retaining epoch 0 for the grace window.
  EXPECT_EQ(receiver.note_open(2, 1, 0.2), LinkKeyring::OpenKind::kCatchup);

  const auto open_old = [&](double now) {
    std::vector<LinkKeyring::OpenCandidate> candidates;
    receiver.open_candidates(2, now, candidates);
    Bytes out(plain.size());
    for (const auto& c : candidates) {
      if (c.aead->open(BytesView(nonce, sizeof nonce), {}, old_wire, out)) {
        EXPECT_EQ(receiver.note_open(2, c.epoch, now),
                  LinkKeyring::OpenKind::kGrace);
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(open_old(0.5));   // within the window: drains
  EXPECT_FALSE(open_old(5.0));  // expired: the schedule is destroyed
  EXPECT_GT(receiver.counters().grace_opens, 0u);
  EXPECT_GT(receiver.counters().keys_wiped, 0u);
}

// ---------------------------------------------------------------------
// LKH-backed crash recovery over a real communicator.

WorldConfig crashing_world(int ranks, int crash_rank, double at) {
  WorldConfig config = plain_world(ranks);
  config.cluster.faults.crashes = {{.rank = crash_rank, .at = at}};
  return config;
}

/// Repeats @p op until the epoch is revoked (see tests/ft).
ft::RevokedError await_revocation(const std::function<void()>& op) {
  for (int it = 0; it < 100000; ++it) {
    try {
      op();
    } catch (const ft::RevokedError& e) {
      return e;
    }
  }
  throw std::runtime_error("revocation never arrived");
}

TEST(KeyLifecycle, LkhShrinkRekeysInLogFanOut) {
  // Rank 2 crashes mid-allgather; survivors agree, shrink, and rekey
  // via LKH frames instead of a flat re-exchange. The key server
  // (lowest survivor) holds the tree, members their views.
  const auto one_run = [] {
    struct RunResult {
      std::array<std::size_t, 4> frames{};
      std::array<std::size_t, 4> full{};
      std::array<bool, 4> data_ok{};
      Bytes old_group_root;
      Bytes new_group_root;
      double end_time = 0.0;
    };
    RunResult rr;
    LkhTree tree(4);
    rr.old_group_root = tree.group_key();
    std::array<LkhMemberView, 4> views;
    for (int m = 0; m < 4; ++m) views[static_cast<std::size_t>(m)] =
        tree.member_view(m);

    secure::SecureConfig sc;
    sc.nonce_mode = secure::NonceMode::kCounter;
    sc.cost_model = secure::CryptoCostModel{};
    rr.end_time = mpi::run_world(
        crashing_world(4, 2, 2e-4), [&](Comm& comm) {
          const int me = comm.rank();
          secure::SecureComm sec(comm, sc);
          Bytes part(8, static_cast<std::uint8_t>(me));
          Bytes all(part.size() * static_cast<std::size_t>(comm.size()));
          (void)await_revocation([&] { sec.allgather(part, all); });

          const std::uint64_t mask = ft::agree(comm);
          ft::LkhRecovery rec = ft::shrink_secure_lkh(
              comm, mask, sc, me == 0 ? &tree : nullptr,
              &views[static_cast<std::size_t>(me)]);
          rr.frames[static_cast<std::size_t>(me)] = rec.rekey_frames;
          rr.full[static_cast<std::size_t>(me)] =
              rec.full_exchange_messages;

          // Encrypted traffic under the LKH-rotated group key.
          Bytes spart(8, static_cast<std::uint8_t>(0x50 + rec.comm->rank()));
          Bytes sall(spart.size() *
                     static_cast<std::size_t>(rec.comm->size()));
          rec.secure->allgather(spart, sall);
          bool ok = true;
          for (int r = 0; r < rec.comm->size(); ++r) {
            for (std::size_t b = 0; b < 8; ++b) {
              ok &= sall[static_cast<std::size_t>(r) * 8 + b] ==
                    static_cast<std::uint8_t>(0x50 + r);
            }
          }
          rr.data_ok[static_cast<std::size_t>(me)] = ok;
          if (me == 0) rr.new_group_root = tree.group_key();
        });
    return rr;
  };

  const auto rr = one_run();
  for (const int r : {0, 1, 3}) {
    EXPECT_TRUE(rr.data_ok[static_cast<std::size_t>(r)]) << "rank " << r;
    EXPECT_GT(rr.frames[static_cast<std::size_t>(r)], 0u) << "rank " << r;
    EXPECT_LE(rr.frames[static_cast<std::size_t>(r)], 4u)  // 2*log2(4)
        << "rank " << r;
    EXPECT_EQ(rr.full[static_cast<std::size_t>(r)], 2u) << "rank " << r;
  }
  // The eviction rotated the root: the crashed rank's stale key is out.
  EXPECT_NE(rr.new_group_root, rr.old_group_root);

  // Same seed, same crash script: the recovery replays bit-exactly.
  const auto rr2 = one_run();
  EXPECT_EQ(rr.end_time, rr2.end_time);
  EXPECT_EQ(rr.new_group_root, rr2.new_group_root);
}

}  // namespace
}  // namespace emc::keys
