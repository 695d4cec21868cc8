// Per-link key state: forward-secure ratchet chains feeding an
// epoch-bound session cache.
//
// One LinkKeyring per rank holds, for every peer link the handshake
// has keyed, a ratchet chain c_e (keys::derive):
//
//   k_e = HKDF(c_e, "epoch-key")     the epoch's AEAD key
//   c_{e+1} = HKDF(c_e, "ratchet-chain"), then c_e is wiped
//
// Advancing the epoch therefore *destroys* the ability to re-derive
// any earlier key — compromise of a rank's state at time t exposes
// only traffic of the current epoch plus the bounded grace window,
// never the past (forward secrecy; docs/RESILIENCE.md).
//
// Rekey-without-stopping-traffic: SecureComm asks for a seal key per
// message; the keyring advances the epoch in place when the ratchet
// interval elapses or the per-epoch seal budget — the existing
// nonce-exhaustion guard's threshold — is reached, instead of
// throwing NonceExhaustedError. Receivers trial-open against the
// current epoch, up to max_skew epochs ahead (catching up their own
// state on success), and superseded epochs within the grace window,
// so in-flight messages sealed just before a ratchet still drain;
// once the window expires the old key schedule is destroyed and
// those ciphertexts are dead letters.
//
// Quarantine (compromise drill): a quarantined link fails closed —
// seals throw LinkQuarantined and opens reject everything — until a
// fresh handshake installs a new chain.
//
// AEAD key schedules are materialized through the SessionCache, so a
// rank talking to millions of peers holds a bounded number of
// expanded schedules (hit/miss/eviction counters feed bench_keys).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "emc/crypto/aead.hpp"
#include "emc/keys/session_cache.hpp"

namespace emc::keys {

struct RatchetConfig {
  /// Virtual seconds between periodic epoch advances (0 = no
  /// time-based ratchet; the seal-budget trigger still applies).
  double interval = 0.0;

  /// Per-epoch seal budget. 0 inherits the caller's budget (SecureComm
  /// passes its nonce_rekey_threshold, turning the fail-closed guard
  /// into an on-line rotation for keyring-backed links).
  std::uint64_t max_seals = 0;

  /// Virtual seconds a superseded epoch's key still opens in-flight
  /// messages after a ratchet. Expiry destroys the schedule.
  double grace_window = 1.0;

  /// Epochs ahead of the local state a receiver will trial-open
  /// (sender ratchets first; the receiver catches up on success).
  std::uint32_t max_skew = 2;

  /// Analytic virtual seconds one epoch advance costs (billed by the
  /// caller on the key_mgmt lane; the keyring itself never touches
  /// the clock).
  double step_cost = 2e-6;
};

struct KeyringCounters {
  std::uint64_t installs = 0;
  std::uint64_t ratchets = 0;       ///< epoch advances (all triggers)
  std::uint64_t budget_ratchets = 0;  ///< advances forced by the seal budget
  std::uint64_t grace_opens = 0;    ///< opens under a superseded epoch
  std::uint64_t catchup_opens = 0;  ///< opens that pulled us forward
  std::uint64_t quarantines = 0;
  std::uint64_t keys_wiped = 0;     ///< chains + grace schedules destroyed
};

/// Fail-closed refusal: the link was quarantined after a suspected
/// compromise and has not been re-handshaked.
struct LinkQuarantined : std::runtime_error {
  explicit LinkQuarantined(int link_)
      : std::runtime_error("link " + std::to_string(link_) +
                           " is quarantined: re-handshake before sending"),
        link(link_) {}
  int link;
};

/// Usage errors (sealing on a link no handshake has keyed, ...).
struct KeyringError : std::runtime_error {
  explicit KeyringError(const std::string& what) : std::runtime_error(what) {}
};

class LinkKeyring {
 public:
  LinkKeyring(std::string provider, std::size_t key_bytes,
              const RatchetConfig& ratchet = {},
              const SessionCacheConfig& cache = {});
  ~LinkKeyring();  // wipes every chain and grace schedule
  LinkKeyring(const LinkKeyring&) = delete;
  LinkKeyring& operator=(const LinkKeyring&) = delete;

  /// Installs a fresh handshake chain for @p link (epoch restarts at
  /// 0, any previous state including quarantine is wiped). The caller
  /// keeps ownership of @p chain and should wipe its copy.
  void install(int link, BytesView chain, double now);

  /// Compromise response: wipes the link's state; seals throw
  /// LinkQuarantined and opens reject until install() runs again.
  void quarantine(int link);

  [[nodiscard]] bool has_link(int link) const;
  [[nodiscard]] bool is_quarantined(int link) const;
  /// Current epoch of @p link (throws KeyringError when absent).
  [[nodiscard]] std::uint32_t epoch(int link) const;

  struct SealKey {
    const crypto::AeadKey* aead = nullptr;
    std::uint32_t epoch = 0;
    std::uint64_t seq = 0;   ///< per-epoch sequence (nonce material)
    bool ratcheted = false;  ///< this seal advanced the epoch
  };

  /// The key to seal the next message to @p link under, advancing the
  /// epoch first when the ratchet interval elapsed or the seal budget
  /// (@p seal_budget, 0 = unlimited; overridden by max_seals) is
  /// spent. Throws LinkQuarantined / KeyringError.
  SealKey seal_key(int link, double now, std::uint64_t seal_budget);

  struct OpenCandidate {
    const crypto::AeadKey* aead = nullptr;
    std::uint32_t epoch = 0;
  };

  /// Trial-open candidates for a message from @p link, in order:
  /// current epoch, ahead up to max_skew, then unexpired grace
  /// epochs. Empty for unknown or quarantined links.
  void open_candidates(int link, double now,
                       std::vector<OpenCandidate>& out);

  enum class OpenKind { kCurrent, kCatchup, kGrace };

  /// Report a successful open under @p epoch: advances local state
  /// when the sender was ahead (retaining superseded epochs for the
  /// grace window) and classifies the open for the counters.
  OpenKind note_open(int link, std::uint32_t epoch, double now);

  [[nodiscard]] const KeyringCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const SessionCacheStats& cache_stats() const noexcept {
    return cache_.stats();
  }
  [[nodiscard]] const RatchetConfig& ratchet() const noexcept {
    return ratchet_;
  }

 private:
  struct Grace {
    std::uint32_t epoch = 0;
    crypto::AeadKeyPtr aead;
    double expires = 0.0;
  };
  struct Link {
    Bytes chain;  ///< current epoch's chain state
    std::uint32_t epoch = 0;
    double epoch_start = 0.0;
    std::uint64_t seq = 0;  ///< seals spent in the current epoch
    bool quarantined = false;
    std::vector<Grace> grace;
  };

  Link& require(int link);
  void advance_epoch(Link& l, int link, double now);
  void prune_grace(Link& l, double now);
  /// Cached-or-derived schedule for epoch >= l.epoch.
  const crypto::AeadKey* epoch_aead(int link, const Link& l,
                                    std::uint32_t epoch);
  void wipe_link(Link& l);

  std::string provider_;
  std::size_t key_bytes_;
  RatchetConfig ratchet_;
  std::unordered_map<int, Link> links_;
  SessionCache cache_;
  KeyringCounters counters_;
};

}  // namespace emc::keys
