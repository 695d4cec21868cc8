// Encrypted MPI communication — the paper's core contribution (§IV).
//
// SecureComm wraps a plain MiniMPI communicator and encrypts every
// payload with AES-GCM under a user-selectable cryptographic provider.
// Framing per message (Fig. 1): a fresh 12-byte nonce, the ciphertext,
// and the 16-byte authentication tag — 28 bytes of wire expansion.
// Collectives follow Algorithm 1: encrypt each outgoing block with a
// fresh nonce, run the ordinary collective on nonce||ct||tag blocks,
// decrypt each received block. Decryption for non-blocking receives
// happens inside wait(), preserving the non-blocking property.
//
// Inside the simulation, seal/open really execute on the host and
// their measured wall time is charged to the calling rank's virtual
// clock, so encryption cost and network cost compose exactly as they
// would on a real cluster.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "emc/crypto/provider.hpp"
#include "emc/mpi/comm.hpp"
#include "emc/secure_mpi/pipeline.hpp"

namespace emc::keys {
class LinkKeyring;
}  // namespace emc::keys

namespace emc::secure {

/// Authentication failure on received data (tampering or corruption).
struct IntegrityError : std::runtime_error {
  explicit IntegrityError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Fail-closed guard against nonce reuse: thrown by a seal once the
/// per-key AEAD invocation count reaches the configured rekey
/// threshold. AES-GCM security collapses on a repeated (key, nonce)
/// pair, so the communicator refuses to encrypt rather than risk it —
/// the application must rekey() (e.g. via ft::shrink_secure) to
/// continue.
struct NonceExhaustedError : std::runtime_error {
  NonceExhaustedError(std::uint64_t used_, std::uint64_t threshold_)
      : std::runtime_error(
            "nonce space exhausted: " + std::to_string(used_) +
            " AEAD invocations under one key reached the rekey threshold "
            "of " + std::to_string(threshold_) +
            "; rekey() before sending more"),
        used(used_),
        threshold(threshold_) {}
  std::uint64_t used;
  std::uint64_t threshold;
};

/// How per-message nonces are produced.
enum class NonceMode {
  kRandom,   ///< uniformly random 12 bytes (the paper's RAND_bytes(12))
  kCounter,  ///< rank || message counter (deterministic, still unique)
};

/// Analytic crypto timing: virtual seconds a seal/open costs as an
/// affine function of the plaintext size (per_op + bytes * per_byte).
/// When installed on SecureConfig::cost_model it replaces wall-clock
/// charging: the crypto still really executes (ciphertexts, tags and
/// integrity semantics are unchanged) but the virtual clock advances
/// by the model instead of the measured host time, making encrypted
/// timelines fully deterministic — the mode traced benchmark runs use
/// so same-seed traces are byte-identical. Model values are virtual
/// seconds of the simulated CPU; WorldConfig::cpu_scale is NOT
/// applied on top. The zero model, CryptoCostModel{}, makes crypto
/// free: it bills nothing and records no trace span, the mode
/// functional tests use for timing-independent determinism.
struct CryptoCostModel {
  double seal_per_op = 0.0;    ///< fixed cost per encryption
  double seal_per_byte = 0.0;  ///< per plaintext byte encrypted
  double open_per_op = 0.0;    ///< fixed cost per decryption attempt
  double open_per_byte = 0.0;  ///< per plaintext byte decrypted

  bool operator==(const CryptoCostModel&) const = default;
};

/// Trust model for intermediate hops of multi-hop routed paths
/// (ClusterConfig::routes). Irrelevant on direct links.
enum class RelayTrust : std::uint8_t {
  /// The paper's implicit model, made explicit: every relay terminates
  /// the cryptographic session — it decrypts, re-authenticates, and
  /// re-encrypts the payload. Corruption is caught per hop (cheap
  /// recovery), but the relay operator sees plaintext: every crossing
  /// is counted as an exposure event (see exposure_events()).
  kHopTrusted,
  /// End-to-end sealing: relays forward the sealed envelope untouched.
  /// No plaintext exposure (exposure_events() == 0) and no per-relay
  /// crypto surcharge, but in-flight corruption rides to the
  /// destination and recovery costs a full end-to-end NACK round trip.
  kEndToEnd,
};

struct SecureConfig {
  /// Registry name of the cryptographic library tier to use.
  std::string provider = "boringssl-sim";

  /// Symmetric key; defaults to the hardcoded 256-bit experiment key
  /// (the paper leaves key distribution as future work).
  // EMC_LINT_ALLOW(secret-wipe): must stay an aggregate (designated
  // init everywhere); the owning SecureComm scrubs its copy on
  // destruction and the AEAD key schedules wipe themselves.
  Bytes key = crypto::demo_key(32);

  NonceMode nonce_mode = NonceMode::kRandom;

  /// Extension beyond the paper (its footnote 1 scopes replay attacks
  /// out): when true, every message authenticates a context of
  /// (source, destination, tag, per-channel sequence number) as AAD,
  /// so replayed, re-routed, or re-ordered ciphertexts are rejected.
  bool bind_context = false;

  /// Sliding acceptance window over the per-channel sequence numbers
  /// (requires bind_context). 0 keeps the strict in-order behaviour:
  /// exactly the next sequence number authenticates. A window of W
  /// additionally (a) accepts a message up to W-1 sequence numbers
  /// ahead, so the channel recovers after dropped or damaged traffic,
  /// and (b) trial-authenticates up to W numbers behind to classify a
  /// duplicate as a replay (rejected, counted in replays_rejected).
  std::size_t replay_window = 0;

  /// Fail-closed nonce-exhaustion guard: a seal throws
  /// NonceExhaustedError once this many AEAD invocations have run
  /// under the current key (counter and random mode alike — the
  /// NIST SP 800-38D random-nonce bound is 2^32 invocations, which is
  /// the default). rekey() resets the count. 0 disables the guard.
  std::uint64_t nonce_rekey_threshold = std::uint64_t{1} << 32;

  /// Analytic crypto timing (see CryptoCostModel). Unset (default):
  /// the measured host time of every seal/open is billed to the rank's
  /// virtual clock through mpi::Comm::charge.
  std::optional<CryptoCostModel> cost_model;

  /// What multi-hop relays do with sealed traffic (hop-trusted
  /// decrypt/re-encrypt vs end-to-end forwarding). Installed on the
  /// wrapped Comm's relay policy at construction; with a cost_model,
  /// hop-trusted relays additionally pay one open + one seal of
  /// analytic time per payload per hop.
  RelayTrust relay_trust = RelayTrust::kHopTrusted;

  /// CryptMPI-style chunked encrypt->send pipelining for large
  /// point-to-point messages (docs/PIPELINE.md). Requires a
  /// cost_model: helper cores are not simulated processes, so their
  /// per-chunk crypto can only be billed analytically (validated at
  /// construction).
  PipelineConfig pipeline;

  /// Per-link key lifecycle (docs/RESILIENCE.md): when set,
  /// point-to-point traffic is sealed under the keyring's per-link
  /// forward-secure epoch keys (installed by keys::link_handshake)
  /// instead of the group key; collectives stay on the group key. The
  /// keyring is strictly per rank — every simulated rank must hold its
  /// OWN LinkKeyring (sharing one across ranks would merge their
  /// ratchet states). Link ids are WORLD ranks, so keyrings survive
  /// communicator shrinks. Sealing to a link with no installed chain
  /// throws keys::KeyringError; to a quarantined link,
  /// keys::LinkQuarantined — both fail closed. Instead of
  /// NonceExhaustedError, a keyring link that reaches
  /// nonce_rekey_threshold seals under one key ratchets forward
  /// in-place and traffic continues (counters().link_ratchets).
  std::shared_ptr<keys::LinkKeyring> keyring;
};

/// Cumulative per-rank crypto accounting (drives the overhead
/// decompositions of Figs. 7/8/14/15).
struct CryptoCounters {
  std::uint64_t messages_sealed = 0;
  std::uint64_t bytes_sealed = 0;    ///< plaintext bytes through seal
  std::uint64_t messages_opened = 0;
  std::uint64_t bytes_opened = 0;    ///< plaintext bytes out of open
  double seal_seconds = 0.0;         ///< measured host time in seal
  double open_seconds = 0.0;         ///< measured host time in open

  // Fault detections (each increments exactly once per IntegrityError).
  std::uint64_t auth_failures = 0;    ///< tag mismatch: tampered/spliced
  std::uint64_t length_failures = 0;  ///< wire shorter than nonce+tag framing
  std::uint64_t replays_rejected = 0; ///< repeated re-injection of a delivered seq

  // Benign-anomaly accounting, kept strictly apart from the attack
  // counters above: a fabric-duplicated frame authenticates as an
  // already-delivered sequence number exactly once and is absorbed
  // silently (the receive loops for the next message). Only a second
  // copy of the same sequence number is classified as a replay attack
  // and rejected.
  std::uint64_t duplicates_suppressed = 0;  ///< first extra copy of a seq

  // End-to-end recovery accounting (reliability layer enabled): an
  // authentication failure whose damage the ARQ stash can explain is
  // NACKed and retransmitted instead of thrown.
  std::uint64_t nacks_sent = 0;             ///< integrity NACKs issued
  std::uint64_t retransmits_recovered = 0;  ///< opens salvaged by retransmit

  /// Times rekey() installed a fresh session key (ft recovery or
  /// nonce-threshold rotation).
  std::uint64_t rekeys = 0;

  // Per-link key-lifecycle accounting (SecureConfig::keyring;
  // mirrors of the keyring's own counters scoped to this SecureComm).
  std::uint64_t link_ratchets = 0;  ///< epoch advances triggered by seals
  std::uint64_t grace_opens = 0;    ///< opens under a superseded epoch
  std::uint64_t catchup_opens = 0;  ///< opens that advanced local state

  // Pipelined-transport accounting (PipelineConfig; docs/PIPELINE.md).
  // Chunk seals/opens also count in messages_sealed/opened and the
  // byte totals above; the *_seconds here are analytic virtual
  // seconds billed to helper cores, kept apart from the host-measured
  // seal_seconds/open_seconds (helper cores never run wall-clock
  // measurement — determinism, EMC-DET-CLOCK).
  std::uint64_t messages_pipelined = 0;  ///< messages sent chunked
  std::uint64_t chunks_sealed = 0;
  std::uint64_t chunks_opened = 0;
  double helper_seal_seconds = 0.0;   ///< analytic helper-core seal time
  double helper_open_seconds = 0.0;   ///< analytic helper-core open time
  /// Virtual seconds the main timeline spent blocked on helper-core
  /// crypto (the unhidden tail of pipelined messages).
  double pipeline_stall_seconds = 0.0;

  [[nodiscard]] std::uint64_t faults_detected() const noexcept {
    return auth_failures + length_failures + replays_rejected;
  }
};

class SecureComm final : public mpi::Communicator {
 public:
  /// @p comm must outlive this object.
  SecureComm(mpi::Comm& comm, const SecureConfig& config);

  [[nodiscard]] int rank() const override { return comm_->rank(); }
  [[nodiscard]] int size() const override { return comm_->size(); }

  void send(BytesView data, int dst, int tag) override;
  mpi::Status recv(MutBytes buf, int src, int tag) override;
  mpi::Request isend(BytesView data, int dst, int tag) override;
  mpi::Request irecv(MutBytes buf, int src, int tag) override;
  mpi::Status wait(mpi::Request& request) override;
  std::vector<mpi::Status> waitall(std::span<mpi::Request> requests) override;
  mpi::Status sendrecv(BytesView senddata, int dst, int sendtag,
                       MutBytes recvbuf, int src, int recvtag) override;

  void barrier() override;
  void bcast(MutBytes data, int root) override;
  void allgather(BytesView sendpart, MutBytes recvall) override;
  void alltoall(BytesView sendbuf, MutBytes recvbuf,
                std::size_t block) override;
  void alltoallv(BytesView sendbuf, std::span<const std::size_t> sendcounts,
                 std::span<const std::size_t> senddispls, MutBytes recvbuf,
                 std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> recvdispls) override;
  void gather(BytesView sendpart, MutBytes recvall, int root) override;
  void scatter(BytesView sendall, MutBytes recvpart, int root) override;

  /// The wrapped plain communicator.
  [[nodiscard]] mpi::Comm& plain() { return *comm_; }

  /// Plaintext-exposure events at untrusted relays since this
  /// SecureComm attached: under kHopTrusted, one event per relay node
  /// each delivered payload crossed (world-wide — the fabric counts
  /// crossings, this object scopes them to its lifetime); exactly 0
  /// under kEndToEnd, where relays only ever see sealed bytes.
  [[nodiscard]] std::uint64_t exposure_events() const {
    if (config_.relay_trust == RelayTrust::kEndToEnd) return 0;
    return comm_->world().fabric().relay_exposures() - exposure_base_;
  }

  /// Scrubs the session-key copy held by the effective config; the
  /// provider-side key schedules wipe themselves (EMC-SECRET-WIPE).
  ~SecureComm() { secure_zero(config_.key); }

  /// Effective configuration (the key reflects the latest rekey).
  [[nodiscard]] const SecureConfig& config() const noexcept {
    return config_;
  }

  /// Installs @p new_key as the session key and restarts every
  /// key-scoped stream from zero: the nonce counter, the per-channel
  /// send/recv sequence numbers, and the replay-window bookkeeping.
  /// Used after ft recovery (the shrunken communicator must never
  /// extend the old key's nonce stream) and for nonce-threshold
  /// rotation. Collective in spirit: every rank must rekey with the
  /// same key before traffic resumes.
  void rekey(BytesView new_key);

  [[nodiscard]] const CryptoCounters& counters() const noexcept {
    return counters_;
  }
  void reset_counters() noexcept { counters_ = {}; }

  /// Wire size of an encrypted message carrying @p payload bytes.
  [[nodiscard]] static constexpr std::size_t wire_size(
      std::size_t payload) noexcept {
    return payload + crypto::kWireOverhead;
  }

 private:
  /// nonce || ct || tag for @p pt, written at @p out (wire_size(pt)),
  /// authenticating @p aad (empty unless context binding is on).
  /// @p peer (comm-local, >= 0 for point-to-point traffic) selects the
  /// keyring's per-link epoch key when a keyring is configured; -1
  /// (collectives) always seals under the group key. The nonce comes
  /// from the one sanctioned stream (per-seal exhaustion guard). The
  /// seal is billed to the rank's clock (charged_crypto), or with
  /// @p on_helper to a pipeline helper core (helper_crypto). Returns
  /// the virtual time the sealed frame is ready: a chunk's
  /// wire_not_before.
  double seal_into(BytesView pt, MutBytes out, BytesView aad = {},
                   int peer = -1, bool on_helper = false);

  /// Seals a point-to-point payload for @p dst into a wire buffer from
  /// the frame pool, binding the channel context when configured.
  Bytes seal_p2p(BytesView data, int dst, int tag);

  /// Inverse of seal_into; throws IntegrityError on tag failure.
  /// @p wire is nonce||ct||tag; @p out receives wire.size()-28 bytes.
  void open_into(BytesView wire, MutBytes out, BytesView aad = {});

  /// Non-throwing open: true and plaintext in @p out on success.
  /// Charges crypto time unless @p charged is false (pipelined chunks,
  /// whose time the helper cores bill); the caller accounts accepted
  /// messages. For keyring links (@p peer >= 0), trial-opens the
  /// link's epoch candidates (current, ahead up to max_skew, grace) —
  /// each trial is one open — and reports a success to the keyring.
  [[nodiscard]] bool try_open_into(BytesView wire, MutBytes out,
                                   BytesView aad, int peer = -1,
                                   bool charged = true);

  /// One open of @p wire under @p key: charged_crypto-billed when
  /// @p charged, otherwise unbilled (the helper cores bill chunks).
  [[nodiscard]] bool open_under(const crypto::AeadKey& key, BytesView wire,
                                BytesView aad, MutBytes out, bool charged);

  /// True when @p peer's point-to-point traffic uses the keyring.
  [[nodiscard]] bool keyring_link(int peer) const noexcept;

  /// Hop-trusted routes only: counts the re-seal every relay on the
  /// way to @p peer performs under the group key against the
  /// nonce-exhaustion budget, throwing NonceExhaustedError BEFORE the
  /// payload leaves if the route's re-seals would overrun it (fail
  /// closed at the sender, not at an unaccountable relay). No-op for
  /// end-to-end trust, unrouted peers, collectives (@p peer < 0), and
  /// keyring links (their per-link budget rotates online instead).
  void charge_relay_reseals(int peer);

  /// Keyring seal setup for one message/chunk to @p peer: fetches the
  /// epoch seal key (ratcheting in place on budget/interval triggers —
  /// billed on the key_mgmt lane), writes the rank||seq nonce (the two
  /// directions of a link share the epoch key; the rank prefix keeps
  /// their nonce streams disjoint), returns the AEAD to seal under.
  const crypto::AeadKey* keyring_seal(int peer,
                                      std::uint8_t out[crypto::kGcmNonceBytes]);

  // ------------------------------------------------------ frame accept
  // One accept routine serves both framings (docs/PIPELINE.md).

  struct Inbound;  ///< a message being received (secure_comm.cpp)

  /// Outcome of one open attempt on a received frame.
  enum class Verdict : std::uint8_t {
    kDone,       ///< the frame completed the message
    kMore,       ///< a chunk accepted or a duplicate absorbed
    kMalformed,  ///< the frame does not fit its framing or the message
    kForged,     ///< authentication failed
  };

  /// Completes a receive whose first frame (@p ws) is in @p wire,
  /// receiving more frames until the message is whole: from the
  /// (@p src, @p tag) match after a duplicate, from the first chunk's
  /// channel for the rest of a pipelined message. Each further frame
  /// is taken into @p wire (Comm::recv_frame) after the one before
  /// went back to the frame pool.
  mpi::Status receive(Bytes& wire, mpi::Status ws, MutBytes user, int src,
                      int tag);

  /// Accepts one frame: classify, dedup or authenticate, on failure
  /// one end-to-end ARQ recovery (the clean copy rewrites @p frame)
  /// before IntegrityError. True once the message is complete.
  bool accept(MutBytes frame, int src, int tag, MutBytes user, Inbound& in);

  /// An unchunked frame: length check, then the trial opens — the
  /// window ahead, then the window behind (duplicate or replay).
  Verdict open_whole(MutBytes frame, int src, int tag, MutBytes user,
                     Inbound& in);

  /// A chunk frame: header bounds, a copy of an accepted chunk found
  /// by its GCM tag, else authentication with the header as AAD —
  /// only then are the header's id, count and index trusted.
  Verdict open_chunk(MutBytes frame, int src, int tag, MutBytes user,
                     Inbound& in);

  // ------------------------------------------------- chunked pipeline
  // (docs/PIPELINE.md; all billing below is analytic — helper cores
  // never measure host time, keeping src/secure_mpi EMC-DET-CLOCK
  // clean without suppressions.)

  /// True when a payload of @p bytes takes the pipelined path.
  [[nodiscard]] bool pipeline_engages(std::size_t bytes) const noexcept;

  /// Wire capacity a receive buffer needs so any frame — unchunked
  /// message or single pipelined chunk — of a payload up to
  /// @p payload bytes fits.
  [[nodiscard]] static constexpr std::size_t recv_wire_capacity(
      std::size_t payload) noexcept {
    return kPipeHeaderBytes + wire_size(payload);
  }

  /// Schedules one chunk's seal/open of @p bytes plaintext on the
  /// earliest-free helper core, no earlier than now. Returns the
  /// completion time and records a crypto_helper trace span on the
  /// core's lane. With helper_cores == 0 the cost is billed serially
  /// on the main clock instead (nothing is billed with crypto
  /// charging off), and now() is returned.
  double helper_crypto(std::size_t bytes, bool encrypt);

  /// AAD of a pipelined chunk: its header, then with context binding
  /// the channel context at sequence @p seq.
  [[nodiscard]] Bytes chunk_aad(const std::uint8_t* header, int src, int dst,
                                int tag, std::uint64_t seq) const;

  /// Sender side of the pipeline: chunk, seal on helper cores, send
  /// each frame with its seal-completion wire gate.
  void send_pipelined(BytesView data, int dst, int tag);

  /// Context AAD helpers (replay-protection extension), empty unless
  /// context binding is on. The 24-byte AAD layout is src(4) ||
  /// dst(4) || tag(4) || kind(4) || seq(8).
  [[nodiscard]] Bytes p2p_aad(int src, int dst, int tag,
                              std::uint64_t seq) const;
  /// Collective-block AAD: origin, destination (-1 = all), collective
  /// sequence number.
  [[nodiscard]] Bytes coll_aad(int src, int dst, std::uint64_t seq) const;
  /// Next sequence number for the (peer, tag) send channel.
  [[nodiscard]] std::uint64_t next_send_seq(int dst, int tag);

  /// Runs @p work (a seal when @p encrypt, else an open of @p bytes
  /// plaintext bytes) and bills its cost to the virtual clock —
  /// measured wall time through mpi::Comm::charge by default, the
  /// analytic cost_model when one is configured (nothing for the zero
  /// model). Tags the billed interval for the tracing layer
  /// (crypto_encrypt / crypto_decrypt). Returns the measured host
  /// seconds. A template, so the analytic path does not box the
  /// per-seal lambda into a std::function.
  template <typename Work>
  double charged_crypto(Work&& work, std::size_t bytes, bool encrypt);

  /// Analytic cost_model seconds of a seal/open of @p bytes.
  [[nodiscard]] double model_cost(std::size_t bytes, bool encrypt) const;

  /// Advances this rank's clock by @p seconds, traced as @p cat.
  void bill_on_rank(trace::Category cat, double seconds, int peer = -1,
                    std::uint64_t bytes = 0);

  void next_nonce(std::uint8_t out[crypto::kGcmNonceBytes]);

  mpi::Comm* comm_;
  SecureConfig config_;
  crypto::AeadKeyPtr key_;
  CryptoCounters counters_;
  std::uint64_t nonce_counter_ = 0;
  // Replay-protection channel counters (only used with bind_context).
  std::map<std::pair<int, int>, std::uint64_t> send_seq_;
  std::map<std::pair<int, int>, std::uint64_t> recv_seq_;
  /// Extra copies seen per already-delivered (src, tag, seq): copy 1
  /// is a benign fabric duplicate, copy 2+ is a replay attack.
  std::map<std::tuple<int, int, std::uint64_t>, std::uint32_t> extra_copies_;
  std::uint64_t coll_seq_ = 0;
  // Pipelined-transport state (all key-scoped; rekey() resets it).
  // helper_free_[c] is helper core c's next-free virtual time —
  // scheduling always picks the earliest-free (lowest-index) core, a
  // pure function of the simulated timeline (EMC-DET).
  std::vector<double> helper_free_;
  std::uint64_t pipe_msg_id_ = 0;  ///< next pipelined send's message id
  /// Receive side of one pipelined (src, tag) channel: the next
  /// message id it expects, and the GCM tags of its latest message's
  /// accepted chunks, which identify later copies without crypto.
  struct PipeChannel {
    std::uint64_t next_id = 0;
    std::vector<std::array<std::uint8_t, crypto::kGcmTagBytes>> tags;
    std::vector<std::uint8_t> copies;  ///< 0 none, 1 accepted, 2 + a duplicate
  };
  std::map<std::pair<int, int>, PipeChannel> pipe_rx_;
  /// Fabric-wide relay-exposure count at attach; exposure_events()
  /// reports the delta so stacked experiments don't bleed into each
  /// other.
  std::uint64_t exposure_base_ = 0;
};

/// Convenience: run a world where every rank gets a SecureComm.
double run_secure_world(const mpi::WorldConfig& world_config,
                        const SecureConfig& secure_config,
                        const std::function<void(SecureComm&)>& body);

}  // namespace emc::secure
