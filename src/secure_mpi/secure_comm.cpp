#include "emc/secure_mpi/secure_comm.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <new>

#include "emc/common/rng.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/mpi/validate.hpp"
#include "emc/common/timer.hpp"

namespace emc::secure {

namespace {

using crypto::kGcmNonceBytes;
using crypto::kGcmTagBytes;
using crypto::kWireOverhead;

/// Recycled wire buffers of this host thread. Every rank of every
/// World on the thread shares it, so a frame one rank sealed and sent
/// can come back from its receiver and carry the next seal without a
/// fresh allocation, and it survives World teardown: large buffers
/// that glibc would otherwise hand back to the kernel and fault in
/// again (docs/BENCHMARKING.md). It holds only sealed frames (nonce ||
/// ct || tag, maybe behind a chunk header), never plaintext.
class FramePool {
 public:
  /// A buffer of @p n bytes whose contents are unspecified: the
  /// smallest retained one holding n to n + n/4 bytes, shrunk without
  /// touching its bytes, else a fresh one. The cap keeps a buffer in
  /// its size class: shrunk for a much smaller frame, it could never
  /// carry its own size again without zero-filling.
  Bytes take(std::size_t n) {
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->size() >= n && it->size() - n <= n / 4 &&
          (best == free_.end() || it->size() < best->size())) {
        best = it;
      }
    }
    if (best == free_.end()) return Bytes(n);
    std::iter_swap(best, free_.end() - 1);
    Bytes b = std::move(free_.back());
    free_.pop_back();
    retained_ -= b.capacity();
    b.resize(n);
    return b;
  }

  /// Retains @p b's buffer (leaving @p b empty), evicting the smallest
  /// retained buffers to stay within kRetainBytes.
  void give(Bytes& b) {
    const std::size_t cap = b.capacity();
    if (b.empty() || cap > kRetainBytes) {
      Bytes().swap(b);
      return;
    }
    while (retained_ + cap > kRetainBytes) {
      const auto smallest = std::ranges::min_element(
          free_, {}, [](const Bytes& f) { return f.capacity(); });
      retained_ -= smallest->capacity();
      std::iter_swap(smallest, free_.end() - 1);
      free_.pop_back();
    }
    try {
      free_.push_back(std::move(b));
    } catch (const std::bad_alloc&) {
      return;  // runs in ~Frame: keep the buffer out of the pool instead
    }
    retained_ += cap;
  }

 private:
  /// Enough for a 4 MiB serial frame plus a 4 MiB message's pipelined
  /// chunks in flight; a bound, since an unbounded pool keeps the
  /// high-water mark of every World the thread ever ran.
  static constexpr std::size_t kRetainBytes = std::size_t{8} << 20;
  std::vector<Bytes> free_;
  std::size_t retained_ = 0;  ///< total capacity in free_
};

FramePool& frame_pool() {
  static thread_local FramePool pool;
  return pool;
}

/// A pooled wire buffer that goes back to the pool when it dies.
struct Frame {
  Frame() = default;
  /// @p n bytes; zeroed for a buffer a collective receives into, since
  /// a truncated block there must never be completed by stale bytes.
  explicit Frame(std::size_t n, bool zeroed = false)
      : bytes(frame_pool().take(n)) {
    if (zeroed) std::ranges::fill(bytes, 0);
  }
  ~Frame() { frame_pool().give(bytes); }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  Bytes bytes;
};

/// Request state for a non-blocking encrypted send: keeps the wire
/// buffer alive until completion (rendezvous references it in place).
/// A pipelined send has no inner request: every chunk was already
/// dispatched in isend (send_chunk never blocks — the sender only pays
/// per-chunk CPU overhead), so it is born complete with `status`.
struct SecureSendState final : mpi::detail::RequestState {
  Frame wire;
  mpi::Request inner;
  mpi::Status status;
};

/// Request state for a non-blocking encrypted receive: the ciphertext
/// lands in `wire`; decryption into `user` happens inside wait().
/// `src`/`tag` are kept so wait() can re-post the inner receive after
/// absorbing a benign fabric duplicate.
struct SecureRecvState final : mpi::detail::RequestState {
  Frame wire;
  MutBytes user;
  int src = mpi::kAnySource;
  int tag = mpi::kAnyTag;
  mpi::Request inner;
};

/// A received frame is a pipelined chunk when it is long enough to
/// hold the chunk header plus a minimal AEAD frame and leads with the
/// magic (see kPipeMagic's collision analysis in pipeline.hpp).
bool looks_like_chunk(BytesView frame) {
  return frame.size() >= kPipeHeaderBytes + kWireOverhead &&
         load_be32(frame.data()) == kPipeMagic;
}

/// Pre-authentication header sanity: pure bounds checks against the
/// frame length and the receive capacity. Field integrity is enforced
/// later — the header is the AAD prefix of its chunk, so any tampered
/// field fails the tag.
bool pipe_header_plausible(const PipeChunkHeader& h, std::size_t frame_bytes,
                           std::size_t capacity) {
  return h.count >= 1 && h.index < h.count && h.offset <= capacity &&
         h.chunk_len <= capacity - h.offset &&
         frame_bytes == kPipeHeaderBytes + SecureComm::wire_size(h.chunk_len);
}

}  // namespace

SecureComm::SecureComm(mpi::Comm& comm, const SecureConfig& config)
    : comm_(&comm),
      config_(config),
      key_(crypto::make_aes_gcm(config.provider, config.key)) {
  if (config_.replay_window > 0 && !config_.bind_context) {
    throw std::invalid_argument(
        "SecureConfig: replay_window requires bind_context (the window "
        "slides over the authenticated per-channel sequence numbers)");
  }
  net::RelayPolicy relay;  // kEndToEnd: sealed forwarding, free relays
  if (config_.relay_trust == RelayTrust::kHopTrusted) {
    relay.hop_integrity = true;  // each hop re-verifies before re-sealing
    if (config_.cost_model) {
      // One open + one seal of analytic crypto time per payload per
      // relay. Without a cost model relay crypto is unbilled (relays
      // are not simulated processes, so wall-clock charging has no
      // process to bill).
      const CryptoCostModel& m = *config_.cost_model;
      relay.per_hop_fixed = m.open_per_op + m.seal_per_op;
      relay.per_hop_byte = m.open_per_byte + m.seal_per_byte;
    }
  }
  comm_->set_relay_policy(relay);
  exposure_base_ = comm_->world().fabric().relay_exposures();
  if (config_.pipeline.enabled) {
    if (config_.pipeline.chunk_bytes == 0) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.chunk_bytes must be >= 1");
    }
    if (config_.pipeline.chunk_bytes >
        std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.chunk_bytes must fit the 32-bit "
          "chunk-length header field");
    }
    if (config_.pipeline.helper_cores < 0) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.helper_cores must be >= 0");
    }
    if (!config_.cost_model) {
      throw std::invalid_argument(
          "SecureConfig: the pipeline requires a cost_model — helper "
          "cores are not simulated processes, so their per-chunk crypto "
          "can only be billed analytically (docs/PIPELINE.md)");
    }
    helper_free_.assign(static_cast<std::size_t>(config_.pipeline.helper_cores),
                        0.0);
  }
}

template <typename Work>
double SecureComm::charged_crypto(Work&& work, std::size_t bytes,
                                  bool encrypt) {
  const auto category = encrypt ? trace::Category::kCryptoEncrypt
                                : trace::Category::kCryptoDecrypt;
  if (!config_.cost_model) return comm_->charge(std::ref(work), category);
  // Analytic billing: the crypto really executes (semantics and
  // counters unchanged) but virtual time advances by the model, so
  // encrypted timelines are deterministic.
  // EMC_LINT_ALLOW(det-clock): the host seconds feed BENCH JSON
  // metrics, never the virtual timeline.
  WallTimer timer;
  work();
  const double elapsed = timer.seconds();
  if (*config_.cost_model != CryptoCostModel{}) {
    bill_on_rank(category, model_cost(bytes, encrypt), -1, bytes);
  }
  return elapsed;
}

double SecureComm::model_cost(std::size_t bytes, bool encrypt) const {
  const CryptoCostModel& m = *config_.cost_model;
  return encrypt
             ? m.seal_per_op + static_cast<double>(bytes) * m.seal_per_byte
             : m.open_per_op + static_cast<double>(bytes) * m.open_per_byte;
}

void SecureComm::bill_on_rank(trace::Category cat, double seconds, int peer,
                              std::uint64_t bytes) {
  sim::Process& proc = comm_->process();
  const double begin = proc.now();
  proc.advance(seconds);
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    // Trace rows are world-rank-indexed; on a shrunken communicator
    // the local rank() no longer names the right row.
    rec->record(proc.index(), cat, begin, proc.now(), peer, bytes);
  }
}

bool SecureComm::keyring_link(int peer) const noexcept {
  return config_.keyring != nullptr && peer >= 0;
}

const crypto::AeadKey* SecureComm::keyring_seal(
    int peer, std::uint8_t out[kGcmNonceBytes]) {
  keys::LinkKeyring& ring = *config_.keyring;
  const int link = comm_->to_world(peer);
  const keys::LinkKeyring::SealKey sk =
      ring.seal_key(link, comm_->now(), config_.nonce_rekey_threshold);
  if (sk.ratcheted) {
    // The epoch advanced in place — traffic continues under the next
    // chain key instead of stopping on NonceExhaustedError. Bill the
    // chain step analytically on the key_mgmt lane.
    ++counters_.link_ratchets;
    bill_on_rank(trace::Category::kKeyMgmt, ring.ratchet().step_cost, link);
  }
  // Both endpoints seal under the same epoch key; the sender's world
  // rank prefixes the per-epoch sequence so the two directions' nonce
  // streams can never collide.
  store_be32(out, static_cast<std::uint32_t>(comm_->to_world(rank())));
  store_be64(out + 4, sk.seq);
  return sk.aead;
}

void SecureComm::next_nonce(std::uint8_t out[kGcmNonceBytes]) {
  // Fail-closed rekey gate: refuse to seal past the per-key invocation
  // budget rather than risk a repeated (key, nonce) pair. Counted in
  // both modes — random nonces hit the NIST birthday bound at 2^32
  // invocations just as surely as a wrapped counter would repeat.
  if (config_.nonce_rekey_threshold != 0 &&
      nonce_counter_ >= config_.nonce_rekey_threshold) {
    throw NonceExhaustedError(nonce_counter_, config_.nonce_rekey_threshold);
  }
  if (config_.nonce_mode == NonceMode::kRandom) {
    ++nonce_counter_;
    // EMC_LINT_ALLOW(nonce-source): NonceMode::kRandom reproduces the
    // paper's random-IV configuration as a studied design point; the
    // nonce-exhaustion guard above still bounds draws per key, and
    // kCounter is the default for production-shaped runs.
    random_nonce(MutBytes(out, kGcmNonceBytes));
    return;
  }
  store_be32(out, static_cast<std::uint32_t>(rank()));
  store_be64(out + 4, nonce_counter_++);
}

void SecureComm::charge_relay_reseals(int peer) {
  if (peer < 0 || config_.relay_trust != RelayTrust::kHopTrusted ||
      keyring_link(peer)) {
    return;
  }
  const net::Fabric& fabric = comm_->world().fabric();
  const net::RouteSpec* route =
      fabric.route_for(fabric.node_of(comm_->to_world(rank())),
                       fabric.node_of(comm_->to_world(peer)));
  if (route == nullptr) return;
  // Every hop-trusted relay on the route re-seals this payload under
  // the same group key: those AEAD invocations spend the key's nonce
  // budget exactly like local seals. Count them against the
  // fail-closed guard, or the true invocation count under the key
  // silently overruns the configured threshold. (Keyring links are
  // exempt: their per-link budget rotates the epoch online instead.)
  const auto hops = static_cast<std::uint64_t>(route->via.size());
  if (config_.nonce_rekey_threshold != 0 &&
      nonce_counter_ + hops >= config_.nonce_rekey_threshold) {
    throw NonceExhaustedError(nonce_counter_ + hops,
                              config_.nonce_rekey_threshold);
  }
  nonce_counter_ += hops;
}

void SecureComm::rekey(BytesView new_key) {
  key_ = crypto::make_aes_gcm(config_.provider, new_key);
  config_.key.assign(new_key.begin(), new_key.end());
  // Every key-scoped stream restarts: nonces, per-channel sequence
  // numbers, replay-window bookkeeping. The fresh key makes the reset
  // safe (no (key, nonce) or (key, seq) pair can repeat).
  nonce_counter_ = 0;
  send_seq_.clear();
  recv_seq_.clear();
  extra_copies_.clear();
  pipe_msg_id_ = 0;
  pipe_rx_.clear();
  ++counters_.rekeys;
}

Bytes SecureComm::p2p_aad(int src, int dst, int tag,
                          std::uint64_t seq) const {
  if (!config_.bind_context) return {};
  Bytes aad(24);
  store_be32(aad.data(), static_cast<std::uint32_t>(src));
  store_be32(aad.data() + 4, static_cast<std::uint32_t>(dst));
  store_be32(aad.data() + 8, static_cast<std::uint32_t>(tag));
  store_be32(aad.data() + 12, 0);  // kind: 0 = point-to-point
  store_be64(aad.data() + 16, seq);
  return aad;
}

Bytes SecureComm::coll_aad(int src, int dst, std::uint64_t seq) const {
  if (!config_.bind_context) return {};
  Bytes aad(24);
  store_be32(aad.data(), static_cast<std::uint32_t>(src));
  store_be32(aad.data() + 4, static_cast<std::uint32_t>(dst));
  store_be32(aad.data() + 8, 0);
  store_be32(aad.data() + 12, 1);  // kind: 1 = collective
  store_be64(aad.data() + 16, seq);
  return aad;
}

std::uint64_t SecureComm::next_send_seq(int dst, int tag) {
  return send_seq_[{dst, tag}]++;
}

double SecureComm::seal_into(BytesView pt, MutBytes out, BytesView aad,
                             int peer, bool on_helper) {
  if (out.size() != wire_size(pt.size())) {
    throw std::invalid_argument("seal_into: wire buffer size mismatch");
  }
  charge_relay_reseals(peer);
  // Keyring links seal under the link's per-epoch key (ratchet + seq
  // fetched before the charged region so ratchet billing lands on the
  // key_mgmt lane, not inside the seal span).
  const crypto::AeadKey* aead =
      keyring_link(peer) ? keyring_seal(peer, out.data()) : nullptr;
  const auto seal = [&] {
    if (aead == nullptr) {
      next_nonce(out.data());
      aead = key_.get();
    }
    aead->seal(BytesView(out.data(), kGcmNonceBytes), aad, pt,
               out.subspan(kGcmNonceBytes));
  };
  double done = 0.0;
  if (on_helper) {
    // No host-time measurement here (seal_seconds stays a main-clock
    // wall measurement; helper billing is purely analytic).
    seal();
    ++counters_.chunks_sealed;
    done = helper_crypto(pt.size(), /*encrypt=*/true);
  } else {
    counters_.seal_seconds += charged_crypto(seal, pt.size(), /*encrypt=*/true);
    done = comm_->now();
  }
  ++counters_.messages_sealed;
  counters_.bytes_sealed += pt.size();
  return done;
}

bool SecureComm::try_open_into(BytesView wire, MutBytes out, BytesView aad,
                               int peer, bool charged) {
  if (!keyring_link(peer)) return open_under(*key_, wire, aad, out, charged);
  keys::LinkKeyring& ring = *config_.keyring;
  const int link = comm_->to_world(peer);
  std::vector<keys::LinkKeyring::OpenCandidate> cands;
  ring.open_candidates(link, comm_->now(), cands);
  for (const auto& cand : cands) {
    if (!open_under(*cand.aead, wire, aad, out, charged)) continue;
    const auto kind = ring.note_open(link, cand.epoch, comm_->now());
    if (kind == keys::LinkKeyring::OpenKind::kGrace) ++counters_.grace_opens;
    if (kind == keys::LinkKeyring::OpenKind::kCatchup) {
      ++counters_.catchup_opens;
    }
    return true;
  }
  return false;
}

bool SecureComm::open_under(const crypto::AeadKey& key, BytesView wire,
                            BytesView aad, MutBytes out, bool charged) {
  bool ok = false;
  const auto open = [&] {
    ok = key.open(wire.first(kGcmNonceBytes), aad,
                  wire.subspan(kGcmNonceBytes), out);
  };
  if (charged) {
    counters_.open_seconds += charged_crypto(open, out.size(), /*encrypt=*/false);
  } else {
    open();  // pipelined chunk: the helper core bills the time
  }
  return ok;
}

void SecureComm::open_into(BytesView wire, MutBytes out, BytesView aad) {
  if (wire.size() < kWireOverhead) {
    ++counters_.length_failures;
    throw IntegrityError("received message shorter than nonce+tag framing");
  }
  if (out.size() != wire.size() - kWireOverhead) {
    throw std::invalid_argument("open_into: plaintext buffer size mismatch");
  }
  if (!try_open_into(wire, out, aad)) {
    ++counters_.auth_failures;
    throw IntegrityError(
        "authentication tag mismatch: message was tampered with or "
        "corrupted (rank " +
        std::to_string(rank()) + ")");
  }
  ++counters_.messages_opened;
  counters_.bytes_opened += out.size();
}

// ------------------------------------------------------ chunked pipeline

bool SecureComm::pipeline_engages(std::size_t bytes) const noexcept {
  const PipelineConfig& p = config_.pipeline;
  // A message that fits one chunk gains nothing from chunk framing.
  return p.enabled && bytes > p.chunk_bytes && bytes >= p.min_bytes;
}

double SecureComm::helper_crypto(std::size_t bytes, bool encrypt) {
  sim::Process& proc = comm_->process();
  if (!config_.cost_model || *config_.cost_model == CryptoCostModel{}) {
    // Free crypto (the zero model), or a wall-clock-billed peer
    // receiving chunked traffic: the crypto really executed but no
    // virtual time is billed (measuring host time here would break
    // the determinism of src/secure_mpi — see docs/PIPELINE.md).
    return proc.now();
  }
  const double cost = model_cost(bytes, encrypt);
  if (helper_free_.empty()) {
    // helper_cores == 0: chunk framing without overlap — the chunk's
    // crypto is billed serially on the rank itself.
    bill_on_rank(encrypt ? trace::Category::kCryptoEncrypt
                         : trace::Category::kCryptoDecrypt,
                 cost, -1, bytes);
    return proc.now();
  }
  // Earliest-free core wins, lowest index on ties: a pure function of
  // the simulated timeline, so helper schedules replay bit-exact
  // (EMC-DET). The chunk cannot start before its data exists on this
  // rank (`now`), nor before the core drained its queue.
  std::size_t core = 0;
  for (std::size_t c = 1; c < helper_free_.size(); ++c) {
    if (helper_free_[c] < helper_free_[core]) core = c;
  }
  const double start = std::max(helper_free_[core], proc.now());
  const double done = start + cost;
  helper_free_[core] = done;
  (encrypt ? counters_.helper_seal_seconds
           : counters_.helper_open_seconds) += cost;
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    rec->record(proc.index(), trace::Category::kCryptoHelper, start, done,
                static_cast<int>(core), bytes);
  }
  return done;
}

Bytes SecureComm::chunk_aad(const std::uint8_t* header, int src, int dst,
                            int tag, std::uint64_t seq) const {
  // The chunk's AAD is its own header — every field the receiver
  // steers by is under the tag — plus, with context binding, the
  // usual channel context at the chunk's sequence number.
  Bytes aad(header, header + kPipeHeaderBytes);
  const Bytes ctx = p2p_aad(src, dst, tag, seq);
  aad.insert(aad.end(), ctx.begin(), ctx.end());
  return aad;
}

void SecureComm::send_pipelined(BytesView data, int dst, int tag) {
  const std::size_t chunk = config_.pipeline.chunk_bytes;
  const auto count = static_cast<std::uint32_t>((data.size() + chunk - 1) /
                                                chunk);
  const std::uint64_t msg_id = pipe_msg_id_++;
  ++counters_.messages_pipelined;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t off = std::size_t{k} * chunk;
    const std::size_t len = std::min(chunk, data.size() - off);
    Bytes frame = frame_pool().take(kPipeHeaderBytes + wire_size(len));
    store_pipe_header(frame.data(), {.msg_id = msg_id,
                                     .index = k,
                                     .count = count,
                                     .chunk_len = static_cast<std::uint32_t>(len),
                                     .offset = off});
    // With context binding every chunk draws one fresh sequence
    // number (consecutive draws from the same stream as unchunked
    // traffic).
    const std::uint64_t seq =
        config_.bind_context ? next_send_seq(dst, tag) : 0;
    const double sealed_at = seal_into(
        data.subspan(off, len), MutBytes(frame).subspan(kPipeHeaderBytes),
        chunk_aad(frame.data(), rank(), dst, tag, seq), dst,
        /*on_helper=*/true);
    // The frame flies as soon as both the NIC is free and the helper
    // core sealed it; the sender's own clock only pays the per-chunk
    // CPU overhead + copy, which is how encryption hides behind the
    // transfer of earlier chunks.
    comm_->send_chunk(std::move(frame), dst, tag, sealed_at);
  }
}

// ---------------------------------------------------------- frame accept

/// One message being received. Stays empty for an unchunked message;
/// a pipelined message fills it in when its first chunk authenticates.
struct SecureComm::Inbound {
  PipeChannel* pipe = nullptr;  ///< the message's channel, once chunked
  std::uint64_t msg_id = 0;
  std::uint32_t count = 0;
  std::uint64_t chunk = 0;      ///< chunk size: chunk k starts at k * chunk
  std::uint64_t base = 0;       ///< channel sequence number of chunk 0
  std::uint32_t have = 0;       ///< chunks accepted
  std::size_t bytes = 0;        ///< plaintext bytes accepted
  std::size_t length = 0;       ///< message length once known
  double crypto_done = 0.0;     ///< last helper-core open completion
};

SecureComm::Verdict SecureComm::open_whole(MutBytes frame, int src, int tag,
                                           MutBytes user, Inbound& in) {
  if (in.pipe != nullptr) return Verdict::kMalformed;  // inside a pipeline
  // Validate the length before any size arithmetic.
  if (frame.size() < kWireOverhead || frame.size() > wire_size(user.size())) {
    ++counters_.length_failures;
    throw IntegrityError(
        "wire message of " + std::to_string(frame.size()) +
        " bytes outside the valid [" + std::to_string(kWireOverhead) + ", " +
        std::to_string(wire_size(user.size())) +
        "] range for this receive: truncated or oversized in transit (rank " +
        std::to_string(rank()) + ")");
  }
  in.length = frame.size() - kWireOverhead;
  const MutBytes out = user.first(in.length);
  const auto opened = [&] {
    ++counters_.messages_opened;
    counters_.bytes_opened += out.size();
    return Verdict::kDone;
  };
  if (!config_.bind_context) {
    return try_open_into(frame, out, {}, src) ? opened() : Verdict::kForged;
  }
  // The channel counter advances only when a message authenticates, so
  // damaged traffic cannot desynchronize honest traffic behind it. With
  // a replay window, sequence numbers slightly ahead (dropped
  // predecessors) still authenticate, and numbers behind are
  // trial-checked to separate benign fabric duplicates from replays.
  std::uint64_t& expected = recv_seq_[{src, tag}];
  const std::uint64_t ahead =
      config_.replay_window > 0 ? config_.replay_window : 1;
  for (std::uint64_t k = 0; k < ahead; ++k) {
    if (try_open_into(frame, out, p2p_aad(src, rank(), tag, expected + k),
                      src)) {
      expected += k + 1;
      return opened();
    }
  }
  for (std::uint64_t back = 1;
       back <= config_.replay_window && back <= expected; ++back) {
    const std::uint64_t seq = expected - back;
    if (try_open_into(frame, out, p2p_aad(src, rank(), tag, seq), src)) {
      secure_zero(out);  // never hand a repeated plaintext to the caller
      // The first extra copy is the fabric duplicating the frame: absorb
      // it. The same sequence number injected yet again is an attacker
      // replaying captured traffic, not a duplicating wire.
      if (++extra_copies_[{src, tag, seq}] == 1) {
        ++counters_.duplicates_suppressed;
        return Verdict::kMore;
      }
      ++counters_.replays_rejected;
      throw IntegrityError(
          "replayed message rejected: sequence " + std::to_string(seq) +
          " from rank " + std::to_string(src) +
          " was already delivered (rank " + std::to_string(rank()) + ")");
    }
  }
  return Verdict::kForged;
}

SecureComm::Verdict SecureComm::open_chunk(MutBytes frame, int src, int tag,
                                           MutBytes user, Inbound& in) {
  const PipeChunkHeader h = load_pipe_header(frame.data());
  if (!pipe_header_plausible(h, frame.size(), user.size())) {
    return Verdict::kMalformed;
  }
  PipeChannel& ch = pipe_rx_[{src, tag}];
  const BytesView gcm_tag = BytesView(frame).last(kGcmTagBytes);
  const auto replayed = [&] {
    secure_zero(user);
    ++counters_.replays_rejected;
    return IntegrityError("replayed pipelined chunk rejected: chunk " +
                          std::to_string(h.index) + " of message " +
                          std::to_string(h.msg_id) + " from rank " +
                          std::to_string(src) + " (rank " +
                          std::to_string(rank()) + ")");
  };
  // Another copy of a chunk this channel already accepted (of the
  // message in progress, or of the previous one straggling in) carries
  // that chunk's GCM tag: recognise it without crypto. The first extra
  // copy is a benign fabric duplicate; the second is a replay.
  if (h.index < ch.copies.size() && ch.copies[h.index] != 0 &&
      std::equal(gcm_tag.begin(), gcm_tag.end(), ch.tags[h.index].begin())) {
    if (ch.copies[h.index] != 1) throw replayed();
    ch.copies[h.index] = 2;
    ++counters_.duplicates_suppressed;
    return Verdict::kMore;
  }
  // Mid-message, a frame must fit the geometry the accepted chunks
  // authenticated and name a slot still empty: a failed open writes
  // into its claimed slot, which must never hold verified plaintext.
  if (in.pipe != nullptr &&
      (h.msg_id != in.msg_id || h.count != in.count ||
       h.offset != std::uint64_t{h.index} * in.chunk ||
       h.chunk_len > in.chunk || ch.copies[h.index] != 0)) {
    return Verdict::kMalformed;
  }
  // Chunk k authenticates channel sequence base + k — the sender drew
  // count consecutive numbers; the channel advances only on delivery.
  const std::uint64_t base =
      in.pipe != nullptr ? in.base
                         : (config_.bind_context ? recv_seq_[{src, tag}] : 0);
  if (!try_open_into(BytesView(frame).subspan(kPipeHeaderBytes),
                     user.subspan(h.offset, h.chunk_len),
                     chunk_aad(frame.data(), src, rank(), tag, base + h.index),
                     src, /*charged=*/false)) {
    return Verdict::kForged;
  }
  // Authenticated: from here on every header field is trusted.
  if (in.pipe == nullptr) {
    if (h.msg_id < ch.next_id) throw replayed();  // an old message
    in = {.pipe = &ch,
          .msg_id = h.msg_id,
          .count = h.count,
          .chunk = h.index == 0 ? h.chunk_len : h.offset / h.index,
          .base = base};
    ch.tags.assign(h.count, {});
    ch.copies.assign(h.count, 0);
  }
  std::copy(gcm_tag.begin(), gcm_tag.end(), ch.tags[h.index].begin());
  ch.copies[h.index] = 1;
  ++in.have;
  in.bytes += h.chunk_len;
  if (h.index == in.count - 1) in.length = h.offset + h.chunk_len;
  ++counters_.messages_opened;
  ++counters_.chunks_opened;
  counters_.bytes_opened += h.chunk_len;
  // The open runs on a helper core from the moment the frame is in
  // memory; the main timeline keeps receiving chunk k+1 while this one
  // decrypts.
  in.crypto_done =
      std::max(in.crypto_done, helper_crypto(h.chunk_len, /*encrypt=*/false));
  if (in.have < in.count) return Verdict::kMore;
  // Chunks that do not tile the message are unreachable for an honest
  // sender (headers are authenticated): a cheap defence in depth.
  return in.bytes == in.length ? Verdict::kDone : Verdict::kMalformed;
}

bool SecureComm::accept(MutBytes frame, int src, int tag, MutBytes user,
                        Inbound& in) {
  for (int round = 0;; ++round) {
    const Verdict v = looks_like_chunk(frame)
                          ? open_chunk(frame, src, tag, user, in)
                          : open_whole(frame, src, tag, user, in);
    if (v == Verdict::kDone || v == Verdict::kMore) return v == Verdict::kDone;
    // One end-to-end recovery per frame: if the ARQ stash can prove the
    // damage happened on the wire, the clean copy replaces `frame` and
    // the frame is classified afresh (the damage may have hit the chunk
    // magic or header). Any other failure is a genuine integrity error.
    if (round == 0 && comm_->recover_damaged_recv(frame, src, tag)) {
      ++counters_.nacks_sent;
      ++counters_.retransmits_recovered;
      continue;
    }
    if (in.pipe != nullptr) secure_zero(user);  // never leak a partial message
    const bool malformed = v == Verdict::kMalformed;
    ++(malformed ? counters_.length_failures : counters_.auth_failures);
    throw IntegrityError(
        std::string(malformed
                        ? "malformed frame: chunk header inconsistent with "
                          "its length or the message in progress, or an "
                          "unchunked frame inside a pipelined message"
                        : "authentication tag mismatch: message was tampered "
                          "with, corrupted, or spliced from another channel") +
        " (rank " + std::to_string(rank()) + ")");
  }
}

mpi::Status SecureComm::receive(Bytes& wire, mpi::Status ws, MutBytes user,
                                int src, int tag) {
  Inbound in;
  while (!accept(MutBytes(wire).first(ws.bytes), ws.source, ws.tag, user,
                 in)) {
    // A duplicate was absorbed, or a pipelined message has chunks to
    // come — those arrive on the channel of its first chunk.
    frame_pool().give(wire);
    ws = comm_->recv_frame(wire, recv_wire_capacity(user.size()),
                           in.pipe != nullptr ? ws.source : src,
                           in.pipe != nullptr ? ws.tag : tag);
  }
  if (in.pipe == nullptr) return {ws.source, ws.tag, in.length};
  in.pipe->next_id = in.msg_id + 1;
  if (config_.bind_context) recv_seq_[{ws.source, ws.tag}] = in.base + in.count;
  // Stall only for crypto the wire did not hide: the receive is
  // complete when the last helper core finishes its last chunk.
  const double stall = in.crypto_done - comm_->now();
  if (stall > 0.0) {
    counters_.pipeline_stall_seconds += stall;
    bill_on_rank(trace::Category::kPipelineStall, stall, ws.source, in.bytes);
  }
  return {ws.source, ws.tag, in.length};
}

// ------------------------------------------------------- point-to-point

Bytes SecureComm::seal_p2p(BytesView data, int dst, int tag) {
  Bytes wire = frame_pool().take(wire_size(data.size()));
  seal_into(data, wire,
            p2p_aad(rank(), dst, tag,
                    config_.bind_context ? next_send_seq(dst, tag) : 0),
            dst);
  return wire;
}

void SecureComm::send(BytesView data, int dst, int tag) {
  // Reject bad arguments before spending crypto time on the payload.
  mpi::validate_user_tag(tag);
  mpi::validate_peer(dst, size());
  if (pipeline_engages(data.size())) {
    send_pipelined(data, dst, tag);
    return;
  }
  comm_->send_frame(seal_p2p(data, dst, tag), dst, tag);
}

mpi::Status SecureComm::recv(MutBytes buf, int src, int tag) {
  mpi::validate_recv_tag(tag);
  mpi::validate_recv_peer(src, size());
  // Capacity for any frame: an unchunked message of up to buf.size()
  // payload bytes, or one pipelined chunk (header + AEAD frame of a
  // chunk no larger than the message).
  Frame wire;
  const mpi::Status ws = comm_->recv_frame(
      wire.bytes, recv_wire_capacity(buf.size()), src, tag);
  return receive(wire.bytes, ws, buf, src, tag);
}

mpi::Request SecureComm::isend(BytesView data, int dst, int tag) {
  mpi::validate_user_tag(tag);
  mpi::validate_peer(dst, size());
  auto state = std::make_unique<SecureSendState>();
  if (pipeline_engages(data.size())) {
    // Every chunk is dispatched right here: send_chunk never blocks
    // (eager shape, wire gated by wire_not_before), so the request is
    // born complete and wait() is a lookup.
    send_pipelined(data, dst, tag);
    state->status = mpi::Status{dst, tag, data.size()};
  } else {
    state->wire.bytes = seal_p2p(data, dst, tag);
    state->inner = comm_->isend(state->wire.bytes, dst, tag);
  }
  return mpi::Request(std::move(state));
}

mpi::Request SecureComm::irecv(MutBytes buf, int src, int tag) {
  mpi::validate_recv_tag(tag);
  mpi::validate_recv_peer(src, size());
  auto state = std::make_unique<SecureRecvState>();
  state->wire.bytes = frame_pool().take(recv_wire_capacity(buf.size()));
  state->user = buf;
  state->src = src;
  state->tag = tag;
  state->inner = comm_->irecv(state->wire.bytes, src, tag);
  return mpi::Request(std::move(state));
}

mpi::Status SecureComm::wait(mpi::Request& request) {
  if (!request.valid()) {
    mpi::throw_invalid_wait(comm_->world().verifier(), rank(), request);
  }
  auto owned = request.take();
  if (auto* send_state = dynamic_cast<SecureSendState*>(owned.get())) {
    return send_state->inner.valid() ? comm_->wait(send_state->inner)
                                     : send_state->status;
  }
  if (auto* recv_state = dynamic_cast<SecureRecvState*>(owned.get())) {
    return receive(recv_state->wire.bytes, comm_->wait(recv_state->inner),
                   recv_state->user, recv_state->src, recv_state->tag);
  }
  throw mpi::MpiError("request does not belong to this secure communicator");
}

std::vector<mpi::Status> SecureComm::waitall(
    std::span<mpi::Request> requests) {
  // Every inner request is drained even when a decryption fails:
  // abandoning the rest would leave rendezvous senders parked on
  // their handshakes and deadlock the simulation. The first failure
  // is rethrown once all completions have run.
  std::vector<mpi::Status> statuses(requests.size());
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      statuses[i] = wait(requests[i]);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return statuses;
}

mpi::Status SecureComm::sendrecv(BytesView senddata, int dst, int sendtag,
                                 MutBytes recvbuf, int src, int recvtag) {
  mpi::Request rr = irecv(recvbuf, src, recvtag);
  mpi::Request rs = isend(senddata, dst, sendtag);
  const mpi::Status status = wait(rr);
  wait(rs);
  return status;
}

// ---------------------------------------------------------- collectives

void SecureComm::barrier() { comm_->barrier(); }

void SecureComm::bcast(MutBytes data, int root) {
  mpi::validate_peer(root, size());
  const Bytes aad = coll_aad(root, -1, coll_seq_++);
  Frame wire(wire_size(data.size()), /*zeroed=*/rank() != root);
  if (rank() == root) seal_into(data, wire.bytes, aad);
  comm_->bcast(wire.bytes, root);
  if (rank() != root) open_into(wire.bytes, data, aad);
}

void SecureComm::allgather(BytesView sendpart, MutBytes recvall) {
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = sendpart.size();
  if (recvall.size() != block * n) {
    throw mpi::MpiError("allgather: recv buffer must be size()*block bytes");
  }
  const std::size_t wire_block = wire_size(block);
  const std::uint64_t seq = coll_seq_++;

  Frame wire_send(wire_block);
  seal_into(sendpart, wire_send.bytes, coll_aad(rank(), -1, seq));
  Frame wire_all(wire_block * n, /*zeroed=*/true);
  comm_->allgather(wire_send.bytes, wire_all.bytes);
  for (std::size_t i = 0; i < n; ++i) {
    open_into(BytesView(wire_all.bytes).subspan(i * wire_block, wire_block),
              recvall.subspan(i * block, block),
              coll_aad(static_cast<int>(i), -1, seq));
  }
}

void SecureComm::alltoall(BytesView sendbuf, MutBytes recvbuf,
                          std::size_t block) {
  // Algorithm 1 of the paper, verbatim structure: encrypt every block
  // with a fresh nonce, exchange (l+28)-byte blocks with the plain
  // alltoall, then decrypt every received block.
  const auto n = static_cast<std::size_t>(size());
  const auto total = block * n;
  if (sendbuf.size() != total || recvbuf.size() != total) {
    throw mpi::MpiError("alltoall: buffers must be size()*block bytes");
  }
  const std::size_t wire_block = wire_size(block);
  const std::uint64_t seq = coll_seq_++;

  Frame enc_sendbuf(wire_block * n);
  for (std::size_t i = 0; i < n; ++i) {
    seal_into(sendbuf.subspan(i * block, block),
              MutBytes(enc_sendbuf.bytes).subspan(i * wire_block, wire_block),
              coll_aad(rank(), static_cast<int>(i), seq));
  }
  Frame enc_recvbuf(wire_block * n, /*zeroed=*/true);
  comm_->alltoall(enc_sendbuf.bytes, enc_recvbuf.bytes, wire_block);
  for (std::size_t i = 0; i < n; ++i) {
    open_into(BytesView(enc_recvbuf.bytes).subspan(i * wire_block, wire_block),
              recvbuf.subspan(i * block, block),
              coll_aad(static_cast<int>(i), rank(), seq));
  }
}

void SecureComm::alltoallv(BytesView sendbuf,
                           std::span<const std::size_t> sendcounts,
                           std::span<const std::size_t> senddispls,
                           MutBytes recvbuf,
                           std::span<const std::size_t> recvcounts,
                           std::span<const std::size_t> recvdispls) {
  const auto n = static_cast<std::size_t>(size());
  if (sendcounts.size() != n || senddispls.size() != n ||
      recvcounts.size() != n || recvdispls.size() != n) {
    throw mpi::MpiError(
        "alltoallv: count/displacement arrays must have size() entries");
  }

  std::vector<std::size_t> wire_sendcounts(n);
  std::vector<std::size_t> wire_senddispls(n);
  std::vector<std::size_t> wire_recvcounts(n);
  std::vector<std::size_t> wire_recvdispls(n);
  std::size_t send_total = 0;
  std::size_t recv_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    wire_sendcounts[i] = wire_size(sendcounts[i]);
    wire_senddispls[i] = send_total;
    send_total += wire_sendcounts[i];
    wire_recvcounts[i] = wire_size(recvcounts[i]);
    wire_recvdispls[i] = recv_total;
    recv_total += wire_recvcounts[i];
  }

  const std::uint64_t seq = coll_seq_++;
  Frame enc_sendbuf(send_total);
  for (std::size_t i = 0; i < n; ++i) {
    seal_into(sendbuf.subspan(senddispls[i], sendcounts[i]),
              MutBytes(enc_sendbuf.bytes)
                  .subspan(wire_senddispls[i], wire_sendcounts[i]),
              coll_aad(rank(), static_cast<int>(i), seq));
  }
  Frame enc_recvbuf(recv_total, /*zeroed=*/true);
  comm_->alltoallv(enc_sendbuf.bytes, wire_sendcounts, wire_senddispls,
                   enc_recvbuf.bytes, wire_recvcounts, wire_recvdispls);
  for (std::size_t i = 0; i < n; ++i) {
    open_into(BytesView(enc_recvbuf.bytes)
                  .subspan(wire_recvdispls[i], wire_recvcounts[i]),
              recvbuf.subspan(recvdispls[i], recvcounts[i]),
              coll_aad(static_cast<int>(i), rank(), seq));
  }
}

void SecureComm::gather(BytesView sendpart, MutBytes recvall, int root) {
  mpi::validate_peer(root, size());
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = sendpart.size();
  if (rank() == root && recvall.size() != block * n) {
    throw mpi::MpiError("gather: root recv buffer must be size()*block");
  }
  const std::size_t wire_block = wire_size(block);
  const std::uint64_t seq = coll_seq_++;

  Frame wire_send(wire_block);
  seal_into(sendpart, wire_send.bytes, coll_aad(rank(), root, seq));
  Frame wire_all(rank() == root ? wire_block * n : 0, /*zeroed=*/true);
  comm_->gather(wire_send.bytes, wire_all.bytes, root);
  if (rank() != root) return;
  for (std::size_t i = 0; i < n; ++i) {
    open_into(BytesView(wire_all.bytes).subspan(i * wire_block, wire_block),
              recvall.subspan(i * block, block),
              coll_aad(static_cast<int>(i), root, seq));
  }
}

void SecureComm::scatter(BytesView sendall, MutBytes recvpart, int root) {
  mpi::validate_peer(root, size());
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = recvpart.size();
  const std::size_t wire_block = wire_size(block);

  const std::uint64_t seq = coll_seq_++;
  Frame wire_all;
  if (rank() == root) {
    if (sendall.size() != block * n) {
      throw mpi::MpiError("scatter: root send buffer must be size()*block");
    }
    wire_all.bytes = frame_pool().take(wire_block * n);
    for (std::size_t i = 0; i < n; ++i) {
      seal_into(sendall.subspan(i * block, block),
                MutBytes(wire_all.bytes).subspan(i * wire_block, wire_block),
                coll_aad(root, static_cast<int>(i), seq));
    }
  }
  Frame wire_recv(wire_block, /*zeroed=*/true);
  comm_->scatter(wire_all.bytes, wire_recv.bytes, root);
  open_into(wire_recv.bytes, recvpart, coll_aad(root, rank(), seq));
}

double run_secure_world(const mpi::WorldConfig& world_config,
                        const SecureConfig& secure_config,
                        const std::function<void(SecureComm&)>& body) {
  return mpi::run_world(world_config, [&](mpi::Comm& comm) {
    SecureComm secure(comm, secure_config);
    body(secure);
  });
}

}  // namespace emc::secure
