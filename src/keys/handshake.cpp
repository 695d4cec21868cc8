#include "emc/keys/handshake.hpp"

#include <algorithm>
#include <cmath>

#include "emc/keys/derive.hpp"
#include "emc/mpi/world.hpp"
#include "emc/reliable/reliable.hpp"
#include "emc/sim/engine.hpp"
#include "emc/trace/trace.hpp"
#include "emc/verify/verifier.hpp"

namespace emc::keys {

namespace {

constexpr std::uint32_t kMagic = 0x454b4831;  // "EKH1"
constexpr std::size_t kHeaderBytes = 12;      // magic(4) || instance(8)
constexpr std::size_t kTagBytes = 32;         // HMAC-SHA256

void put_header(MutBytes frame, std::uint64_t instance) noexcept {
  store_be32(frame.data(), kMagic);
  store_be64(frame.data() + 4, instance);
}

bool header_ok(BytesView frame, std::uint64_t instance) noexcept {
  return frame.size() >= kHeaderBytes && load_be32(frame.data()) == kMagic &&
         load_be64(frame.data() + 4) == instance;
}

/// Bills analytic asymmetric-crypto cost on the key_mgmt trace lane.
void bill(mpi::Comm& comm, double cost, int peer) {
  if (cost <= 0.0) return;
  const double begin = comm.now();
  comm.process().advance(cost);
  if (auto* tr = comm.world().trace()) {
    tr->record(comm.to_world(comm.rank()), trace::Category::kKeyMgmt, begin,
               comm.now(), comm.to_world(peer));
  }
}

/// Seeded exponential backoff with deterministic jitter: a pure
/// function of (seed, rank, peer, instance, attempt), so same-seed
/// replays sleep bit-identical intervals.
void backoff_wait(mpi::Comm& comm, const HandshakeConfig& cfg, int peer,
                  int attempt) {
  const int shift = std::min(attempt, 20);
  double d = std::min(cfg.backoff_base *
                          static_cast<double>(std::uint64_t{1} << shift),
                      cfg.backoff_max);
  const std::uint64_t h = verify::splitmix64(
      cfg.seed ^ (static_cast<std::uint64_t>(comm.rank()) << 44) ^
      (static_cast<std::uint64_t>(peer) << 24) ^
      (cfg.instance * std::uint64_t{0x9E3779B97F4A7C15}) ^
      static_cast<std::uint64_t>(attempt));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  d *= 1.0 + cfg.backoff_jitter * (2.0 * u - 1.0);
  sim::Waitable timer;
  (void)comm.process().wait_for(timer, std::max(d, 0.0));
}

/// Transcript binding both publics, both ranks, and the instance.
Bytes transcript(BytesView init_pub, BytesView resp_pub, int init_rank,
                 int resp_rank, std::uint64_t instance) {
  Bytes t;
  t.reserve(init_pub.size() + resp_pub.size() + 16);
  t.insert(t.end(), init_pub.begin(), init_pub.end());
  t.insert(t.end(), resp_pub.begin(), resp_pub.end());
  t.resize(t.size() + 16);
  std::uint8_t* p = t.data() + t.size() - 16;
  store_be32(p, static_cast<std::uint32_t>(init_rank));
  store_be32(p + 4, static_cast<std::uint32_t>(resp_rank));
  store_be64(p + 8, instance);
  return t;
}

Bytes direction_tag(BytesView confirm_key, const char* dir, BytesView t) {
  Bytes msg = bytes_of(dir);
  msg.insert(msg.end(), t.begin(), t.end());
  return confirm_tag(confirm_key, msg);
}

/// A receive attempt that classifies loss: returns false on timeout /
/// unreachable-peer (retryable), true with the payload in @p frame on
/// delivery. Anything else propagates.
bool timed_recv(mpi::Comm& comm, MutBytes frame, int peer, int tag,
                std::size_t* got) {
  try {
    const mpi::Status st = comm.recv(frame, peer, tag);
    *got = st.bytes;
    return true;
  } catch (const reliable::PeerUnreachable&) {
    return false;
  } catch (const mpi::MpiError& e) {
    if (std::string_view(e.what()).find("timed out") !=
        std::string_view::npos) {
      return false;
    }
    throw;
  }
}

/// How many receive timeouts in a row a lingering endpoint waits out
/// before it leaves: enough to cover the peer's longest backoff plus
/// two more. Both ends count whole waits as an integer, so they agree
/// on the bound exactly; a floating-point sum of waited time can fall
/// one ulp short and linger one extra timeout, long enough for the
/// peer's first post-handshake receive to time out. The small slack
/// keeps a backoff_max that is a whole multiple of recv_timeout from
/// being rounded up by one.
int linger_waits(mpi::Comm& comm, const HandshakeConfig& cfg) {
  const double timeouts =
      cfg.backoff_max / comm.world().config().recv_timeout;
  return static_cast<int>(std::ceil(timeouts - 1e-9)) + 2;
}

struct Frames {
  std::size_t width;       ///< DH public width
  std::size_t hello;       ///< HELLO frame size
  std::size_t accept;      ///< ACCEPT frame size
  std::size_t confirm;     ///< CONFIRM frame size
};

Frames frame_sizes(const crypto::DhGroup& group) {
  Frames f{};
  f.width = group.byte_length();
  f.hello = kHeaderBytes + f.width;
  f.accept = kHeaderBytes + f.width + kTagBytes;
  f.confirm = kHeaderBytes + kTagBytes;
  return f;
}

HandshakeResult run_initiator(mpi::Comm& comm, int peer,
                              const crypto::DhGroup& group,
                              const HandshakeConfig& cfg) {
  const Frames fs = frame_sizes(group);
  const int me = comm.rank();
  const double start = comm.now();
  const int hello_tag = cfg.tag_base;
  const int accept_tag = cfg.tag_base + 1;
  const int confirm_tag_id = cfg.tag_base + 2;

  // Deterministic keypair per (seed, rank, instance): retransmits
  // re-derive the identical secret, making every frame idempotent.
  crypto::DhKeyPair pair = crypto::dh_generate(
      group, mix_epoch_seed(cfg.seed * 1000003 +
                                static_cast<std::uint64_t>(me),
                            cfg.instance));
  bill(comm, cfg.keygen_cost, peer);
  const Bytes my_pub = pair.public_key.to_bytes(fs.width);

  Bytes hello(fs.hello);
  put_header(hello, cfg.instance);
  std::copy(my_pub.begin(), my_pub.end(), hello.begin() + kHeaderBytes);

  Bytes wire(fs.accept);
  HandshakeResult out;
  out.initiator = true;

  for (int attempt = 0; attempt < cfg.max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    if (attempt > 0) backoff_wait(comm, cfg, peer, attempt - 1);
    try {
      comm.send(hello, peer, hello_tag);
    } catch (const reliable::PeerUnreachable&) {
      continue;
    }
    std::size_t got = 0;
    if (!timed_recv(comm, wire, peer, accept_tag, &got)) continue;
    if (got != fs.accept || !header_ok(BytesView(wire.data(), got),
                                       cfg.instance)) {
      continue;  // stale instance or malformed — treat as loss
    }
    const BytesView resp_pub(wire.data() + kHeaderBytes, fs.width);
    const Bytes t = transcript(my_pub, resp_pub, me, peer, cfg.instance);

    Bytes dh_secret = crypto::dh_shared_secret(
        group, pair.private_key,
        crypto::BigUint::from_bytes(resp_pub));
    bill(comm, cfg.shared_secret_cost, peer);
    Bytes master = link_master(dh_secret, t);
    secure_zero(dh_secret);
    const BytesView chain_half(master.data(), kChainBytes);
    const BytesView confirm_half(master.data() + kChainBytes, 32);

    const Bytes expected = direction_tag(confirm_half, "resp", t);
    if (!ct_equal(expected,
                  BytesView(wire.data() + kHeaderBytes + fs.width,
                            kTagBytes))) {
      secure_zero(master);
      continue;  // tampered ACCEPT — counts against the budget
    }

    Bytes confirm(fs.confirm);
    put_header(confirm, cfg.instance);
    const Bytes itag = direction_tag(confirm_half, "init", t);
    std::copy(itag.begin(), itag.end(), confirm.begin() + kHeaderBytes);
    comm.send(confirm, peer, confirm_tag_id);

    // Linger: the responder retransmits ACCEPT until a CONFIRM lands,
    // backing off up to backoff_max between attempts. Re-answer every
    // duplicate until the line has stayed quiet for linger_waits()
    // timeouts in a row, which covers its longest retry interval.
    const int quiet_needed = linger_waits(comm, cfg);
    for (int quiet = 0; quiet < quiet_needed;) {
      std::size_t dup = 0;
      if (!timed_recv(comm, wire, peer, accept_tag, &dup)) {
        ++quiet;
        continue;
      }
      quiet = 0;
      if (dup == fs.accept &&
          header_ok(BytesView(wire.data(), dup), cfg.instance)) {
        comm.send(confirm, peer, confirm_tag_id);
      }
    }

    pair.private_key.wipe();
    out.chain.assign(chain_half.begin(), chain_half.end());
    secure_zero(master);
    out.elapsed = comm.now() - start;
    return out;
  }
  pair.private_key.wipe();
  throw HandshakeFailed(me, peer, cfg.max_attempts);
}

HandshakeResult run_responder(mpi::Comm& comm, int peer,
                              const crypto::DhGroup& group,
                              const HandshakeConfig& cfg) {
  const Frames fs = frame_sizes(group);
  const int me = comm.rank();
  const double start = comm.now();
  const int hello_tag = cfg.tag_base;
  const int accept_tag = cfg.tag_base + 1;
  const int confirm_tag_id = cfg.tag_base + 2;

  crypto::DhKeyPair pair = crypto::dh_generate(
      group, mix_epoch_seed(cfg.seed * 1000003 +
                                static_cast<std::uint64_t>(me),
                            cfg.instance));
  bill(comm, cfg.keygen_cost, peer);
  const Bytes my_pub = pair.public_key.to_bytes(fs.width);

  HandshakeResult out;
  Bytes wire(fs.accept);  // large enough for every inbound frame

  // Phase 1: a valid HELLO. Timeouts count against the budget; stale
  // or malformed frames are discarded without consuming it (each
  // discard consumed a queued message, so the loop cannot spin).
  Bytes init_pub;
  int attempt = 0;
  while (init_pub.empty()) {
    if (attempt >= cfg.max_attempts) {
      pair.private_key.wipe();
      throw HandshakeFailed(me, peer, cfg.max_attempts);
    }
    std::size_t got = 0;
    if (!timed_recv(comm, wire, peer, hello_tag, &got)) {
      ++attempt;
      out.attempts = attempt;
      continue;
    }
    if (got == fs.hello && header_ok(BytesView(wire.data(), got),
                                     cfg.instance)) {
      init_pub.assign(wire.begin() + kHeaderBytes,
                      wire.begin() + static_cast<std::ptrdiff_t>(fs.hello));
    }
  }
  out.attempts = std::max(out.attempts, 1);

  const Bytes t = transcript(init_pub, my_pub, peer, me, cfg.instance);
  Bytes dh_secret = crypto::dh_shared_secret(
      group, pair.private_key, crypto::BigUint::from_bytes(init_pub));
  bill(comm, cfg.shared_secret_cost, peer);
  Bytes master = link_master(dh_secret, t);
  secure_zero(dh_secret);
  pair.private_key.wipe();
  const BytesView chain_half(master.data(), kChainBytes);
  const BytesView confirm_half(master.data() + kChainBytes, 32);

  Bytes accept(fs.accept);
  put_header(accept, cfg.instance);
  std::copy(my_pub.begin(), my_pub.end(), accept.begin() + kHeaderBytes);
  const Bytes rtag = direction_tag(confirm_half, "resp", t);
  std::copy(rtag.begin(), rtag.end(),
            accept.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes +
                                                         fs.width));
  const Bytes expected = direction_tag(confirm_half, "init", t);

  // Phase 2: ACCEPT until a valid CONFIRM lands.
  for (; attempt < cfg.max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    if (attempt > 0) backoff_wait(comm, cfg, peer, attempt - 1);
    try {
      comm.send(accept, peer, accept_tag);
    } catch (const reliable::PeerUnreachable&) {
      continue;
    }
    std::size_t got = 0;
    if (!timed_recv(comm, wire, peer, confirm_tag_id, &got)) continue;
    if (got != fs.confirm ||
        !header_ok(BytesView(wire.data(), got), cfg.instance)) {
      continue;
    }
    if (!ct_equal(expected,
                  BytesView(wire.data() + kHeaderBytes, kTagBytes))) {
      continue;  // forged CONFIRM — keep the budget ticking
    }

    // Drain: the initiator lingers re-answering duplicate ACCEPTs
    // until its line has been quiet for linger_waits() timeouts in a
    // row; count the same whole waits here so both endpoints return
    // within one link latency of each other. Composition guarantee:
    // the first post-handshake receive can never time out merely
    // because the peer is still lingering. Stray duplicate CONFIRMs
    // are absorbed.
    const int quiet_needed = linger_waits(comm, cfg);
    for (int quiet = 0; quiet < quiet_needed;) {
      std::size_t dup = 0;
      quiet = timed_recv(comm, wire, peer, confirm_tag_id, &dup) ? 0
                                                                 : quiet + 1;
    }

    out.chain.assign(chain_half.begin(), chain_half.end());
    secure_zero(master);
    out.elapsed = comm.now() - start;
    return out;
  }
  secure_zero(master);
  throw HandshakeFailed(me, peer, cfg.max_attempts);
}

}  // namespace

HandshakeResult link_handshake(mpi::Comm& comm, int peer,
                               const crypto::DhGroup& group,
                               const HandshakeConfig& config) {
  if (peer == comm.rank() || peer < 0 || peer >= comm.size()) {
    throw std::invalid_argument("link_handshake: invalid peer rank");
  }
  if (comm.world().config().recv_timeout <= 0.0) {
    throw std::invalid_argument(
        "link_handshake requires a positive WorldConfig::recv_timeout — "
        "loss recovery is timeout-driven");
  }
  if (config.max_attempts < 1) {
    throw std::invalid_argument("link_handshake: max_attempts must be >= 1");
  }
  return comm.rank() < peer ? run_initiator(comm, peer, group, config)
                            : run_responder(comm, peer, group, config);
}

}  // namespace emc::keys
