#include "emc/secure_mpi/key_exchange.hpp"

#include "emc/common/rng.hpp"
#include "emc/crypto/provider.hpp"
#include "emc/crypto/sha256.hpp"
#include "emc/keys/derive.hpp"

namespace emc::secure {

namespace {

constexpr int kWrapTag = 901;

}  // namespace

Bytes establish_group_key(mpi::Comm& comm, const crypto::DhGroup& group,
                          const KeyExchangeConfig& config) {
  const int rank = comm.rank();
  const auto n = static_cast<std::size_t>(comm.size());
  const std::size_t width = group.byte_length();
  const crypto::Provider& provider = crypto::provider(config.wrap_provider);

  // 1. Keypair + allgather of public keys (charged compute).
  crypto::DhKeyPair pair;
  comm.charge([&] {
    pair = crypto::dh_generate(
        group, config.seed * 1000003 + static_cast<std::uint64_t>(rank));
  });
  const Bytes my_public = pair.public_key.to_bytes(width);
  Bytes all_publics(width * n);
  comm.allgather(my_public, all_publics);

  // 2. Rank 0 wraps a fresh session key for every peer. The wrap and
  // the confirmation tag both come from keys::derive — the one
  // audited derivation path shared with the per-link handshake and
  // the recovery rekey.
  if (rank == 0) {
    Bytes session_key(config.key_bytes);
    Xoshiro256 session_rng(config.seed ^ 0xA11CE);
    session_rng.fill(session_key);

    for (std::size_t peer = 1; peer < n; ++peer) {
      Bytes wire;
      comm.charge([&] {
        const crypto::BigUint peer_public = crypto::BigUint::from_bytes(
            BytesView(all_publics).subspan(peer * width, width));
        Bytes secret =
            crypto::dh_shared_secret(group, pair.private_key, peer_public);
        wire = keys::wrap_key(provider, secret, session_key);
        secure_zero(secret);
      });
      comm.send(wire, static_cast<int>(peer), kWrapTag);
    }
    pair.private_key.wipe();

    // 3. Key confirmation.
    Bytes confirmation = keys::confirm_tag(session_key, {});
    comm.bcast(confirmation, 0);
    return session_key;
  }

  Bytes wire(keys::wrapped_key_bytes(config.key_bytes));
  comm.recv(wire, 0, kWrapTag);
  Bytes session_key;
  comm.charge([&] {
    const crypto::BigUint root_public = crypto::BigUint::from_bytes(
        BytesView(all_publics).first(width));
    Bytes secret =
        crypto::dh_shared_secret(group, pair.private_key, root_public);
    std::optional<Bytes> unwrapped =
        keys::unwrap_key(provider, secret, wire, config.key_bytes);
    secure_zero(secret);
    if (!unwrapped) {
      throw KeyExchangeError(
          "session-key unwrap failed (tampered handshake?)");
    }
    session_key = std::move(*unwrapped);
  });
  pair.private_key.wipe();

  Bytes confirmation(crypto::kSha256Digest);
  comm.bcast(confirmation, 0);
  const Bytes expected = keys::confirm_tag(session_key, {});
  if (!ct_equal(confirmation, expected)) {
    throw KeyExchangeError("key confirmation mismatch");
  }
  return session_key;
}

}  // namespace emc::secure
