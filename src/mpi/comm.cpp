#include "emc/mpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <utility>

#include "emc/common/timer.hpp"
#include "emc/mpi/validate.hpp"

namespace emc::mpi {

namespace {
/// Wire size of a rendezvous RTS or CTS control message.
constexpr std::size_t kRndvCtrlBytes = 64;
}  // namespace

namespace detail {
namespace {

bool matches(const Envelope& env, const PendingRecv& pr) {
  return env.comm_epoch == pr.want_epoch &&
         (pr.want_src == kAnySource || pr.want_src == env.src) &&
         (pr.want_tag == kAnyTag || pr.want_tag == env.tag);
}

/// Shared teardown reporting of both request kinds: a request
/// destroyed without ever being waited on is a leak — unless the
/// stack is unwinding (simulation teardown or a caller exception) or
/// the request's communicator epoch was revoked (recovery abandons
/// in-flight requests by design), in which case the verifier is only
/// told to drop its tracking entry.
void finish_tracked_request(verify::Verifier* vrf, std::uint64_t vid,
                            bool waited, ft::State* ft, std::uint64_t epoch) {
  if (vrf == nullptr || vid == 0) return;
  const bool benign = waited || std::uncaught_exceptions() > 0 ||
                      (ft != nullptr && ft->revoked(epoch));
  vrf->on_request_finish(vid, benign ? verify::ReqFinish::kDropped
                                     : verify::ReqFinish::kLeaked);
}

}  // namespace

/// Request state of a non-blocking send.
struct SendState final : RequestState {
  RndvHandshake handshake;  ///< used on the rendezvous path only
  bool rendezvous = false;
  int dst = 0;
  int tag = 0;
  std::uint64_t bytes = 0;  ///< payload size, for the handshake's spans
  // Verification bookkeeping (vrf null when verification is off).
  verify::Verifier* vrf = nullptr;
  std::uint64_t vid = 0;
  bool waited = false;
  ft::State* ft = nullptr;
  std::uint64_t epoch = 0;

  ~SendState() override { finish_tracked_request(vrf, vid, waited, ft, epoch); }
};

/// Request state of a non-blocking receive. Deregisters itself from
/// the posted queue if the request is abandoned before matching.
struct RecvState final : RequestState {
  PendingRecv pr;
  Mailbox* mailbox = nullptr;
  verify::Verifier* vrf = nullptr;
  std::uint64_t vid = 0;
  bool waited = false;
  ft::State* ft = nullptr;
  std::uint64_t epoch = 0;

  ~RecvState() override {
    if (mailbox != nullptr && !pr.matched) {
      std::erase(mailbox->posted, &pr);
    }
    finish_tracked_request(vrf, vid, waited, ft, epoch);
  }
};

}  // namespace detail

using detail::Envelope;
using detail::PendingRecv;
using detail::RecvState;
using detail::RndvHandshake;
using detail::SendState;

Comm::Comm(World& world, sim::Process& proc)
    : Comm(world, proc, {}, 0, false) {}

Comm::Comm(World& world, sim::Process& proc, std::vector<int> group,
           std::uint64_t epoch, bool recovery)
    : world_(&world),
      proc_(&proc),
      vrf_(world.verifier()),
      arq_(world.reliability()),
      trc_(world.trace()),
      ft_(world.ft_state()),
      group_(std::move(group)),
      local_rank_(proc.index()),
      epoch_(epoch),
      recovery_(recovery) {
  if (group_.empty()) return;
  int local = -1;
  for (std::size_t i = 0; i < group_.size(); ++i) {
    const int w = group_[i];
    if (w < 0 || w >= world_->size()) {
      throw MpiError("Comm group: world rank " + std::to_string(w) +
                     " out of range");
    }
    if (i > 0 && group_[i - 1] >= w) {
      throw MpiError("Comm group must be strictly ascending world ranks");
    }
    if (w == proc_->index()) local = static_cast<int>(i);
  }
  if (local < 0) {
    throw MpiError("Comm group does not contain the calling rank " +
                   std::to_string(proc_->index()));
  }
  local_rank_ = local;
}

int Comm::to_local(int world_rank) const {
  if (group_.empty()) {
    return world_rank >= 0 && world_rank < world_->size() ? world_rank : -1;
  }
  const auto it = std::lower_bound(group_.begin(), group_.end(), world_rank);
  return it != group_.end() && *it == world_rank
             ? static_cast<int>(it - group_.begin())
             : -1;
}

void Comm::ft_guard(bool post) {
  if (ft_ == nullptr || recovery_ || !ft_->revoked(epoch_)) return;
  if (post) {
    const std::uint64_t n = ft_->note_post_after_revoke(epoch_, wrank());
    if (n >= 2 && vrf_ != nullptr) {
      vrf_->on_post_after_revoke(wrank(), epoch_, n);
    }
  }
  ft_->throw_revoked(epoch_);
}

template <typename F>
decltype(auto) Comm::guarded(F&& f) {
  if (ft_ == nullptr || recovery_) return f();
  try {
    return f();
  } catch (const reliable::PeerUnreachable& e) {
    // First structured observation of a dead peer revokes the epoch;
    // every later or pending operation on it fails fast with the
    // RevokedError below instead of rediscovering the failure.
    const int dead = e.src == wrank() ? e.dst : e.src;
    ft_->revoke(epoch_, dead, proc_->now());
    ft_->throw_revoked(epoch_);
  }
}

void Comm::sleep_until(double t) { proc_->advance(t - proc_->now()); }

double Comm::charge(const std::function<void()>& work,
                    trace::Category category) {
  // EMC_LINT_ALLOW(det-clock): measurement-mode billing — host time is
  // read once around the charged work and converted to virtual time;
  // deterministic runs use cpu_scale = 0 or the analytic cost model.
  WallTimer timer;
  const double begin = proc_->now();
  work();
  const double elapsed = timer.seconds();
  proc_->advance(elapsed * world_->config().cpu_scale);
  if (trc_ != nullptr) trc_->record(wrank(), category, begin, proc_->now());
  return elapsed;
}

void Comm::trace_span(trace::Category cat, double begin, int peer,
                      std::uint64_t bytes) {
  if (trc_ != nullptr && proc_->now() > begin) {
    trc_->record(wrank(), cat, begin, proc_->now(), peer, bytes);
  }
}

void Comm::sleep_traced(double arrival, bool recovered, double queue_delay,
                        int peer, std::uint64_t bytes, double relay_delay) {
  const double begin = proc_->now();
  sleep_until(arrival);
  if (recovered) {
    // The wait includes at least one ARQ retransmission dialogue:
    // attribute the whole parked interval to recovery.
    trace_span(trace::Category::kArqRetransmit, begin, peer, bytes);
    return;
  }
  if (trc_ == nullptr || arrival <= begin) return;
  const double mid =
      queue_delay > 0.0 ? std::min(arrival, begin + queue_delay) : begin;
  if (mid > begin) {
    trc_->record(wrank(), trace::Category::kNicQueue, begin, mid, peer, bytes);
  }
  // Store-and-forward time past the first hop is the relay's doing,
  // not this link's: attribute it separately so hop-count sweeps show
  // where the latency went.
  const double relay_begin =
      relay_delay > 0.0 ? std::max(mid, arrival - relay_delay) : arrival;
  if (relay_begin > mid) {
    trc_->record(wrank(), trace::Category::kWire, mid, relay_begin, peer,
                 bytes);
  }
  if (arrival > relay_begin) {
    trc_->record(wrank(), trace::Category::kRelayForward, relay_begin, arrival,
                 peer, bytes);
  }
}

void Comm::wait_timer(double dt) {
  if (dt <= 0.0) return;
  const double begin = proc_->now();
  // A private waitable nobody notifies: wait_for always times out, so
  // this is a pure virtual-time timer (the ARQ backoff clock).
  sim::Waitable timer;
  (void)proc_->wait_for(timer, dt);
  trace_span(trace::Category::kArqRetransmit, begin);
}

void Comm::note_collective(verify::CollKind kind, int root,
                           std::size_t bytes) {
  if (vrf_ == nullptr) return;
  // Mix the epoch into the verifier's collective key so invocation N
  // of a shrunken communicator never cross-checks against invocation
  // N of the world communicator (epoch 0 keeps the bare sequence).
  const std::uint64_t key =
      epoch_ == 0 ? coll_seq_ : verify::splitmix64(epoch_) + coll_seq_;
  vrf_->on_collective(wrank(), key, kind, root, bytes);
}

int Comm::next_coll_tag() {
  // 64 internal tag slots per collective invocation (one per round).
  // The sequence walks the whole [2^28, 2^31) internal-tag range and
  // fails loudly when it runs out: a silent wrap would let tags of
  // long-separated collectives collide and cross-match.
  if (coll_seq_ >= kMaxCollectives) {
    throw MpiError("collective tag space exhausted after " +
                   std::to_string(coll_seq_) +
                   " collectives on this communicator");
  }
  const auto base = (std::uint32_t{1} << 28) + coll_seq_ * 64;
  ++coll_seq_;
  return static_cast<int>(base);
}

// ------------------------------------------------------------- matching

void Comm::post_envelope(int dst, std::unique_ptr<Envelope> env) {
  detail::Mailbox& box = world_->mailbox(to_world(dst));
  for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
    PendingRecv* pr = *it;
    if (detail::matches(*env, *pr)) {
      box.posted.erase(it);
      pr->matched = std::move(env);
      proc_->notify_all(pr->cond);
      return;
    }
  }
  box.unexpected.push_back(std::move(env));
}

void Comm::deliver_eager(int dst, std::unique_ptr<Envelope> env) {
  const int wd = to_world(dst);
  net::FaultInjector* faults = world_->fabric().faults_for(wrank(), wd);
  if (faults == nullptr) {
    post_envelope(dst, std::move(env));
    return;
  }
  // Unreliable routed traffic draws its fault end-to-end (one draw for
  // the whole path — per-hop granularity needs the ARQ layer).
  const net::FaultDecision d = faults->next(wrank(), wd, env->payload.size());
  switch (d.kind) {
    case net::FaultKind::kDrop:
      return;  // the wire ate it; nothing ever arrives
    case net::FaultKind::kCorrupt:
      env->payload[d.position] ^= d.flip_mask;
      break;
    case net::FaultKind::kTruncate:
      env->payload.resize(d.new_length);
      break;
    case net::FaultKind::kDuplicate: {
      auto copy = std::make_unique<Envelope>(*env);
      copy->seq = world_->next_seq();
      // The duplicate crosses the wire again behind the original.
      const net::PathTimes extra = world_->fabric().reserve_route(
          wrank(), wd, copy->payload.size(), env->arrival,
          relay_policy_.hop_delay(copy->payload.size()));
      copy->arrival = extra.arrival;
      copy->relay_delay = extra.relay_delay;
      post_envelope(dst, std::move(env));
      post_envelope(dst, std::move(copy));
      return;
    }
    case net::FaultKind::kDelay:
      env->arrival += d.delay_seconds;
      break;
    case net::FaultKind::kNone:
    case net::FaultKind::kRankCrash:  // not a wire fault; never drawn
      break;
  }
  post_envelope(dst, std::move(env));
}

void Comm::deliver_reliable(int dst, std::unique_ptr<Envelope> env,
                            double send_time) {
  const int wd = to_world(dst);
  if (arq_->link_dead(wrank(), wd)) {
    throw reliable::PeerUnreachable(wrank(), wd, 0);
  }
  // Collective-internal traffic (tags >= 2^28) is link-checksummed, so
  // corruption is caught and retransmitted below the MPI layer; user
  // point-to-point payloads defer integrity to the upper layer.
  const bool checksummed = env->tag >= (1 << 28);
  const reliable::Delivery d =
      arq_->deliver(wrank(), wd, env->payload.size(), send_time,
                    checksummed, relay_policy_);
  env->arq_seq = d.seq;
  env->arq_transmissions = d.transmissions;
  switch (d.result) {
    case reliable::Delivery::Result::kDelivered:
    case reliable::Delivery::Result::kDeliveredDamaged:
      // A damaged payload stays clean in the mailbox (it doubles as the
      // sender's retransmit buffer); the damage (none on a clean
      // delivery) is applied when the receiver copies it out, and
      // undone again if the upper layer NACKs (recover_damaged_recv).
      env->arrival = d.arrival;
      env->nic_queue = d.queue_delay;
      env->relay_delay = d.relay_delay;
      env->damage = d.damage;
      post_envelope(dst, std::move(env));
      return;
    case reliable::Delivery::Result::kDeadLink: {
      // Graceful degradation: tell the verifier, leave a tombstone so
      // the receiver fails fast instead of timing out, and raise the
      // structured error on the sender.
      if (vrf_ != nullptr) {
        vrf_->on_peer_unreachable(wrank(), wd, d.transmissions);
      }
      const int src = wrank();
      const std::uint32_t attempts = d.transmissions;
      env->poisoned = true;
      env->payload.clear();
      post_envelope(dst, std::move(env));
      throw reliable::PeerUnreachable(src, wd, attempts);
    }
  }
}

template <typename Done, typename Check>
bool Comm::park_bounded(sim::Waitable& w, Done&& done, Check&& check) {
  const double poll = ft_->config().detect_timeout;
  while (!done()) {
    if (!recovery_ && ft_->revoked(epoch_)) ft_->throw_revoked(epoch_);
    if (!check()) return false;
    (void)proc_->wait_for(w, poll);
  }
  return true;
}

void Comm::release_sender(RndvHandshake& handshake, double free_at) {
  handshake.sender_complete = free_at;
  handshake.completed = true;
  proc_->notify_all(handshake.done);
}

void Comm::await_handshake(RndvHandshake& handshake, int dst, int tag,
                           std::uint64_t bytes) {
  const double wait_begin = proc_->now();
  {
    const verify::Verifier::BlockScope block(
        vrf_, wrank(), {verify::BlockKind::kRndvSend, dst, tag});
    if (ft_ == nullptr) {
      while (!handshake.completed) proc_->wait(handshake.done);
    } else {
      // Bounded park: if the receiver dies (or the epoch is revoked
      // under us) nobody will ever complete the handshake — poll the
      // failure detector instead of blocking forever. Abandoning the
      // handshake is safe: the receiver re-checks revocation and the
      // sender's ground-truth crash state before dereferencing any
      // rendezvous envelope, and virtual time is globally monotone,
      // so a receiver running before the revocation still finds the
      // handshake (and the send buffer) intact.
      const int wd = to_world(dst);
      try {
        park_bounded(handshake.done, [&] { return handshake.completed; },
                     [&] {
                       if (ft_->detectable(wd, proc_->now())) {
                         throw reliable::PeerUnreachable(wrank(), wd, 0);
                       }
                       return true;
                     });
      } catch (...) {
        trace_span(trace::Category::kSyncWait, wait_begin, dst, bytes);
        throw;
      }
    }
  }
  trace_span(trace::Category::kSyncWait, wait_begin, dst, bytes);
  const double drain_begin = proc_->now();
  sleep_until(handshake.sender_complete);
  // Time the sender's NIC still needs to drain the pulled payload.
  trace_span(trace::Category::kNicQueue, drain_begin, dst, bytes);
}

// ------------------------------------------------------------ send side

bool Comm::post_send(BytesView data, int dst, int tag, double wire_not_before,
                     RndvHandshake* handshake, Bytes* owned) {
  const int wd = to_world(dst);
  const std::size_t bytes = data.size();
  const net::NetworkProfile& prof = world_->fabric().profile(wrank(), wd);
  if (dst == rank() || bytes <= prof.eager_threshold) handshake = nullptr;
  const double begin = proc_->now();
  // Eager: the sender pays overhead + copy into the envelope.
  // Rendezvous: only the overhead; the receiver pulls the payload
  // (zero-copy) after the RTS announced it. An owned frame is billed
  // the same: virtual time models the MPI library, not host copies.
  proc_->advance(handshake != nullptr
                     ? prof.send_overhead
                     : prof.send_overhead + static_cast<double>(bytes) /
                                                prof.copy_bandwidth);
  trace_span(trace::Category::kCopy, begin, dst, bytes);
  auto env = std::make_unique<Envelope>();
  env->src = rank();
  env->world_src = wrank();
  env->comm_epoch = epoch_;
  env->tag = tag;
  env->seq = world_->next_seq();
  if (handshake != nullptr) {
    const std::size_t ctrl = kRndvCtrlBytes;
    env->rendezvous = true;
    if (owned != nullptr) {
      env->payload = std::move(*owned);
      env->rndv_data = env->payload;
    } else {
      env->rndv_data = data;
    }
    env->handshake = handshake;
    env->arrival = world_->fabric()
                       .reserve_route(wrank(), wd, ctrl, proc_->now(),
                                      relay_policy_.hop_delay(ctrl))
                       .arrival;
    post_envelope(dst, std::move(env));
    return true;
  }
  if (owned != nullptr) {
    env->payload = std::move(*owned);
  } else {
    env->payload.assign(data.begin(), data.end());
  }
  // A pipelined chunk may not start on the wire before its helper core
  // sealed it; every other send passes 0, leaving the send time as is.
  const double send_time = std::max(proc_->now(), wire_not_before);
  if (dst == rank()) {
    env->arrival = send_time;  // self-sends never touch the wire
    post_envelope(dst, std::move(env));
  } else if (arq_ != nullptr && arq_->carries(wrank(), wd)) {
    deliver_reliable(dst, std::move(env), send_time);
  } else {
    const net::PathTimes path = world_->fabric().reserve_route(
        wrank(), wd, bytes, send_time, relay_policy_.hop_delay(bytes));
    env->arrival = path.arrival;
    env->nic_queue = path.queue_delay;
    env->relay_delay = path.relay_delay;
    deliver_eager(dst, std::move(env));
  }
  return false;
}

void Comm::send_internal(BytesView data, int dst, int tag, Bytes* owned) {
  validate_peer(dst, size());
  ft_guard(/*post=*/true);
  RndvHandshake handshake;
  if (post_send(data, dst, tag, 0.0, &handshake, owned)) {
    await_handshake(handshake, dst, tag, data.size());
  }
}

void Comm::send(BytesView data, int dst, int tag) {
  validate_user_tag(tag);
  guarded([&] { send_internal(data, dst, tag); });
}

void Comm::send_frame(Bytes frame, int dst, int tag) {
  validate_user_tag(tag);
  guarded([&] { send_internal(frame, dst, tag, &frame); });
}

void Comm::send_chunk(Bytes frame, int dst, int tag, double wire_not_before) {
  validate_user_tag(tag);
  guarded([&] {
    validate_peer(dst, size());
    ft_guard(/*post=*/true);
    // Always the eager shape, whatever the chunk size: a chunk is a
    // self-contained sealed frame, and a rendezvous handshake would
    // serialize the pipeline it exists to create.
    post_send(frame, dst, tag, wire_not_before, nullptr, &frame);
  });
}

Request Comm::isend_internal(BytesView data, int dst, int tag) {
  validate_peer(dst, size());
  ft_guard(/*post=*/true);
  auto state = std::make_unique<SendState>();
  state->dst = dst;
  state->tag = tag;
  state->bytes = data.size();
  state->ft = ft_;
  state->epoch = epoch_;
  if (vrf_ != nullptr) {
    state->vrf = vrf_;
    state->vid = vrf_->on_request_start(wrank(), verify::ReqKind::kSend, dst,
                                        tag, data.data(), data.size());
  }
  state->rendezvous = post_send(data, dst, tag, 0.0, &state->handshake);
  return Request(std::move(state));
}

Request Comm::isend(BytesView data, int dst, int tag) {
  validate_user_tag(tag);
  return guarded([&] { return isend_internal(data, dst, tag); });
}

// ------------------------------------------------------------ recv side

Request Comm::irecv_internal(MutBytes buf, int src, int tag, Bytes* frame,
                             std::size_t capacity) {
  validate_recv_peer(src, size());
  ft_guard(/*post=*/true);
  auto state = std::make_unique<RecvState>();
  state->pr.want_src = src;
  state->pr.want_tag = tag;
  state->pr.want_epoch = epoch_;
  state->pr.buf = buf;
  state->pr.frame = frame;
  state->pr.frame_capacity = capacity;
  state->ft = ft_;
  state->epoch = epoch_;

  detail::Mailbox& box = world_->mailbox(wrank());
  const auto it = std::ranges::find_if(box.unexpected, [&](const auto& env) {
    return detail::matches(*env, state->pr);
  });
  if (it != box.unexpected.end()) {
    state->pr.matched = std::move(*it);
    box.unexpected.erase(it);
  } else {
    state->mailbox = &box;
    box.posted.push_back(&state->pr);
  }
  if (vrf_ != nullptr) {
    state->vrf = vrf_;
    state->vid = vrf_->on_request_start(wrank(), verify::ReqKind::kRecv, src,
                                        tag, buf.data(), buf.size());
  }
  return Request(std::move(state));
}

Request Comm::irecv(MutBytes buf, int src, int tag) {
  validate_recv_tag(tag);
  return guarded([&] { return irecv_internal(buf, src, tag); });
}

Status Comm::complete_recv(PendingRecv& pr) {
  const double timeout = world_->config().recv_timeout;
  const double wait_begin = proc_->now();
  const auto timed_out = [&] {
    return MpiError("receive timed out after " + std::to_string(timeout) +
                    " virtual seconds (message dropped or sender failed)");
  };
  {
    const verify::Verifier::BlockScope block(
        vrf_, wrank(), {verify::BlockKind::kRecv, pr.want_src, pr.want_tag});
    if (ft_ == nullptr) {
      while (!pr.matched) {
        if (timeout <= 0.0) {
          proc_->wait(pr.cond);
        } else if (!proc_->wait_for(pr.cond, timeout)) {
          throw timed_out();
        }
      }
    } else {
      // Bounded wait: poll at the failure detector's granularity so a
      // receive from a dead rank (or on a revoked epoch) fails fast
      // instead of hanging. recv_timeout still applies on top, rounded
      // up to the polling granularity.
      park_bounded(pr.cond, [&] { return pr.matched != nullptr; }, [&] {
        if (pr.want_src != kAnySource) {
          const int ws = to_world(pr.want_src);
          if (ws != wrank() && ft_->detectable(ws, proc_->now())) {
            throw reliable::PeerUnreachable(ws, wrank(), 0);
          }
        } else {
          bool someone_alive = false;
          for (int i = 0; i < size() && !someone_alive; ++i) {
            someone_alive =
                i != rank() && !ft_->detectable(to_world(i), proc_->now());
          }
          if (!someone_alive) throw reliable::PeerUnreachable(-1, wrank(), 0);
        }
        if (timeout > 0.0 && proc_->now() - wait_begin >= timeout) {
          throw timed_out();
        }
        return true;
      });
      // Matched, but the epoch may have been revoked while parked:
      // pending operations on a revoked communicator fail fast, and
      // doing so before touching the envelope is what makes sender
      // abandonment memory-safe (see await_handshake).
      if (!recovery_ && ft_->revoked(epoch_)) {
        pr.matched.reset();
        ft_->throw_revoked(epoch_);
      }
    }
  }
  trace_span(trace::Category::kSyncWait, wait_begin, pr.want_src);
  Envelope& env = *pr.matched;
  Status status{.source = env.src, .tag = env.tag};

  if (env.poisoned) {
    // Dead-link tombstone: the sender's retry budget ran out mid-
    // delivery. Fail the receive fast with the structured error
    // instead of letting it block until the timeout.
    const int src = env.world_src;
    const std::uint64_t attempts = env.arq_transmissions;
    pr.matched.reset();
    throw reliable::PeerUnreachable(src, wrank(), attempts);
  }

  if (ft_ != nullptr && env.rendezvous &&
      ft_->crashed_by(env.world_src, proc_->now())) {
    // Ground-truth crash check (no detection delay): the sender died,
    // so its handshake and the buffer behind rndv_data are gone —
    // fail the pull without dereferencing either.
    const int src = env.world_src;
    pr.matched.reset();
    throw reliable::PeerUnreachable(src, wrank(), 0);
  }
  if (env.rendezvous) return pull_rendezvous(pr, status);

  if (env.payload.size() > pr.capacity()) {
    throw MpiError("receive buffer too small: need " +
                   std::to_string(env.payload.size()) + " bytes, have " +
                   std::to_string(pr.capacity()));
  }
  const net::NetworkProfile& prof =
      world_->fabric().profile(env.world_src, wrank());
  sleep_traced(env.arrival, env.arq_transmissions > 1, env.nic_queue, env.src,
               env.payload.size(), env.relay_delay);
  const double copy_begin = proc_->now();
  proc_->advance(prof.recv_overhead +
                 static_cast<double>(env.payload.size()) / prof.copy_bandwidth);
  trace_span(trace::Category::kCopy, copy_begin, env.src, env.payload.size());
  // Exposure accounting: every relay this payload crossed could
  // observe it. What that means is the secure layer's call
  // (plaintext under hop-trusted relays, sealed bytes end-to-end).
  world_->fabric().note_relay_exposure(
      world_->fabric().relay_count(env.world_src, wrank()));
  status.bytes = env.payload.size();
  const bool damaged =
      arq_ != nullptr && env.damage.kind == net::FaultKind::kCorrupt;
  if (damaged) {
    // Stash the clean payload, then apply the in-flight damage at
    // copy-out: the stash models the sender's retransmit buffer,
    // which end-to-end NACK recovery (recover_damaged_recv) replays
    // from.
    arq_->stash(wrank()) = {.valid = true, .src = env.src, .tag = env.tag,
                            .seq = env.arq_seq,
                            .transmissions = env.arq_transmissions,
                            .clean = env.payload};
  }
  const MutBytes got = copy_out(pr, status.bytes);
  if (damaged) got[env.damage.position] ^= env.damage.flip_mask;
  pr.matched.reset();
  return status;
}

MutBytes Comm::copy_out(PendingRecv& pr, std::size_t n) {
  Envelope& env = *pr.matched;
  const BytesView src =
      env.rendezvous ? env.rndv_data : BytesView(env.payload);
  if (pr.frame == nullptr) {
    if (n > 0) std::memcpy(pr.buf.data(), src.data(), n);
    return pr.buf.first(n);
  }
  // The envelope owns the bytes of every eager payload and of every
  // handed-over rendezvous frame (a rendezvous payload is never empty);
  // only a rendezvous pull from a sender's own buffer is copied.
  if (!env.payload.empty()) {
    *pr.frame = std::move(env.payload);
    pr.frame->resize(n);
  } else {
    const BytesView part = src.first(n);
    pr.frame->assign(part.begin(), part.end());
  }
  return *pr.frame;
}

Status Comm::pull_rendezvous(PendingRecv& pr, Status status) {
  Envelope& env = *pr.matched;
  const int ws = env.world_src;
  const std::size_t len = env.rndv_data.size();
  if (len > pr.capacity()) {
    throw MpiError("receive buffer too small for rendezvous payload");
  }
  net::FaultInjector* faults =
      env.src == rank() ? nullptr : world_->fabric().faults_for(ws, wrank());
  // With ARQ on a faulty link the pull is receiver-driven ARQ: the CTS
  // names the pull sequence; lost pulls are re-issued when the
  // receiver's timer fires (wait_for — real virtual-time waiting,
  // since this loop runs on the receiving rank), truncated pulls are
  // NACKed to the sender's NIC, corrupted pulls are delivered damaged
  // with the clean bytes stashed for end-to-end recovery. Otherwise
  // the same loop runs once: losing the transfer outright would leave
  // the sender parked, so the injector degrades drop/duplicate to
  // corruption, and a truncated pull is delivered short.
  reliable::ReliabilityStats* st =
      arq_ != nullptr && faults != nullptr ? &arq_->stats_mut() : nullptr;
  if (st != nullptr && arq_->link_dead(ws, wrank())) {
    // The pull link is already dead: unpark the sender (its buffer is
    // free — nothing will ever read it) and fail the receive.
    release_sender(*env.handshake, proc_->now());
    pr.matched.reset();
    throw reliable::PeerUnreachable(ws, wrank(), 0);
  }
  // CTS back to the sender, then an RDMA-style pull of the payload
  // through the sender's egress NIC. The sender CPU does not
  // participate (zero-copy), so only its NIC is reserved.
  const std::size_t ctrl = kRndvCtrlBytes;
  const double handshake_start = std::max(proc_->now(), env.arrival);
  const net::PathTimes cts = world_->fabric().reserve_route(
      wrank(), ws, ctrl, handshake_start, relay_policy_.hop_delay(ctrl));
  double pull_start = cts.arrival;
  if (st != nullptr) {
    // Move this rank's clock to the handshake so the retransmission
    // timers below measure real waiting, not a stale local time.
    const double rts_begin = proc_->now();
    sleep_until(handshake_start);
    trace_span(trace::Category::kWire, rts_begin, env.src, len);
  }

  const std::uint32_t budget =
      st != nullptr ? static_cast<std::uint32_t>(arq_->config().max_retries)
                    : 0;
  std::uint32_t attempts = 0;
  net::PathTimes data{};
  net::FaultDecision fault{};
  bool delivered = false;
  for (int attempt = 0; attempts <= budget; ++attempt) {
    ++attempts;
    // Routed pulls replay the whole route per attempt; faults stay at
    // end-to-end granularity on this receiver-driven path.
    data = world_->fabric().reserve_route(ws, wrank(), len, pull_start,
                                          relay_policy_.hop_delay(len));
    if (faults != nullptr) {
      fault = faults->next(ws, wrank(), len, /*allow_loss=*/st != nullptr);
    }
    if (st != nullptr) {
      ++st->data_frames;
      if (attempt > 0) ++st->retransmits;
      if (fault.kind == net::FaultKind::kDrop) {
        // The pull vanished: wait out the retransmission timer on this
        // rank, then re-issue the pull.
        ++st->rto_expirations;
        wait_timer(arq_->rto(ws, wrank(), env.seq, attempt));
        pull_start = std::max(proc_->now(), pull_start);
        continue;
      }
      if (fault.kind == net::FaultKind::kTruncate ||
          (fault.kind == net::FaultKind::kCorrupt && env.tag >= (1 << 28))) {
        // Link NACK back to the sender's NIC; it replays the pull.
        // Corruption only qualifies on link-checksummed collective-
        // internal frames — user payloads defer integrity upward.
        ++st->link_nacks;
        const std::size_t nack = reliable::kCtrlBytes;
        pull_start = world_->fabric()
                         .reserve_route(wrank(), ws, nack, data.arrival,
                                        relay_policy_.hop_delay(nack))
                         .arrival;
        continue;
      }
    }
    delivered = true;
    break;
  }

  if (ft_ != nullptr && ft_->crashed_by(ws, proc_->now())) {
    // The sender died while the retry timers above were running: its
    // handshake and send buffer are gone. Fail without touching them
    // (ground truth, no detection delay — this is memory safety, not
    // failure detection).
    pr.matched.reset();
    throw reliable::PeerUnreachable(ws, wrank(), attempts);
  }
  if (ft_ != nullptr && !recovery_ && ft_->revoked(epoch_)) {
    // Revoked while parked: complete the handshake so the (alive)
    // sender unparks promptly, then fail this pending receive fast.
    release_sender(*env.handshake, proc_->now());
    pr.matched.reset();
    ft_->throw_revoked(epoch_);
  }
  if (!delivered) {
    // Budget exhausted. Complete the handshake first so the sender
    // unparks, then degrade: mark the link dead, tell the verifier,
    // raise the structured error on this rank.
    release_sender(*env.handshake, proc_->now());
    arq_->mark_link_dead(ws, wrank());
    if (vrf_ != nullptr) {
      vrf_->on_peer_unreachable(wrank(), ws, attempts);
    }
    pr.matched.reset();
    throw reliable::PeerUnreachable(ws, wrank(), attempts);
  }

  // A latency spike on the pull delays the receiver, not the sender
  // (whose NIC finished at egress_done either way).
  double arrival = data.arrival;
  if (fault.kind == net::FaultKind::kDuplicate) {
    // The extra copy still crosses the wire before the window drops it.
    (void)world_->fabric().reserve_route(ws, wrank(), len, data.arrival,
                                         relay_policy_.hop_delay(len));
    if (st != nullptr) ++st->duplicates_suppressed;
  } else if (fault.kind == net::FaultKind::kDelay) {
    arrival += fault.delay_seconds;
    if (st != nullptr) ++st->delays_absorbed;
  }
  status.bytes = fault.kind == net::FaultKind::kTruncate ? fault.new_length : len;
  if (fault.kind == net::FaultKind::kCorrupt && st != nullptr) {
    // Deliver damaged; stash the clean copy (still valid here — the
    // sender is parked on the handshake, and a handed-over frame is
    // only moved out below) for end-to-end recovery.
    ++st->damaged_deliveries;
    arq_->stash(wrank()) = {
        .valid = true, .src = env.src, .tag = env.tag, .seq = env.seq,
        .transmissions = attempts,
        .clean = Bytes(env.rndv_data.begin(), env.rndv_data.end())};
  }
  const MutBytes got = copy_out(pr, status.bytes);
  if (fault.kind == net::FaultKind::kCorrupt) {
    got[fault.position] ^= fault.flip_mask;
  }
  if (st != nullptr) {
    ++st->deliveries;
    if (attempts > 1) {
      ++st->recoveries;
      st->recovery_delay_total += arrival - cts.arrival;
    }
  }
  release_sender(*env.handshake, data.egress_done);
  // Fault delays are attributed to the wire span like the latency they
  // model; a recovered pull's whole park is ARQ recovery time.
  sleep_traced(arrival, attempts > 1, cts.queue_delay + data.queue_delay,
               env.src, len, data.relay_delay);
  world_->fabric().note_relay_exposure(
      world_->fabric().relay_count(ws, wrank()));
  const double copy_begin = proc_->now();
  proc_->advance(world_->fabric().profile(ws, wrank()).recv_overhead);
  trace_span(trace::Category::kCopy, copy_begin, env.src, len);
  pr.matched.reset();
  return status;
}

bool Comm::recover_damaged_recv(MutBytes wire, int src, int tag) {
  if (arq_ == nullptr) return false;
  reliable::RetransmitStash& st = arq_->stash(wrank());
  if (!st.valid || st.src != src || st.tag != tag ||
      st.clean.size() != wire.size()) {
    return false;  // no fabric stash: genuine attack, not line damage
  }
  // Replay the NACK + retransmission dialogue in virtual time: the
  // channel resolves the clean copy's arrival, this rank waits for it
  // on a timer, and the retransmitted bytes replace the damaged ones.
  guarded([&] {
    const double t =
        arq_->e2e_recover(to_world(src), wrank(), wire.size(), proc_->now(),
                          st.transmissions, relay_policy_);
    wait_timer(t - proc_->now());
  });
  if (!wire.empty()) {
    std::memcpy(wire.data(), st.clean.data(), wire.size());
  }
  st.valid = false;
  st.clean.clear();
  return true;
}

std::optional<Status> Comm::recv_or_abort(
    MutBytes buf, int src, int tag, const std::function<bool()>& stop) {
  if (ft_ == nullptr) {
    throw MpiError("recv_or_abort requires the fault-tolerance layer");
  }
  validate_recv_peer(src, size());
  if (src == kAnySource) {
    throw MpiError("recv_or_abort needs a specific source rank");
  }
  Request request = irecv_internal(buf, src, tag);
  auto owned = request.take();
  auto* state = dynamic_cast<RecvState*>(owned.get());
  state->waited = true;
  PendingRecv& pr = state->pr;
  const int ws = to_world(src);
  {
    const verify::Verifier::BlockScope block(
        vrf_, wrank(), {verify::BlockKind::kRecv, src, tag});
    // The stop predicate (e.g. "the decision board settled") abandons
    // the park; the posted receive is then cleanly deregistered by the
    // request state's destructor.
    const bool matched = park_bounded(
        pr.cond, [&] { return pr.matched != nullptr; }, [&] {
          if (stop()) return false;
          if (ws != wrank() && ft_->detectable(ws, proc_->now())) {
            throw reliable::PeerUnreachable(ws, wrank(), 0);
          }
          return true;
        });
    if (!matched) return std::nullopt;
  }
  const Status status = complete_recv(pr);
  note_completed(state->vid);
  return status;
}

Status Comm::recv(MutBytes buf, int src, int tag) {
  validate_recv_tag(tag);
  return guarded([&] {
    Request request = irecv_internal(buf, src, tag);
    return wait(request);
  });
}

Status Comm::recv_frame(Bytes& frame, std::size_t capacity, int src,
                        int tag) {
  validate_recv_tag(tag);
  return guarded([&] {
    Request request = irecv_internal({}, src, tag, &frame, capacity);
    return wait(request);
  });
}

// ----------------------------------------------------------- completion

void Comm::note_completed(std::uint64_t& vid) {
  if (vrf_ != nullptr) {
    vrf_->on_request_finish(vid, verify::ReqFinish::kCompleted);
    vid = 0;
  }
}


Status Comm::wait(Request& request) {
  if (!request.valid()) throw_invalid_wait(vrf_, wrank(), request);
  return guarded([&]() -> Status {
    ft_guard(/*post=*/false);
    auto owned = request.take();
    if (auto* send_state = dynamic_cast<SendState*>(owned.get())) {
      send_state->waited = true;
      if (send_state->rendezvous) {
        await_handshake(send_state->handshake, send_state->dst,
                        send_state->tag, send_state->bytes);
      }
      note_completed(send_state->vid);
      return Status{};  // send completions carry no matching info
    }
    if (auto* recv_state = dynamic_cast<RecvState*>(owned.get())) {
      recv_state->waited = true;
      const Status status = complete_recv(recv_state->pr);
      note_completed(recv_state->vid);
      return status;
    }
    throw MpiError("request does not belong to this communicator");
  });
}

std::vector<Status> Comm::waitall(std::span<Request> requests) {
  std::vector<Status> statuses;
  statuses.reserve(requests.size());
  for (Request& r : requests) statuses.push_back(wait(r));
  return statuses;
}

Status Comm::sendrecv(BytesView senddata, int dst, int sendtag,
                      MutBytes recvbuf, int src, int recvtag) {
  validate_user_tag(sendtag);
  validate_recv_tag(recvtag);
  return guarded([&] {
    Request rr = irecv_internal(recvbuf, src, recvtag);
    Request rs = isend_internal(senddata, dst, sendtag);
    const Status status = wait(rr);
    wait(rs);
    return status;
  });
}

// ----------------------------------------------------------- collectives

void Comm::barrier() {
  guarded([&] {
    ft_guard(/*post=*/true);
    note_collective(verify::CollKind::kBarrier, -1, 0);
    const int base = next_coll_tag();
    const int n = size();
    const int r = rank();
    std::uint8_t token = 0;
    std::uint8_t sink = 0;
    int round = 0;
    for (int k = 1; k < n; k <<= 1, ++round) {
      const int dst = (r + k) % n;
      const int src = (r - k + n) % n;
      Request rr = irecv_internal(MutBytes(&sink, 1), src, base + round);
      Request rs = isend_internal(BytesView(&token, 1), dst, base + round);
      wait(rr);
      wait(rs);
    }
  });
}

void Comm::bcast(MutBytes data, int root) {
  validate_peer(root, size());
  guarded([&] {
    ft_guard(/*post=*/true);
    note_collective(verify::CollKind::kBcast, root, data.size());
    const int base = next_coll_tag();
    const int n = size();
    if (n == 1) return;
    const int vrank = (rank() - root + n) % n;

    // Binomial tree: receive from the parent, then forward to children.
    // Forward exactly the received byte count, so a non-root rank with
    // an oversized buffer still relays the correct message.
    std::size_t len = data.size();
    int mask = 1;
    while (mask < n) {
      if ((vrank & mask) != 0) {
        const int parent = (vrank - mask + root) % n;
        Request rr = irecv_internal(data, parent, base);
        len = wait(rr).bytes;
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < n) {
        const int child = (vrank + mask + root) % n;
        send_internal(BytesView(data).first(len), child, base);
      }
      mask >>= 1;
    }
  });
}

void Comm::allgather(BytesView sendpart, MutBytes recvall) {
  const int n = size();
  const std::size_t block = sendpart.size();
  if (recvall.size() != block * static_cast<std::size_t>(n)) {
    throw MpiError("allgather: recv buffer must be size()*block bytes");
  }
  guarded([&] {
    ft_guard(/*post=*/true);
    note_collective(verify::CollKind::kAllgather, -1, block);
    const int base = next_coll_tag();
    const int r = rank();
    if (!sendpart.empty()) {
      std::memcpy(recvall.data() + static_cast<std::size_t>(r) * block,
                  sendpart.data(), block);
    }
    if (n == 1) return;

    // Ring: in step s, pass along the block that originated s hops
    // back.
    const int right = (r + 1) % n;
    const int left = (r - 1 + n) % n;
    for (int s = 0; s < n - 1; ++s) {
      const auto send_idx = static_cast<std::size_t>((r - s + n) % n);
      const auto recv_idx = static_cast<std::size_t>((r - s - 1 + n) % n);
      Request rr = irecv_internal(
          recvall.subspan(recv_idx * block, block), left, base + (s & 63));
      Request rs = isend_internal(
          BytesView(recvall.subspan(send_idx * block, block)), right,
          base + (s & 63));
      wait(rr);
      wait(rs);
    }
  });
}

void Comm::alltoall(BytesView sendbuf, MutBytes recvbuf, std::size_t block) {
  const int n = size();
  const auto total = block * static_cast<std::size_t>(n);
  if (sendbuf.size() != total || recvbuf.size() != total) {
    throw MpiError("alltoall: buffers must be size()*block bytes");
  }
  guarded([&] {
    ft_guard(/*post=*/true);
    note_collective(verify::CollKind::kAlltoall, -1, block);
    const int base = next_coll_tag();
    const int r = rank();

    // Posted-window algorithm: all receives first, then all sends,
    // peers staggered by rank to spread NIC load.
    std::vector<Request> requests;
    requests.reserve(2 * static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int peer = (r + i) % n;
      requests.push_back(irecv_internal(
          recvbuf.subspan(static_cast<std::size_t>(peer) * block, block),
          peer, base));
    }
    for (int i = 0; i < n; ++i) {
      const int peer = (r + i) % n;
      requests.push_back(isend_internal(
          sendbuf.subspan(static_cast<std::size_t>(peer) * block, block),
          peer, base));
    }
    waitall(requests);
  });
}

void Comm::alltoallv(BytesView sendbuf,
                     std::span<const std::size_t> sendcounts,
                     std::span<const std::size_t> senddispls, MutBytes recvbuf,
                     std::span<const std::size_t> recvcounts,
                     std::span<const std::size_t> recvdispls) {
  const auto n = static_cast<std::size_t>(size());
  if (sendcounts.size() != n || senddispls.size() != n ||
      recvcounts.size() != n || recvdispls.size() != n) {
    throw MpiError("alltoallv: count/displacement arrays must have size() entries");
  }
  guarded([&] {
    ft_guard(/*post=*/true);
    note_collective(verify::CollKind::kAlltoallv, -1, 0);
    const int base = next_coll_tag();
    const int r = rank();

    std::vector<Request> requests;
    requests.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto peer =
          static_cast<std::size_t>((static_cast<std::size_t>(r) + i) % n);
      requests.push_back(
          irecv_internal(recvbuf.subspan(recvdispls[peer], recvcounts[peer]),
                         static_cast<int>(peer), base));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto peer =
          static_cast<std::size_t>((static_cast<std::size_t>(r) + i) % n);
      requests.push_back(
          isend_internal(sendbuf.subspan(senddispls[peer], sendcounts[peer]),
                         static_cast<int>(peer), base));
    }
    waitall(requests);
  });
}

void Comm::gather(BytesView sendpart, MutBytes recvall, int root) {
  validate_peer(root, size());
  const int n = size();
  const std::size_t block = sendpart.size();
  guarded([&] {
    ft_guard(/*post=*/true);
    note_collective(verify::CollKind::kGather, root, block);
    const int base = next_coll_tag();
    if (rank() == root) {
      if (recvall.size() != block * static_cast<std::size_t>(n)) {
        throw MpiError("gather: root recv buffer must be size()*block bytes");
      }
      std::vector<Request> requests;
      requests.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        if (i == root) {
          if (!sendpart.empty()) {
            std::memcpy(recvall.data() + static_cast<std::size_t>(i) * block,
                        sendpart.data(), block);
          }
          continue;
        }
        requests.push_back(irecv_internal(
            recvall.subspan(static_cast<std::size_t>(i) * block, block), i,
            base));
      }
      waitall(requests);
    } else {
      send_internal(sendpart, root, base);
    }
  });
}

void Comm::scatter(BytesView sendall, MutBytes recvpart, int root) {
  validate_peer(root, size());
  const int n = size();
  const std::size_t block = recvpart.size();
  guarded([&] {
    ft_guard(/*post=*/true);
    note_collective(verify::CollKind::kScatter, root, block);
    const int base = next_coll_tag();
    if (rank() == root) {
      if (sendall.size() != block * static_cast<std::size_t>(n)) {
        throw MpiError("scatter: root send buffer must be size()*block bytes");
      }
      std::vector<Request> requests;
      requests.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        if (i == root) {
          if (!recvpart.empty()) {
            std::memcpy(recvpart.data(),
                        sendall.data() + static_cast<std::size_t>(i) * block,
                        block);
          }
          continue;
        }
        requests.push_back(isend_internal(
            sendall.subspan(static_cast<std::size_t>(i) * block, block), i,
            base));
      }
      waitall(requests);
    } else {
      Request rr = irecv_internal(recvpart, root, base);
      wait(rr);
    }
  });
}

}  // namespace emc::mpi
