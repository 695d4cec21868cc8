// Plain (unencrypted) MiniMPI communicator — the baseline of the study.
#pragma once

#include <optional>

#include "emc/mpi/communicator.hpp"
#include "emc/mpi/world.hpp"
#include "emc/sim/engine.hpp"

namespace emc::mpi {

/// Communicator bound to one rank (one simulated process) of a World.
/// Point-to-point uses the eager protocol below the network profile's
/// threshold and an RDMA-style RTS/CTS rendezvous above it; the
/// collectives use the classic MPICH algorithms (binomial bcast, ring
/// allgather, posted-window alltoall, dissemination barrier).
///
/// A Comm is either the world communicator (epoch 0, identity rank
/// mapping) or a re-ranked sub-communicator over an explicit group of
/// world ranks with its own epoch (built by ft::shrink during
/// recovery). Message matching is epoch-scoped, so traffic of a
/// revoked communicator can never leak into its successor.
class Comm final : public Communicator {
 public:
  Comm(World& world, sim::Process& proc);

  /// Sub-communicator over @p group — a strictly ascending list of
  /// world ranks that must contain the calling process. Ranks are the
  /// positions within @p group. @p recovery marks the ft-internal
  /// communicator that runs the agreement protocol: its operations
  /// skip the revocation guard (recovery must proceed exactly while
  /// the application epoch is revoked) and poll the failure detector
  /// instead of blocking forever on dead peers.
  Comm(World& world, sim::Process& proc, std::vector<int> group,
       std::uint64_t epoch, bool recovery = false);

  [[nodiscard]] int rank() const override { return local_rank_; }
  [[nodiscard]] int size() const override {
    return group_.empty() ? world_->size()
                          : static_cast<int>(group_.size());
  }

  /// Matching epoch of this communicator (0 = the world communicator;
  /// recovery communicators have the high bit set).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// World rank behind local rank @p r (identity on the world
  /// communicator; kAnySource passes through).
  [[nodiscard]] int to_world(int r) const {
    return group_.empty() || r < 0
               ? r
               : group_.at(static_cast<std::size_t>(r));
  }

  /// Local rank of world rank @p world_rank, or -1 when that rank is
  /// not part of this communicator's group.
  [[nodiscard]] int to_local(int world_rank) const;

  /// Virtual time as seen by this rank.
  [[nodiscard]] double now() const { return proc_->now(); }

  /// The simulated process behind this rank; used by benches to bill
  /// modelled compute time (`process().advance(...)`).
  [[nodiscard]] sim::Process& process() { return *proc_; }
  [[nodiscard]] World& world() { return *world_; }

  /// The one place measured host work enters virtual time: runs
  /// @p work on the host, advances this rank by its wall-clock
  /// duration times WorldConfig::cpu_scale, and records the billed
  /// interval as a @p category span when tracing is on (zero-length
  /// spans included). Returns the measured host seconds. Only one rank
  /// runs at a time, so the measurement is uncontended.
  double charge(const std::function<void()>& work,
                trace::Category category = trace::Category::kCompute);

  void send(BytesView data, int dst, int tag) override;
  Status recv(MutBytes buf, int src, int tag) override;
  Request isend(BytesView data, int dst, int tag) override;
  Request irecv(MutBytes buf, int src, int tag) override;
  Status wait(Request& request) override;
  std::vector<Status> waitall(std::span<Request> requests) override;
  Status sendrecv(BytesView senddata, int dst, int sendtag, MutBytes recvbuf,
                  int src, int recvtag) override;

  /// Blocking send of a frame this rank hands over: like send(), but
  /// @p frame's buffer itself travels in the envelope (eager) or is
  /// what the receiver pulls (rendezvous) — no copy on either side.
  /// Virtual time, wire reservations and fault draws are those of
  /// send().
  void send_frame(Bytes frame, int dst, int tag);

  /// Blocking receive that hands the message's buffer over: @p frame
  /// becomes the payload, taken by move when the envelope owns it (a
  /// send_frame or send_chunk frame, or any eager payload), copied
  /// otherwise; its old contents are discarded. A payload above
  /// @p capacity bytes throws the same MpiError as recv() into a
  /// buffer of that size. Matching, timeouts, ft checks, verifier
  /// hooks and virtual time are those of recv().
  Status recv_frame(Bytes& frame, std::size_t capacity, int src, int tag);

  /// Pipelined-chunk send primitive for the secure layer's chunked
  /// encrypt->send pipeline (docs/PIPELINE.md): always eager (a chunk
  /// is a self-contained sealed frame — rendezvous would serialize
  /// the pipeline behind a handshake), and the payload may not start
  /// on the wire before @p wire_not_before (virtual seconds) — the
  /// time its helper core finished sealing it. The sender's own clock
  /// only advances by the per-message CPU overhead + copy, exactly
  /// like an eager send, so successive chunks overlap on the wire.
  /// @p frame moves into the envelope, as with send_frame.
  void send_chunk(Bytes frame, int dst, int tag, double wire_not_before);

  /// Hard ceiling on collectives per communicator: the internal tag
  /// space above kMaxUserTag fits this many 64-slot collective
  /// invocations; next_coll_tag throws MpiError once it is exhausted
  /// (tags never silently wrap into reuse).
  static constexpr std::uint32_t kMaxCollectives =
      ((std::uint32_t{1} << 31) - (std::uint32_t{1} << 28)) / 64;

  /// Test hook: burns @p n collective-tag slots as if n collectives
  /// had run, to exercise the exhaustion guard without running them.
  void consume_coll_tags(std::uint32_t n) noexcept {
    coll_seq_ = n > kMaxCollectives - coll_seq_ ? kMaxCollectives
                                                : coll_seq_ + n;
  }

  /// End-to-end NACK hook for upper layers that authenticate payloads
  /// (reliability only). When the most recent completed receive on
  /// this rank was damaged in flight by the fabric, simulates the
  /// NACK + retransmission dialogue in virtual time (wait_for-based
  /// backoff timers), rewrites @p wire with the clean retransmitted
  /// copy, and returns true. Returns false when the damage did not
  /// come from the fabric (a real attacker — the caller should keep
  /// treating it as an integrity failure) or reliability is off.
  /// Throws reliable::PeerUnreachable when the retry budget runs out.
  bool recover_damaged_recv(MutBytes wire, int src, int tag);

  /// Abortable bounded receive — the primitive the ft agreement
  /// protocol is built on (only available with the ft layer active).
  /// Waits for a message from local rank @p src, polling at the
  /// failure detector's granularity; returns std::nullopt as soon as
  /// @p stop returns true (e.g. the decision board settled), and
  /// throws reliable::PeerUnreachable once @p src is detectably dead.
  std::optional<Status> recv_or_abort(MutBytes buf, int src, int tag,
                                      const std::function<bool()>& stop);

  /// Installs the relay policy for multi-hop routed traffic: the
  /// per-relay processing surcharge and whether hops re-verify payload
  /// integrity. The secure layer maps its RelayTrust decision here
  /// (hop-trusted relays decrypt + re-encrypt; end-to-end relays
  /// forward sealed bytes for free). Default: transparent relays.
  void set_relay_policy(const net::RelayPolicy& policy) {
    relay_policy_ = policy;
  }

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

 private:
  /// Posts an envelope to @p dst, matching a posted receive if one fits.
  void post_envelope(int dst, std::unique_ptr<detail::Envelope> env);

  /// Runs an eager envelope, already on the wire, through the fabric's
  /// fault injector (if any) before posting: may corrupt or truncate
  /// the payload, post a duplicate, or drop the envelope entirely.
  /// Only for frames the ARQ channel does not carry.
  void deliver_eager(int dst, std::unique_ptr<detail::Envelope> env);

  /// ARQ delivery of an eager envelope the channel carries: the channel
  /// makes every wire reservation from @p send_time on, resolves
  /// retransmissions/backoff and suppresses duplicates; a damaged
  /// payload is posted for end-to-end NACK recovery, and retry-budget
  /// exhaustion becomes a tombstone plus a thrown
  /// reliable::PeerUnreachable.
  void deliver_reliable(int dst, std::unique_ptr<detail::Envelope> env,
                        double send_time);

  /// The rendezvous pull of a matched RTS: CTS, then the payload
  /// through the sender's NIC. With ARQ on a faulty link it is the ARQ
  /// retry loop; otherwise the same loop runs once. Wakes the sender.
  Status pull_rendezvous(detail::PendingRecv& pr, Status status);

  /// Completes @p handshake (sender buffer free at @p free_at) and
  /// wakes the parked sender.
  void release_sender(detail::RndvHandshake& handshake, double free_at);

  /// The one send path: charges the sender CPU, builds the envelope
  /// and hands it to the wire. Eager (the payload copied into the
  /// envelope, on the wire no earlier than @p wire_not_before) unless
  /// @p handshake is given and the payload is above the eager
  /// threshold: then an RTS, and true — the receiver completes the
  /// rendezvous through @p handshake. When @p owned is given it holds
  /// @p data's bytes and moves into the envelope instead of a copy.
  bool post_send(BytesView data, int dst, int tag, double wire_not_before,
                 detail::RndvHandshake* handshake, Bytes* owned = nullptr);

  /// Sends with internal tags allowed (collectives); @p owned as in
  /// post_send.
  void send_internal(BytesView data, int dst, int tag,
                     Bytes* owned = nullptr);
  Request isend_internal(BytesView data, int dst, int tag);
  /// Posts a receive into @p buf, or with @p frame a frame receive of
  /// at most @p capacity bytes (see recv_frame).
  Request irecv_internal(MutBytes buf, int src, int tag,
                         Bytes* frame = nullptr, std::size_t capacity = 0);

  /// Completes a bound receive: sleeps to arrival, charges receiver
  /// costs, copies the payload (or executes the rendezvous pull).
  Status complete_recv(detail::PendingRecv& pr);

  /// The one copy-out point of a receive: the first @p n payload bytes
  /// of @p pr's matched envelope (eager payload or rendezvous pull)
  /// into the receive — moved for a frame receive when the envelope
  /// owns them, copied otherwise. Returns the delivered bytes.
  MutBytes copy_out(detail::PendingRecv& pr, std::size_t n);

  /// Reports a waited request's completion to the verifier (if any).
  void note_completed(std::uint64_t& vid);

  void sleep_until(double t);

  /// Records the attribution span [@p begin, now] when tracing is on
  /// (and the span is non-empty). Observation only.
  void trace_span(trace::Category cat, double begin, int peer = -1,
                  std::uint64_t bytes = 0);

  /// sleep_until(@p arrival) for a payload, attributing the parked
  /// interval as a kNicQueue prefix of up to @p queue_delay seconds
  /// (time the message spent queued behind a busy NIC), then kWire,
  /// then a kRelayForward suffix of up to @p relay_delay seconds (time
  /// spent in store-and-forward beyond the first hop of a routed
  /// path) — or wholly as kArqRetransmit when ARQ @p recovered it.
  void sleep_traced(double arrival, bool recovered, double queue_delay,
                    int peer, std::uint64_t bytes, double relay_delay);

  /// Fresh tag for the next collective (all ranks call collectives in
  /// the same order, so the per-rank counter stays aligned).
  int next_coll_tag();

  /// Reports this rank's entry into the collective the next
  /// next_coll_tag() call will number (no-op without verification).
  void note_collective(verify::CollKind kind, int root, std::size_t bytes);

  /// Parks this rank for @p dt virtual seconds on a private waitable —
  /// a pure virtual-time timer (sim wait_for), used by the ARQ backoff.
  void wait_timer(double dt);

  /// This rank's world rank — the coordinate for fabric paths, fault
  /// injection, tracing, and the ft crash checks.
  [[nodiscard]] int wrank() const { return proc_->index(); }

  /// Fails fast on a revoked epoch (no-op when the ft layer is off or
  /// this is the recovery communicator). @p post marks calls that
  /// would post *new* work — those feed the keeps-posting-after-revoke
  /// diagnostic.
  void ft_guard(bool post);

  /// Wraps a public operation: a reliable::PeerUnreachable escaping
  /// @p f revokes this communicator's epoch (first observation wins)
  /// and is rethrown as ft::RevokedError. Identity when ft is off.
  template <typename F>
  decltype(auto) guarded(F&& f);

  /// Parks on a rendezvous handshake until the receiver completes it,
  /// then drains the sender NIC. With the ft layer active the park is
  /// bounded: the sender polls for epoch revocation and for @p dst's
  /// detected death instead of blocking forever.
  void await_handshake(detail::RndvHandshake& handshake, int dst, int tag,
                       std::uint64_t bytes);

  /// Bounded park of the ft layer: waits on @p w until @p done(),
  /// waking every failure-detector period to fail fast on a revoked
  /// epoch, then to run @p check — which throws, or returns false to
  /// abandon the park (and park_bounded returns false).
  template <typename Done, typename Check>
  bool park_bounded(sim::Waitable& w, Done&& done, Check&& check);

  World* world_;
  sim::Process* proc_;
  verify::Verifier* vrf_;  ///< null unless WorldConfig::verify.enabled
  reliable::Channel* arq_; ///< null unless WorldConfig::reliability.enabled
  trace::TraceRecorder* trc_;  ///< null unless WorldConfig::trace is set
  ft::State* ft_;          ///< null unless the ft layer is active
  std::vector<int> group_; ///< world ranks; empty = world communicator
  net::RelayPolicy relay_policy_;  ///< multi-hop forwarding behavior
  int local_rank_;
  std::uint64_t epoch_ = 0;
  bool recovery_ = false;
  std::uint32_t coll_seq_ = 0;
};

}  // namespace emc::mpi
