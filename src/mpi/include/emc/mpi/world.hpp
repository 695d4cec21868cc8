// The simulated MPI world: owns the discrete-event engine, the network
// fabric, and the per-rank mailboxes; `run_world` is the entry point
// that spawns one simulated process per rank.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "emc/common/bytes.hpp"
#include "emc/ft/state.hpp"
#include "emc/mpi/types.hpp"
#include "emc/netsim/fabric.hpp"
#include "emc/reliable/reliable.hpp"
#include "emc/sim/engine.hpp"
#include "emc/trace/trace.hpp"
#include "emc/verify/verifier.hpp"

namespace emc::mpi {

class Comm;

namespace detail {

/// Sender-owned rendezvous completion channel. The receiver fills in
/// `sender_complete` and notifies `done`; the envelope merely points
/// here so receiver-side teardown can never dangle the sender.
struct RndvHandshake {
  sim::Waitable done;
  bool completed = false;
  double sender_complete = 0.0;  ///< virtual time the send buffer is free
};

/// One in-flight message (eager payload or rendezvous announcement).
struct Envelope {
  int src = 0;               ///< sender's rank *within its communicator*
  int tag = 0;
  /// Sender's world rank: the coordinate used for fabric paths, fault
  /// injection, and the fault-tolerance layer's crash checks. Equal to
  /// `src` on the world communicator (epoch 0).
  int world_src = 0;
  /// Epoch of the sending communicator. Receives only match envelopes
  /// of their own epoch, so a revoked epoch's stragglers can never
  /// cross into the shrunken communicator built during recovery.
  std::uint64_t comm_epoch = 0;
  std::uint64_t seq = 0;     ///< global send order (deterministic matching)
  double arrival = 0.0;      ///< eager: payload arrival; rndv: RTS arrival
  bool rendezvous = false;
  /// Eager: the payload. Rendezvous: empty, or the frame the sender
  /// handed over (Comm::send_frame), which rndv_data then views.
  Bytes payload;
  BytesView rndv_data{};     ///< rndv: the bytes the receiver pulls
  RndvHandshake* handshake = nullptr;  ///< rndv only
  // Reliability-layer bookkeeping (only set when the ARQ channel is
  // active). With reliability on, `payload` stays clean in the mailbox
  // (the sender's retransmit buffer); `damage` is applied at delivery
  // so the link layer can redeliver the clean copy on an end-to-end
  // NACK. A poisoned envelope is a dead-link tombstone: receiving it
  // raises reliable::PeerUnreachable instead of blocking forever.
  std::uint64_t arq_seq = 0;
  std::uint32_t arq_transmissions = 0;  ///< retry budget spent in flight
  net::FaultDecision damage{};
  bool poisoned = false;
  /// NIC queue delay of the (last) transmission that produced this
  /// envelope; lets the receiver split its arrival sleep into
  /// nic_queue + wire trace spans.
  double nic_queue = 0.0;
  /// Virtual seconds the payload spent beyond the first hop of a
  /// routed path (relay store-and-forward + per-hop surcharge); feeds
  /// the receiver's relay_forward trace span. 0 on direct links.
  double relay_delay = 0.0;
};

/// A posted (not yet matched) receive.
struct PendingRecv {
  int want_src = kAnySource;
  int want_tag = kAnyTag;
  std::uint64_t want_epoch = 0;  ///< posting communicator's epoch
  MutBytes buf{};
  /// Frame receive (Comm::recv_frame): the payload lands here instead
  /// of in `buf`, taken by move when the envelope owns it, and may be
  /// at most `frame_capacity` bytes.
  Bytes* frame = nullptr;
  std::size_t frame_capacity = 0;
  std::unique_ptr<Envelope> matched;  ///< set when an envelope binds

  [[nodiscard]] std::size_t capacity() const noexcept {
    return frame != nullptr ? frame_capacity : buf.size();
  }
  sim::Waitable cond;
};

/// Per-rank matching queues. Only ever touched by the currently
/// running simulated process (engine serialization), so lock-free.
struct Mailbox {
  std::deque<std::unique_ptr<Envelope>> unexpected;
  std::deque<PendingRecv*> posted;
};

}  // namespace detail

/// Configuration for one simulated world.
struct WorldConfig {
  net::ClusterConfig cluster;

  /// Delivery timeout for blocking/waited receives, in virtual
  /// seconds; a receive with no matching message after this long
  /// throws MpiError instead of blocking forever. 0.0 means wait
  /// forever; negative values are rejected at World construction.
  /// Required for progress when the fault plan drops messages and the
  /// reliability layer is off.
  double recv_timeout = 0.0;

  /// Simulated-CPU speed relative to the build host: every host
  /// measurement Comm::charge bills (measured crypto, kernel compute)
  /// is multiplied by this before entering virtual time. 1.0 = "the cluster CPUs are as
  /// fast as this host"; benchmarks can calibrate it so the simulated
  /// nodes match the paper's Xeon E5-2620 v4.
  double cpu_scale = 1.0;

  /// Opt-in runtime correctness analysis (deadlock cycles, request
  /// lifecycle, collective call order, unmatched messages). Disabled
  /// by default: no verifier is constructed and the hot paths skip
  /// every hook. Verification never advances virtual time, so an
  /// enabled run replays the disabled one exactly.
  verify::Config verify;

  /// Opt-in ARQ reliability layer between the communicators and the
  /// fabric (see docs/RESILIENCE.md). Disabled by default: no channel
  /// is constructed and every wire path replays bit-exact.
  reliable::Config reliability;

  /// ULFM-style fault tolerance (revoke/agree/shrink — see
  /// docs/RESILIENCE.md). The layer activates when this is enabled or
  /// when the fault plan scripts rank crashes; otherwise no ft::State
  /// is built and every hot path skips the hooks.
  ft::Config ft;

  /// Opt-in virtual-time tracing (see docs/TRACING.md). When set, the
  /// recorder must be constructed with this world's rank count, and
  /// every layer records attribution spans into it. Null (the default) keeps every
  /// instrumentation site on the single-branch fast path — no recorder
  /// is allocated and traced state is never touched. Shared so copies
  /// of a config (e.g. benchmark sweeps) observe one recorder.
  std::shared_ptr<trace::TraceRecorder> trace;
};

/// Shared state of a running world. Created by run_world; exposed so
/// benchmarks can build Comm objects for sub-experiments.
class World {
 public:
  explicit World(const WorldConfig& config);

  [[nodiscard]] int size() const noexcept { return fabric_.config().total_ranks(); }
  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  [[nodiscard]] detail::Mailbox& mailbox(int rank) {
    return mailboxes_.at(static_cast<std::size_t>(rank));
  }

  [[nodiscard]] std::uint64_t next_seq() noexcept { return seq_++; }

  /// The correctness verifier, or null when config.verify.enabled is
  /// false. Valid for the lifetime of the World.
  [[nodiscard]] verify::Verifier* verifier() noexcept {
    return verifier_.get();
  }

  /// The ARQ reliability channel, or null when config.reliability is
  /// disabled. Valid for the lifetime of the World.
  [[nodiscard]] reliable::Channel* reliability() noexcept {
    return channel_.get();
  }

  /// The attached trace recorder, or null when tracing is off.
  [[nodiscard]] trace::TraceRecorder* trace() noexcept {
    return config_.trace.get();
  }

  /// Fault-tolerance state (failure detector, revocation records,
  /// agreement decision board), or null when the ft layer is off.
  [[nodiscard]] ft::State* ft_state() noexcept { return ft_.get(); }

  /// Runs @p body once per rank inside the simulation; returns the
  /// virtual time at which the last rank finished. May be called
  /// repeatedly; virtual time accumulates. With verification enabled,
  /// the unmatched-message audit runs after every successful run and
  /// (in fail-fast mode) pending error diagnostics are thrown as
  /// verify::VerifyError.
  double run(const std::function<void(Comm&)>& body);

 private:
  WorldConfig config_;
  net::Fabric fabric_;
  sim::Engine engine_;
  std::vector<detail::Mailbox> mailboxes_;
  std::uint64_t seq_ = 0;
  std::unique_ptr<verify::Verifier> verifier_;  ///< after engine_ (attaches)
  std::unique_ptr<reliable::Channel> channel_;  ///< after fabric_ (attaches)
  std::unique_ptr<ft::State> ft_;               ///< null when ft is off
};

/// One-shot convenience: build a world and run @p body on every rank.
/// Returns the final virtual time (seconds).
double run_world(const WorldConfig& config,
                 const std::function<void(Comm&)>& body);

/// Outcome of one schedule-perturbation run (see run_perturbed).
struct PerturbedRun {
  std::uint64_t salt = 0;    ///< engine tie-break salt of this run
  bool failed = false;       ///< an exception escaped World::run
  std::string error;         ///< its what() when failed
  double end_time = 0.0;     ///< final virtual time (0 when failed)
  std::vector<verify::Diagnostic> diagnostics;
};

/// Schedule-perturbation mode: runs @p body under @p runs different
/// engine tie-break orders (run 0 uses the baseline FIFO order, later
/// runs use salts derived from @p seed), each in a fresh fully
/// verified World, and reports per-run diagnostics. Deterministic for
/// a fixed (config, seed): wildcard-receive matches or collective
/// orderings that only hold under one tie-break order show up as
/// failures or diagnostics in some perturbed run.
std::vector<PerturbedRun> run_perturbed(const WorldConfig& config,
                                        const std::function<void(Comm&)>& body,
                                        int runs, std::uint64_t seed = 1);

}  // namespace emc::mpi
