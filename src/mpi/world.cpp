#include "emc/mpi/world.hpp"

#include <limits>

#include "emc/mpi/comm.hpp"

namespace emc::mpi {

World::World(const WorldConfig& config)
    : config_(config),
      fabric_(config.cluster),
      engine_(config.cluster.total_ranks()),
      mailboxes_(static_cast<std::size_t>(config.cluster.total_ranks())) {
  if (config_.recv_timeout < 0.0) {
    throw std::invalid_argument(
        "WorldConfig: recv_timeout must be non-negative (0.0 = wait "
        "forever), got " + std::to_string(config_.recv_timeout));
  }
  config_.reliability.validate();
  config_.cluster.faults.validate_crashes(size());
  if (config_.ft.enabled || !config_.cluster.faults.crashes.empty()) {
    if (!(config_.ft.detect_timeout > 0.0)) {
      throw std::invalid_argument(
          "WorldConfig: ft.detect_timeout must be positive, got " +
          std::to_string(config_.ft.detect_timeout));
    }
    std::vector<double> crash_at(
        static_cast<std::size_t>(size()),
        std::numeric_limits<double>::infinity());
    for (const net::RankCrash& c : config_.cluster.faults.crashes) {
      crash_at[static_cast<std::size_t>(c.rank)] = c.at;
      engine_.set_kill_time(c.rank, c.at);
    }
    ft_ = std::make_unique<ft::State>(config_.ft, std::move(crash_at));
  }
  if (config_.verify.enabled) {
    verifier_ = std::make_unique<verify::Verifier>(config_.verify, engine_);
  }
  if (config_.reliability.enabled) {
    channel_ = std::make_unique<reliable::Channel>(config_.reliability,
                                                   fabric_);
  }
  if (config_.trace != nullptr) {
    if (config_.trace->num_ranks() != size()) {
      throw std::invalid_argument(
          "WorldConfig: trace recorder built for " +
          std::to_string(config_.trace->num_ranks()) +
          " ranks attached to a world of " + std::to_string(size()));
    }
  }
}

double World::run(const std::function<void(Comm&)>& body) {
  if (verifier_ != nullptr) verifier_->begin_run();
  if (config_.trace != nullptr) config_.trace->begin_run(engine_.now());
  const double end = engine_.run([this, &body](sim::Process& proc) {
    Comm comm(*this, proc);
    try {
      body(comm);
    } catch (const sim::Killed&) {
      // Scripted rank crash: the rank simply stops existing at its
      // kill time. Survivors detect and recover through the ft layer;
      // the dead rank's body unwinds and finishes normally here.
    }
    if (config_.trace != nullptr) {
      config_.trace->note_rank_done(proc.index(), proc.now());
    }
  });
  if (verifier_ != nullptr) {
    // Shutdown audit: anything still sitting in a mailbox was sent or
    // posted but never consumed by the program that just finished.
    // With the ft layer active, debris of a crash is expected, not a
    // bug: traffic on revoked epochs, recovery-internal messages
    // (high-bit epochs) abandoned once the decision board settled, and
    // anything sent by or addressed to a rank that died.
    const double end_time = end;
    for (int rank = 0; rank < size(); ++rank) {
      const detail::Mailbox& box = mailbox(rank);
      const bool owner_dead = ft_ != nullptr && ft_->crashed_by(rank, end_time);
      for (const auto& env : box.unexpected) {
        if (ft_ != nullptr &&
            (owner_dead || ft_->revoked(env->comm_epoch) ||
             (env->comm_epoch >> 63) != 0 ||
             ft_->crashed_by(env->world_src, end_time))) {
          continue;
        }
        verifier_->on_unmatched_envelope(
            rank, env->src, env->tag,
            env->rendezvous ? env->rndv_data.size() : env->payload.size());
      }
      for (const detail::PendingRecv* pr : box.posted) {
        if (ft_ != nullptr &&
            (owner_dead || ft_->revoked(pr->want_epoch) ||
             (pr->want_epoch >> 63) != 0)) {
          continue;
        }
        verifier_->on_unmatched_posted(rank, pr->want_src, pr->want_tag);
      }
    }
    verifier_->finish_run();
  }
  return end;
}

double run_world(const WorldConfig& config,
                 const std::function<void(Comm&)>& body) {
  World world(config);
  return world.run(body);
}

std::vector<PerturbedRun> run_perturbed(const WorldConfig& config,
                                        const std::function<void(Comm&)>& body,
                                        int runs, std::uint64_t seed) {
  std::vector<PerturbedRun> results;
  results.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    WorldConfig perturbed = config;
    perturbed.verify.enabled = true;
    // Run 0 keeps the baseline FIFO tie-break so the unperturbed
    // behaviour is always part of the report.
    perturbed.verify.schedule_salt =
        i == 0 ? 0 : verify::splitmix64(seed + static_cast<std::uint64_t>(i));

    PerturbedRun result;
    result.salt = perturbed.verify.schedule_salt;
    World world(perturbed);
    try {
      result.end_time = world.run(body);
    } catch (const std::exception& e) {
      result.failed = true;
      result.error = e.what();
    }
    result.diagnostics = world.verifier()->diagnostics();
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace emc::mpi
