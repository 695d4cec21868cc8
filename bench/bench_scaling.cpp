// Reproduces the paper's scalability sweep (§V, "Benchmark
// methodology"): the four cluster settings 4 ranks/4 nodes,
// 16 ranks/4 nodes, 16 ranks/8 nodes and 64 ranks/8 nodes, applied to
// a representative collective (alltoall, 16 KB) and a representative
// mini-NAS kernel (CG), baseline vs BoringSSL.
//
//   bench_scaling [--net=eth|ib] [--quick|--paper]
#include "bench_common.hpp"

#include "emc/nas/nas.hpp"

namespace {

using namespace emc;
using namespace emc::bench;

struct Setting {
  int nodes;
  int ranks_per_node;
  [[nodiscard]] std::string label() const {
    return std::to_string(nodes * ranks_per_node) + "r/" +
           std::to_string(nodes) + "n";
  }
};

MeasureResult alltoall_time(const net::NetworkProfile& profile,
                            const LibraryConfig& lib, const Setting& s,
                            const StabilityPolicy& policy,
                            const SaltSchedule& schedule) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = s.nodes;
  config.cluster.ranks_per_node = s.ranks_per_node;
  config.cluster.inter = profile;
  const int total = config.cluster.total_ranks();
  constexpr std::size_t kSize = 16 * 1024;
  constexpr int kIters = 3;

  return measure_world(
      config, policy, schedule,
      [&](mpi::Comm& plain) {
        std::unique_ptr<secure::SecureComm> sc;
        mpi::Communicator* comm = &plain;
        if (lib.encrypted()) {
          sc = std::make_unique<secure::SecureComm>(plain,
                                                    secure_config_for(lib));
          comm = sc.get();
        }
        Bytes sendbuf(kSize * static_cast<std::size_t>(total), 0x21);
        Bytes recvbuf(sendbuf.size());
        for (int i = 0; i < kIters; ++i) {
          comm->alltoall(sendbuf, recvbuf, kSize);
        }
      },
      [](double elapsed) { return elapsed / kIters; });
}

MeasureResult cg_time(const net::NetworkProfile& profile,
                      const LibraryConfig& lib, const Setting& s,
                      const StabilityPolicy& policy,
                      const SaltSchedule& schedule) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = s.nodes;
  config.cluster.ranks_per_node = s.ranks_per_node;
  config.cluster.inter = profile;

  return measure_world(
      config, policy, schedule,
      [&](mpi::Comm& plain) {
        std::unique_ptr<secure::SecureComm> sc;
        mpi::Communicator* comm = &plain;
        if (lib.encrypted()) {
          sc = std::make_unique<secure::SecureComm>(plain,
                                                    secure_config_for(lib));
          comm = sc.get();
        }
        (void)nas::run_cg(*comm, plain, nas::ProblemClass::kW);
      },
      [](double elapsed) { return elapsed; });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  args.allow_only(with_common_flags({"net"}));
  calibrate_cpu_scale(args);
  const net::NetworkProfile profile = net_from(args);
  const SaltSchedule schedule = schedule_from(args);
  StabilityPolicy policy = policy_from(args);
  if (!args.has("paper")) {
    policy.min_runs = 3;
    policy.max_runs = 10;
    policy.hard_cap = 12;
  }

  print_header("Scalability sweep on " + profile.name +
                   " (paper's 4r/4n, 16r/4n, 16r/8n, 64r/8n settings)",
               args);

  const std::vector<Setting> settings = {
      {4, 1}, {4, 4}, {8, 2}, {8, 8}};
  const LibraryConfig baseline{"Unencrypted", ""};
  const LibraryConfig boring{"BoringSSL", "boringssl-sim"};

  std::vector<std::string> columns = {"setting", "alltoall-16KB base (us)",
                                      "alltoall-16KB enc (us)",
                                      "a2a overhead", "CG-W base (s)",
                                      "CG-W enc (s)", "CG overhead"};
  Table table("Scaling of encryption overhead with concurrency", columns);

  const std::string net_tag = profile.name == "ethernet-10g" ? "eth" : "ib";
  Trajectory traj("scaling");
  traj.set_settings("net=" + net_tag + " policy=" + policy_name(args) +
                    " salts=" + std::to_string(schedule.salts) +
                    " seed=" + std::to_string(schedule.seed));

  for (const Setting& s : settings) {
    const MeasureResult a_base =
        alltoall_time(profile, baseline, s, policy, schedule);
    const MeasureResult a_enc =
        alltoall_time(profile, boring, s, policy, schedule);
    const MeasureResult c_base = cg_time(profile, baseline, s, policy,
                                         schedule);
    const MeasureResult c_enc = cg_time(profile, boring, s, policy, schedule);
    table.add_row(
        {s.label(), fmt_us(a_base.mean), fmt_us(a_enc.mean),
         fmt_percent(overhead_percent(a_base.mean, a_enc.mean)),
         fmt_double(c_base.mean, 4), fmt_double(c_enc.mean, 4),
         fmt_percent(overhead_percent(c_base.mean, c_enc.mean))});
    table.attach_stats(1, a_base, 1e6);
    table.attach_stats(2, a_enc, 1e6);
    table.attach_stats(4, c_base);
    table.attach_stats(5, c_enc);
    traj.add(net_tag + "/" + s.label() + "/alltoall-16KB/base", "time", "us",
             /*higher_is_better=*/false, scale_result(a_base, 1e6));
    traj.add(net_tag + "/" + s.label() + "/alltoall-16KB/enc", "time", "us",
             /*higher_is_better=*/false, scale_result(a_enc, 1e6));
    traj.add(net_tag + "/" + s.label() + "/CG-W/base", "time", "s",
             /*higher_is_better=*/false, c_base);
    traj.add(net_tag + "/" + s.label() + "/CG-W/enc", "time", "s",
             /*higher_is_better=*/false, c_enc);
  }

  table.print(std::cout);
  const std::string csv = "scaling_" + net_tag + ".csv";
  if (table.save_csv(csv)) std::cout << "csv: " << csv << "\n";
  save_trajectory(traj);
  return 0;
}
