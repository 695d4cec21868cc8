// Reproduces Table IV (Ethernet) and Table VIII (InfiniBand): mini-NAS
// kernel runtimes under the unencrypted baseline and each reported
// cryptographic library, with the total-time-based average overhead
// (the paper's footnote-2 aggregation: totals first, ratio second —
// never an average of per-benchmark ratios).
//
//   bench_nas [--net=eth|ib] [--class=S|W|A] [--nodes=8]
//             [--ranks-per-node=8] [--quick|--paper]
//             [--trace=<file.json>]
//
// With --trace, one attribution run of the CG kernel (class S,
// unencrypted vs BoringSSL) writes Chrome trace JSON plus
// results/attribution_nas_<net>.csv. Unlike the p2p benches, NAS
// compute is charged from measured host time, so traced NAS timelines
// vary run to run in the compute spans (see docs/TRACING.md).
#include "bench_common.hpp"

#include "emc/nas/nas.hpp"

namespace {

using namespace emc;
using namespace emc::bench;

MeasureResult kernel_time(const net::NetworkProfile& profile,
                          const LibraryConfig& lib, nas::Kernel kernel,
                          nas::ProblemClass cls, int nodes, int rpn,
                          const StabilityPolicy& policy,
                          const SaltSchedule& schedule, bool& verified) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = nodes;
  config.cluster.ranks_per_node = rpn;
  config.cluster.inter = profile;

  bool all_verified = true;
  const MeasureResult result = measure_world(
      config, policy, schedule,
      [&](mpi::Comm& plain) {
        std::unique_ptr<secure::SecureComm> secure_comm;
        mpi::Communicator* comm = &plain;
        if (lib.encrypted()) {
          secure_comm = std::make_unique<secure::SecureComm>(
              plain, secure_config_for(lib));
          comm = secure_comm.get();
        }
        const nas::KernelResult r =
            nas::run_kernel(kernel, *comm, plain, cls);
        if (!r.verified) all_verified = false;
      },
      [](double elapsed) { return elapsed; });
  verified = all_verified;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  args.allow_only(
      with_common_flags({"net", "class", "nodes", "ranks-per-node", "trace"}));
  calibrate_cpu_scale(args);
  const net::NetworkProfile profile = net_from(args);
  const SaltSchedule schedule = schedule_from(args);
  const bool eth = profile.name == "ethernet-10g";
  const nas::ProblemClass cls = nas::class_by_name(args.get("class", "W"));
  const int nodes = static_cast<int>(args.get_int("nodes", 8));
  const int rpn = static_cast<int>(args.get_int("ranks-per-node", 8));

  // NAS runs are heavyweight; the default stopping rule uses fewer
  // repetitions (virtual network time is exact; only the measured
  // crypto/compute time carries noise).
  StabilityPolicy policy = policy_from(args);
  if (!args.has("paper")) {
    policy.min_runs = std::min<std::size_t>(policy.min_runs, 3);
    policy.max_runs = std::min<std::size_t>(policy.max_runs, 10);
    policy.hard_cap = std::min<std::size_t>(policy.hard_cap, 12);
  }

  print_header(std::string("Mini-NAS class ") + nas::class_name(cls) +
                   ", " + std::to_string(nodes * rpn) + " ranks / " +
                   std::to_string(nodes) + " nodes, on " + profile.name +
                   (eth ? " (paper Table IV)" : " (paper Table VIII)"),
               args);

  const auto kernels = nas::all_kernels();
  std::vector<std::string> columns = {"library"};
  for (nas::Kernel k : kernels) columns.push_back(nas::kernel_name(k));
  columns.push_back("total(s)");
  columns.push_back("overhead");

  Table table("Mini-NAS runtimes (virtual seconds)", columns);
  const auto libs = paper_rows(/*optimized_cryptopp=*/!eth);
  const std::string net_tag = eth ? "eth" : "ib";
  double baseline_total = 0.0;
  bool everything_verified = true;

  Trajectory traj("nas");
  traj.set_settings("net=" + net_tag + " policy=" + policy_name(args) +
                    " class=" + nas::class_name(cls) +
                    " nodes=" + std::to_string(nodes) +
                    " rpn=" + std::to_string(rpn) +
                    " salts=" + std::to_string(schedule.salts) +
                    " seed=" + std::to_string(schedule.seed));

  for (const LibraryConfig& lib : libs) {
    std::vector<std::string> row = {lib.label};
    std::vector<MeasureResult> measures;
    double total = 0.0;
    for (nas::Kernel kernel : kernels) {
      bool verified = false;
      const MeasureResult m = kernel_time(profile, lib, kernel, cls, nodes,
                                          rpn, policy, schedule, verified);
      everything_verified = everything_verified && verified;
      total += m.mean;
      row.push_back(fmt_double(m.mean, 3) + (verified ? "" : "!"));
      measures.push_back(m);
      traj.add(net_tag + "/" + lib.label + "/" + nas::kernel_name(kernel),
               "time", "s", /*higher_is_better=*/false, m);
    }
    if (!lib.encrypted()) baseline_total = total;
    row.push_back(fmt_double(total, 3));
    row.push_back(lib.encrypted()
                      ? fmt_percent(overhead_percent(baseline_total, total))
                      : "-");
    traj.add_scalar(net_tag + "/" + lib.label + "/total", "time", "s",
                    /*higher_is_better=*/false, total);
    table.add_row(std::move(row));
    for (std::size_t i = 0; i < measures.size(); ++i) {
      table.attach_stats(i + 1, measures[i]);
    }
  }

  table.print(std::cout);
  std::cout << (everything_verified
                    ? "all kernels verified\n"
                    : "WARNING: some kernels failed verification (!)\n");
  const std::string csv = "nas_" + net_tag + ".csv";
  if (const auto saved = table.save_csv(csv)) {
    std::cout << "csv: " << *saved << "\n";
  }

  if (!args.trace_path().empty()) {
    std::vector<TraceRun> runs;
    const LibraryConfig rows[] = {{"Unencrypted", ""},
                                  {"BoringSSL", "boringssl-sim"}};
    for (const LibraryConfig& lib : rows) {
      TraceRun run;
      run.label = lib.label + " CG-S";
      run.world.cluster.num_nodes = nodes;
      run.world.cluster.ranks_per_node = rpn;
      run.world.cluster.inter = profile;
      secure::SecureConfig scfg;
      const bool encrypted = lib.encrypted();
      if (encrypted) {
        scfg = secure_config_for(lib);
        scfg.nonce_mode = secure::NonceMode::kCounter;
        scfg.cost_model = nominal_cost_model(lib.provider);
      }
      run.body = [encrypted, scfg](mpi::Comm& plain) {
        std::unique_ptr<secure::SecureComm> secure_comm;
        mpi::Communicator* comm = &plain;
        if (encrypted) {
          secure_comm = std::make_unique<secure::SecureComm>(plain, scfg);
          comm = secure_comm.get();
        }
        (void)nas::run_kernel(nas::Kernel::kCG, *comm, plain,
                              nas::ProblemClass::kS);
      };
      runs.push_back(std::move(run));
    }
    emit_attribution_traces(args, "nas_" + net_tag, std::move(runs));
  }
  save_trajectory(traj);
  return everything_verified ? 0 : 1;
}
