// Mini-NAS LU: SSOR sweeps with a pipelined wavefront. Rows are
// partitioned across ranks; each sweep walks column blocks so the
// update front streams down (and back up) the rank pipeline in many
// small boundary messages — the latency-bound traffic of NAS LU.
#include <cmath>

#include "emc/mpi/reduce.hpp"
#include "emc/nas/detail.hpp"
#include "emc/nas/nas.hpp"

namespace emc::nas {

namespace {

using detail::charged_compute;

struct LuParams {
  std::size_t n;
  std::size_t col_blocks;
  int sweeps;
};

LuParams params_for(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {96, 4, 6};
    case ProblemClass::kW: return {160, 8, 8};
    case ProblemClass::kA: return {256, 8, 10};
  }
  return {96, 4, 6};
}

// Shifted operator: SSOR contracts fast enough that a few sweeps
// verifiably converge (the pure Laplacian would need hundreds).
constexpr double kDiag = 4.6;

constexpr int kTagFwd = 200;  // forward wavefront, +block
constexpr int kTagBwd = 300;  // backward wavefront, +block
constexpr double kOmega = 1.2;

}  // namespace

KernelResult run_lu(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls) {
  const LuParams params = params_for(cls);
  const std::size_t n = params.n;
  const auto range = detail::block_range(n, comm.size(), comm.rank());
  const std::size_t rows = range.count();
  const int r = comm.rank();
  const bool has_up = r > 0;
  const bool has_down = r + 1 < comm.size();

  // u with halo rows above and below; f is local.
  std::vector<double> u((rows + 2) * n, 0.0);
  std::vector<double> f(rows * n, 1.0);
  const auto row = [&](std::size_t i) { return u.data() + (i + 1) * n; };

  const double start_time = plain.now();
  double compute_seconds = 0.0;

  const auto local_residual_sq = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double* um = row(i) - n;
      const double* uc = row(i);
      const double* up = row(i) + n;
      for (std::size_t j = 0; j < n; ++j) {
        const double left = j > 0 ? uc[j - 1] : 0.0;
        const double right = j + 1 < n ? uc[j + 1] : 0.0;
        const double res =
            f[i * n + j] - (kDiag * uc[j] - um[j] - up[j] - left - right);
        sum += res * res;
      }
    }
    return sum;
  };

  // Refresh both halos (only needed for residual evaluation; the
  // sweeps carry boundary data inside the pipeline messages).
  const auto refresh_halos = [&] {
    std::vector<mpi::Request> requests;
    const auto view = [&](double* p) {
      return MutBytes(reinterpret_cast<std::uint8_t*>(p), n * sizeof(double));
    };
    if (has_up) {
      requests.push_back(comm.irecv(view(u.data()), r - 1, kTagFwd + 90));
      requests.push_back(
          comm.isend(BytesView(view(row(0))), r - 1, kTagBwd + 90));
    }
    if (has_down) {
      requests.push_back(
          comm.irecv(view(u.data() + (rows + 1) * n), r + 1, kTagBwd + 90));
      requests.push_back(
          comm.isend(BytesView(view(row(rows - 1))), r + 1, kTagFwd + 90));
    }
    comm.waitall(requests);
  };

  refresh_halos();
  double initial = 0.0;
  charged_compute(plain, compute_seconds,
                  [&] { initial = local_residual_sq(); });
  initial = std::sqrt(mpi::allreduce_sum(comm, initial));

  const std::size_t nb = params.col_blocks;
  const std::size_t bw = n / nb;  // block width (n chosen divisible)

  for (int sweep = 0; sweep < params.sweeps; ++sweep) {
    // Forward wavefront: top-left to bottom-right.
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t j0 = b * bw;
      const std::size_t j1 = b + 1 == nb ? n : j0 + bw;
      if (has_up) {
        detail::recv_span(
            comm, std::span<double>(u.data() + j0, j1 - j0), r - 1,
            kTagFwd + static_cast<int>(b));
      }
      charged_compute(plain, compute_seconds, [&] {
        for (std::size_t i = 0; i < rows; ++i) {
          const double* um = row(i) - n;
          double* uc = row(i);
          const double* up = row(i) + n;
          for (std::size_t j = j0; j < j1; ++j) {
            const double left = j > 0 ? uc[j - 1] : 0.0;
            const double right = j + 1 < n ? uc[j + 1] : 0.0;
            const double gs = (f[i * n + j] + um[j] + up[j] + left + right) / kDiag;
            uc[j] += kOmega * (gs - uc[j]);
          }
        }
      });
      if (has_down) {
        detail::send_span(
            comm,
            std::span<const double>(row(rows - 1) + j0, j1 - j0), r + 1,
            kTagFwd + static_cast<int>(b));
      }
    }
    // Backward wavefront: bottom-right to top-left.
    for (std::size_t bi = nb; bi-- > 0;) {
      const std::size_t j0 = bi * bw;
      const std::size_t j1 = bi + 1 == nb ? n : j0 + bw;
      if (has_down) {
        detail::recv_span(
            comm,
            std::span<double>(u.data() + (rows + 1) * n + j0, j1 - j0),
            r + 1, kTagBwd + static_cast<int>(bi));
      }
      charged_compute(plain, compute_seconds, [&] {
        for (std::size_t ii = rows; ii-- > 0;) {
          const double* um = row(ii) - n;
          double* uc = row(ii);
          const double* up = row(ii) + n;
          for (std::size_t j = j1; j-- > j0;) {
            const double left = j > 0 ? uc[j - 1] : 0.0;
            const double right = j + 1 < n ? uc[j + 1] : 0.0;
            const double gs = (f[ii * n + j] + um[j] + up[j] + left + right) / kDiag;
            uc[j] += kOmega * (gs - uc[j]);
          }
        }
      });
      if (has_up) {
        detail::send_span(comm,
                          std::span<const double>(row(0) + j0, j1 - j0),
                          r - 1, kTagBwd + static_cast<int>(bi));
      }
    }
  }

  refresh_halos();
  double final_sq = 0.0;
  charged_compute(plain, compute_seconds,
                  [&] { final_sq = local_residual_sq(); });
  const double final_norm = std::sqrt(mpi::allreduce_sum(comm, final_sq));

  const double elapsed = plain.now() - start_time;
  KernelResult result;
  result.name = "LU";
  result.residual = final_norm / (initial > 0 ? initial : 1.0);
  result.verified = std::isfinite(final_norm) && result.residual < 0.05;
  result.comm_fraction =
      elapsed > 0 ? std::max(0.0, 1.0 - compute_seconds / elapsed) : 0.0;
  return result;
}

}  // namespace emc::nas
