// Mini-NAS MG: V-cycle multigrid for the 2-D Poisson problem,
// 1-D row partition. Every smoothing step at every level exchanges
// halo rows, so coarse levels have the high surface-to-volume message
// mix that characterizes NAS MG.
#include <cmath>
#include <stdexcept>

#include "emc/mpi/reduce.hpp"
#include "emc/nas/detail.hpp"
#include "emc/nas/nas.hpp"

namespace emc::nas {

namespace {

using detail::charged_compute;

struct MgParams {
  std::size_t n;  // finest grid n x n
  int levels;     // grid levels (0 = finest)
  int cycles;
};

MgParams params_for(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {128, 3, 3};
    case ProblemClass::kW: return {256, 3, 4};
    case ProblemClass::kA: return {256, 3, 6};
  }
  return {128, 3, 3};
}

// Shifted operator -nabla^2 + sigma/h^2: the shift must scale by 4
// per coarsening level to represent the same continuum operator, and
// it keeps every level's smoother strongly contracting.
constexpr double kSigma = 0.6;

constexpr int kTagUp = 111;
constexpr int kTagDown = 112;

/// One grid level: local rows plus two halo rows.
struct Level {
  std::size_t n = 0;     // global columns
  std::size_t rows = 0;  // local rows
  double diag = 4.0 + kSigma;  // 4 + sigma * 4^level
  std::vector<double> u;  // solution, (rows+2)*n
  std::vector<double> f;  // right-hand side / restricted residual
  std::vector<double> scratch;

  void resize(std::size_t n_, std::size_t rows_) {
    n = n_;
    rows = rows_;
    u.assign((rows + 2) * n, 0.0);
    f.assign(rows * n, 0.0);
    scratch.assign(rows * n, 0.0);
  }
  [[nodiscard]] double* row(std::size_t i) { return u.data() + (i + 1) * n; }
};

void exchange_halo(mpi::Communicator& comm, Level& lvl, int tag_salt) {
  const int r = comm.rank();
  const auto bytes = lvl.n * sizeof(double);
  std::vector<mpi::Request> requests;
  const auto view = [bytes](double* p) {
    return MutBytes(reinterpret_cast<std::uint8_t*>(p), bytes);
  };
  if (r > 0) {
    requests.push_back(
        comm.irecv(view(lvl.u.data()), r - 1, kTagDown + tag_salt));
    requests.push_back(
        comm.isend(BytesView(view(lvl.row(0))), r - 1, kTagUp + tag_salt));
  }
  if (r + 1 < comm.size()) {
    requests.push_back(comm.irecv(view(lvl.u.data() + (lvl.rows + 1) * lvl.n),
                                  r + 1, kTagUp + tag_salt));
    requests.push_back(comm.isend(BytesView(view(lvl.row(lvl.rows - 1))),
                                  r + 1, kTagDown + tag_salt));
  }
  comm.waitall(requests);
}

/// Weighted-Jacobi smoothing sweeps (halo exchange before each sweep).
void smooth(mpi::Communicator& comm, mpi::Comm& plain,
            double& compute_seconds, Level& lvl, int sweeps, int tag_salt) {
  constexpr double kOmega = 0.8;
  for (int s = 0; s < sweeps; ++s) {
    exchange_halo(comm, lvl, tag_salt);
    charged_compute(plain, compute_seconds, [&] {
      const std::size_t n = lvl.n;
      for (std::size_t i = 0; i < lvl.rows; ++i) {
        const double* um = lvl.row(i) - n;
        double* uc = lvl.row(i);
        const double* up = lvl.row(i) + n;
        const double* fi = lvl.f.data() + i * n;
        double* out = lvl.scratch.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) {
          const double left = j > 0 ? uc[j - 1] : 0.0;
          const double right = j + 1 < n ? uc[j + 1] : 0.0;
          const double gs = (fi[j] + um[j] + up[j] + left + right) / lvl.diag;
          out[j] = (1.0 - kOmega) * uc[j] + kOmega * gs;
        }
      }
      for (std::size_t i = 0; i < lvl.rows; ++i) {
        std::copy(lvl.scratch.begin() + static_cast<std::ptrdiff_t>(i * n),
                  lvl.scratch.begin() + static_cast<std::ptrdiff_t>((i + 1) * n),
                  lvl.row(i));
      }
    });
  }
}

/// residual = f - A u into @p out (rows*n), after a halo exchange.
void residual(mpi::Communicator& comm, mpi::Comm& plain,
              double& compute_seconds, Level& lvl, std::vector<double>& out,
              int tag_salt) {
  exchange_halo(comm, lvl, tag_salt);
  charged_compute(plain, compute_seconds, [&] {
    const std::size_t n = lvl.n;
    out.assign(lvl.rows * n, 0.0);
    for (std::size_t i = 0; i < lvl.rows; ++i) {
      const double* um = lvl.row(i) - n;
      const double* uc = lvl.row(i);
      const double* up = lvl.row(i) + n;
      const double* fi = lvl.f.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const double left = j > 0 ? uc[j - 1] : 0.0;
        const double right = j + 1 < n ? uc[j + 1] : 0.0;
        out[i * n + j] =
            fi[j] - (lvl.diag * uc[j] - um[j] - up[j] - left - right);
      }
    }
  });
}

}  // namespace

KernelResult run_mg(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls) {
  const MgParams params = params_for(cls);
  const auto p = static_cast<std::size_t>(comm.size());
  const std::size_t rows0 = params.n / p;
  if (params.n % p != 0 || rows0 < (1u << (params.levels - 1))) {
    throw std::invalid_argument(
        "mini-NAS MG needs n divisible by ranks with >= 2^(levels-1) "
        "rows per rank");
  }

  std::vector<Level> levels(static_cast<std::size_t>(params.levels));
  double level_shift = kSigma;
  for (int l = 0; l < params.levels; ++l) {
    levels[static_cast<std::size_t>(l)].resize(params.n >> l, rows0 >> l);
    levels[static_cast<std::size_t>(l)].diag = 4.0 + level_shift;
    level_shift *= 4.0;  // (2h)^2 / h^2
  }

  const double start_time = plain.now();
  double compute_seconds = 0.0;

  // RHS: a smooth bump, deterministic and rank-consistent.
  charged_compute(plain, compute_seconds, [&] {
    Level& fine = levels[0];
    const auto range =
        detail::block_range(params.n, comm.size(), comm.rank());
    for (std::size_t i = 0; i < fine.rows; ++i) {
      const double y =
          static_cast<double>(range.begin + i) / static_cast<double>(params.n);
      for (std::size_t j = 0; j < fine.n; ++j) {
        const double x = static_cast<double>(j) / static_cast<double>(params.n);
        fine.f[i * fine.n + j] = std::sin(3.1 * x) * std::cos(2.7 * y);
      }
    }
  });

  std::vector<double> res;
  const auto norm_of = [&](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x * x;
    return std::sqrt(mpi::allreduce_sum(comm, sum));
  };

  residual(comm, plain, compute_seconds, levels[0], res, 0);
  const double initial_norm = norm_of(res);

  for (int cycle = 0; cycle < params.cycles; ++cycle) {
    // Descend: smooth, compute residual, restrict to the coarse RHS.
    for (int l = 0; l + 1 < params.levels; ++l) {
      Level& fine = levels[static_cast<std::size_t>(l)];
      Level& coarse = levels[static_cast<std::size_t>(l + 1)];
      smooth(comm, plain, compute_seconds, fine, 2, l * 8);
      residual(comm, plain, compute_seconds, fine, res, l * 8);
      charged_compute(plain, compute_seconds, [&] {
        // Injection restriction (even rows/cols); partition alignment
        // is guaranteed by the rows-per-rank divisibility check.
        for (std::size_t i = 0; i < coarse.rows; ++i) {
          for (std::size_t j = 0; j < coarse.n; ++j) {
            coarse.f[i * coarse.n + j] = 4.0 * res[(2 * i) * fine.n + 2 * j];
          }
        }
        std::fill(coarse.u.begin(), coarse.u.end(), 0.0);
      });
    }
    // Coarsest: heavy smoothing stands in for a direct solve.
    smooth(comm, plain, compute_seconds,
           levels[static_cast<std::size_t>(params.levels - 1)], 12,
           (params.levels - 1) * 8);
    // Ascend: prolongate the correction and post-smooth.
    for (int l = params.levels - 2; l >= 0; --l) {
      Level& fine = levels[static_cast<std::size_t>(l)];
      Level& coarse = levels[static_cast<std::size_t>(l + 1)];
      charged_compute(plain, compute_seconds, [&] {
        for (std::size_t i = 0; i < coarse.rows; ++i) {
          for (std::size_t j = 0; j < coarse.n; ++j) {
            const double c = coarse.row(i)[j];
            double* f0 = fine.row(2 * i);
            double* f1 = fine.row(2 * i + 1);
            f0[2 * j] += c;
            if (2 * j + 1 < fine.n) f0[2 * j + 1] += c;
            f1[2 * j] += c;
            if (2 * j + 1 < fine.n) f1[2 * j + 1] += c;
          }
        }
      });
      smooth(comm, plain, compute_seconds, fine, 2, l * 8);
    }
  }

  residual(comm, plain, compute_seconds, levels[0], res, 0);
  const double final_norm = norm_of(res);

  const double elapsed = plain.now() - start_time;
  KernelResult result;
  result.name = "MG";
  result.residual = final_norm / (initial_norm > 0 ? initial_norm : 1.0);
  result.verified = std::isfinite(final_norm) && result.residual < 0.05;
  result.comm_fraction =
      elapsed > 0 ? std::max(0.0, 1.0 - compute_seconds / elapsed) : 0.0;
  return result;
}

}  // namespace emc::nas
