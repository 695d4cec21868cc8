// Mini-NAS BT and SP: alternating-direction-implicit line solvers on a
// 2-D grid, rows partitioned across ranks. The x-direction Thomas
// solves are local; the y-direction solves run a distributed Thomas
// pipeline (forward-elimination coefficients stream down the ranks,
// back-substitution values stream back up) — the pipelined line-solve
// pattern of NAS BT/SP. BT carries three coupled components per cell
// (heavier compute), SP one (higher comm/compute ratio).
#include <cmath>

#include "emc/mpi/reduce.hpp"
#include "emc/nas/detail.hpp"
#include "emc/nas/nas.hpp"

namespace emc::nas {

namespace {

using detail::charged_compute;

struct AdiParams {
  std::size_t n;
  int steps;
};

AdiParams params_for(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {96, 5};
    case ProblemClass::kW: return {160, 6};
    case ProblemClass::kA: return {256, 8};
  }
  return {96, 5};
}

// Diagonal shift: b = 2 + sigma. Sigma > 1 makes the implicit
// operator's inverse a strict contraction (min eigenvalue of the
// tridiagonal is sigma), so the ADI field decays monotonically.
constexpr double kSigma = 1.2;
constexpr int kTagElim = 400;    // forward elimination, downstream
constexpr int kTagBack = 401;    // back substitution, upstream
constexpr int kTagHalo = 402;

/// Tridiagonal system constants for (-1, 2+sigma, -1).
constexpr double kA = -1.0;
constexpr double kB = 2.0 + kSigma;
constexpr double kC = -1.0;

struct AdiState {
  std::size_t n = 0;
  std::size_t rows = 0;
  int ncomp = 1;
  std::vector<double> u;  // u[comp][row][col], no halos

  [[nodiscard]] double* row(int comp, std::size_t i) {
    return u.data() + (static_cast<std::size_t>(comp) * rows + i) * n;
  }
  [[nodiscard]] const double* row(int comp, std::size_t i) const {
    return u.data() + (static_cast<std::size_t>(comp) * rows + i) * n;
  }
};

/// Local Thomas solve along x for every row and component, in place.
void solve_x(AdiState& s, std::vector<double>& cp, std::vector<double>& dp) {
  const std::size_t n = s.n;
  for (int comp = 0; comp < s.ncomp; ++comp) {
    for (std::size_t i = 0; i < s.rows; ++i) {
      double* d = s.row(comp, i);
      cp[0] = kC / kB;
      dp[0] = d[0] / kB;
      for (std::size_t j = 1; j < n; ++j) {
        const double denom = kB - kA * cp[j - 1];
        cp[j] = kC / denom;
        dp[j] = (d[j] - kA * dp[j - 1]) / denom;
      }
      d[n - 1] = dp[n - 1];
      for (std::size_t j = n - 1; j-- > 0;) d[j] = dp[j] - cp[j] * d[j + 1];
    }
  }
}

}  // namespace

static KernelResult run_adi(const char* name, int ncomp,
                            mpi::Communicator& comm, mpi::Comm& plain,
                            ProblemClass cls) {
  const AdiParams params = params_for(cls);
  const std::size_t n = params.n;
  const auto range = detail::block_range(n, comm.size(), comm.rank());
  const int r = comm.rank();
  const bool has_up = r > 0;
  const bool has_down = r + 1 < comm.size();

  AdiState s;
  s.n = n;
  s.rows = range.count();
  s.ncomp = ncomp;
  s.u.assign(static_cast<std::size_t>(ncomp) * s.rows * n, 0.0);

  const double start_time = plain.now();
  double compute_seconds = 0.0;

  charged_compute(plain, compute_seconds, [&] {
    for (int comp = 0; comp < ncomp; ++comp) {
      for (std::size_t i = 0; i < s.rows; ++i) {
        const double y =
            static_cast<double>(range.begin + i) / static_cast<double>(n);
        double* row = s.row(comp, i);
        for (std::size_t j = 0; j < n; ++j) {
          const double x = static_cast<double>(j) / static_cast<double>(n);
          row[j] = std::exp(-8.0 * ((x - 0.5) * (x - 0.5) +
                                    (y - 0.5) * (y - 0.5))) *
                   (1.0 + 0.1 * comp);
        }
      }
    }
  });

  const auto norm_of = [&] {
    double sum = 0.0;
    for (double v : s.u) sum += v * v;
    return std::sqrt(mpi::allreduce_sum(comm, sum));
  };
  const double initial_norm = norm_of();

  std::vector<double> cp(n);
  std::vector<double> dp(n);
  const std::size_t lanes = static_cast<std::size_t>(ncomp) * n;
  std::vector<double> col_cp(lanes * s.rows);
  std::vector<double> col_dp(lanes * s.rows);
  std::vector<double> boundary(2 * lanes);
  std::vector<double> xedge(lanes);
  std::vector<double> rhs_snapshot;  // RHS of the final y-solve

  for (int step = 0; step < params.steps; ++step) {
    const bool last_step = step + 1 == params.steps;
    charged_compute(plain, compute_seconds, [&] {
      solve_x(s, cp, dp);
      if (last_step) rhs_snapshot = s.u;
    });

    // --- y-direction distributed Thomas ------------------------------
    if (has_up) {
      detail::recv_span(comm, std::span<double>(boundary), r - 1, kTagElim);
    }
    charged_compute(plain, compute_seconds, [&] {
      for (int comp = 0; comp < ncomp; ++comp) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::size_t lane = static_cast<std::size_t>(comp) * n + j;
          double prev_cp = has_up ? boundary[lane] : 0.0;
          double prev_dp = has_up ? boundary[lanes + lane] : 0.0;
          for (std::size_t i = 0; i < s.rows; ++i) {
            const bool first_global = !has_up && i == 0;
            const double a = first_global ? 0.0 : kA;
            const double denom = kB - a * prev_cp;
            const double cpi = kC / denom;
            const double dpi = (s.row(comp, i)[j] - a * prev_dp) / denom;
            col_cp[i * lanes + lane] = cpi;
            col_dp[i * lanes + lane] = dpi;
            prev_cp = cpi;
            prev_dp = dpi;
          }
          boundary[lane] = prev_cp;
          boundary[lanes + lane] = prev_dp;
        }
      }
    });
    if (has_down) {
      detail::send_span(comm, std::span<const double>(boundary), r + 1,
                        kTagElim);
      detail::recv_span(comm, std::span<double>(xedge), r + 1, kTagBack);
    }
    charged_compute(plain, compute_seconds, [&] {
      for (int comp = 0; comp < ncomp; ++comp) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::size_t lane = static_cast<std::size_t>(comp) * n + j;
          double next_x = has_down ? xedge[lane] : 0.0;
          for (std::size_t i = s.rows; i-- > 0;) {
            const bool last_global = !has_down && i + 1 == s.rows;
            const double x = last_global
                                 ? col_dp[i * lanes + lane]
                                 : col_dp[i * lanes + lane] -
                                       col_cp[i * lanes + lane] * next_x;
            s.row(comp, i)[j] = x;
            next_x = x;
          }
          xedge[lane] = next_x;  // x of my first row, heading upstream
        }
      }
      // BT's block coupling: mix components after each full solve,
      // except on the last step so the verification below can check
      // the raw tridiagonal identity.
      if (ncomp == 3 && !last_step) {
        for (std::size_t i = 0; i < s.rows; ++i) {
          double* c0 = s.row(0, i);
          double* c1 = s.row(1, i);
          double* c2 = s.row(2, i);
          for (std::size_t j = 0; j < n; ++j) {
            const double a0 = c0[j];
            const double a1 = c1[j];
            const double a2 = c2[j];
            c0[j] = 0.90 * a0 + 0.05 * a1 + 0.05 * a2;
            c1[j] = 0.05 * a0 + 0.90 * a1 + 0.05 * a2;
            c2[j] = 0.05 * a0 + 0.05 * a1 + 0.90 * a2;
          }
        }
      }
    });
    if (has_up) {
      detail::send_span(comm, std::span<const double>(xedge), r - 1,
                        kTagBack);
    }
  }

  // Verification: the y-direction solve is a direct method, so the
  // solved field must satisfy the tridiagonal identity
  //   a*x[i-1][j] + b*x[i][j] + c*x[i+1][j] == rhs[i][j]
  // to round-off, including across partition cuts. Fetch the
  // neighbours' edge rows and evaluate the residual exactly.
  std::vector<double> up_last(lanes, 0.0);    // neighbour-above's last row
  std::vector<double> down_first(lanes, 0.0); // neighbour-below's first row
  {
    std::vector<double> first(lanes);
    std::vector<double> last(lanes);
    for (int comp = 0; comp < ncomp; ++comp) {
      for (std::size_t j = 0; j < n; ++j) {
        first[static_cast<std::size_t>(comp) * n + j] = s.row(comp, 0)[j];
        last[static_cast<std::size_t>(comp) * n + j] =
            s.row(comp, s.rows - 1)[j];
      }
    }
    std::vector<mpi::Request> requests;
    if (has_up) {
      requests.push_back(
          comm.irecv(detail::as_writable_bytes(std::span<double>(up_last)),
                     r - 1, kTagHalo));
      requests.push_back(comm.isend(
          detail::as_bytes(std::span<const double>(first)), r - 1, kTagHalo));
    }
    if (has_down) {
      requests.push_back(
          comm.irecv(detail::as_writable_bytes(std::span<double>(down_first)),
                     r + 1, kTagHalo));
      requests.push_back(comm.isend(
          detail::as_bytes(std::span<const double>(last)), r + 1, kTagHalo));
    }
    comm.waitall(requests);
  }

  double max_residual = 0.0;
  charged_compute(plain, compute_seconds, [&] {
    for (int comp = 0; comp < ncomp; ++comp) {
      for (std::size_t i = 0; i < s.rows; ++i) {
        const double* xc = s.row(comp, i);
        for (std::size_t j = 0; j < n; ++j) {
          const std::size_t lane = static_cast<std::size_t>(comp) * n + j;
          const bool first_global = !has_up && i == 0;
          const bool last_global = !has_down && i + 1 == s.rows;
          const double xm = i > 0 ? s.row(comp, i - 1)[j]
                                  : (has_up ? up_last[lane] : 0.0);
          const double xp = i + 1 < s.rows ? s.row(comp, i + 1)[j]
                                           : (has_down ? down_first[lane]
                                                       : 0.0);
          const double lhs = (first_global ? 0.0 : kA * xm) + kB * xc[j] +
                             (last_global ? 0.0 : kC * xp);
          const double rhs =
              rhs_snapshot[(static_cast<std::size_t>(comp) * s.rows + i) * n +
                           j];
          max_residual = std::max(max_residual, std::abs(lhs - rhs));
        }
      }
    }
  });
  max_residual = mpi::allreduce_max(comm, max_residual);

  const double final_norm = norm_of();
  const double elapsed = plain.now() - start_time;
  KernelResult result;
  result.name = name;
  result.residual = max_residual;
  // Direct solve must be exact to round-off, and the ADI operator's
  // spectral radius < 1 makes the field decay monotonically.
  result.verified = std::isfinite(final_norm) && final_norm > 0.0 &&
                    final_norm < initial_norm && max_residual < 1e-9;
  result.comm_fraction =
      elapsed > 0 ? std::max(0.0, 1.0 - compute_seconds / elapsed) : 0.0;
  return result;
}

KernelResult run_bt(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls) {
  return run_adi("BT", 3, comm, plain, cls);
}

KernelResult run_sp(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls) {
  return run_adi("SP", 1, comm, plain, cls);
}

}  // namespace emc::nas
