// Mini-NAS CG: conjugate gradient on the 2-D five-point Laplacian,
// 1-D row-partitioned. Communication per iteration: one halo exchange
// (sendrecv with both neighbours) inside the matvec and two scalar
// allreduces for the dot products — the same traffic mix as NAS CG.
#include <cmath>

#include "emc/mpi/reduce.hpp"
#include "emc/nas/detail.hpp"
#include "emc/nas/nas.hpp"

namespace emc::nas {

namespace {

using detail::as_bytes;
using detail::as_writable_bytes;
using detail::block_range;
using detail::charged_compute;

struct CgParams {
  std::size_t n;      // grid is n x n
  int iterations;
};

CgParams params_for(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {96, 12};
    case ProblemClass::kW: return {160, 16};
    case ProblemClass::kA: return {256, 20};
  }
  return {96, 12};
}

// Diagonal shift keeps the operator well conditioned so a dozen
// CG iterations converge measurably at every class size.
constexpr double kDiag = 4.5;

constexpr int kTagUp = 101;    // to rank-1 (my top row travels up)
constexpr int kTagDown = 102;  // to rank+1

/// Local slab with one halo row above and below.
class Slab {
 public:
  Slab(std::size_t rows, std::size_t n) : rows_(rows), n_(n),
        data_((rows + 2) * n, 0.0) {}

  [[nodiscard]] double* row(std::size_t local_row) noexcept {
    return data_.data() + (local_row + 1) * n_;
  }
  [[nodiscard]] double* halo_top() noexcept { return data_.data(); }
  [[nodiscard]] double* halo_bottom() noexcept {
    return data_.data() + (rows_ + 1) * n_;
  }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }

 private:
  std::size_t rows_;
  std::size_t n_;
  std::vector<double> data_;
};

/// Exchanges halo rows with both neighbours (boundary ranks keep the
/// zero Dirichlet halo).
void exchange_halo(mpi::Communicator& comm, Slab& x) {
  const int r = comm.rank();
  const int up = r - 1;
  const int down = r + 1;
  const std::size_t n = x.n();
  const auto row_bytes = [n](double* p) { return MutBytes(
      reinterpret_cast<std::uint8_t*>(p), n * sizeof(double)); };

  std::vector<mpi::Request> requests;
  if (up >= 0) {
    requests.push_back(comm.irecv(row_bytes(x.halo_top()), up, kTagDown));
    requests.push_back(comm.isend(BytesView(row_bytes(x.row(0))), up, kTagUp));
  }
  if (down < comm.size()) {
    requests.push_back(
        comm.irecv(row_bytes(x.halo_bottom()), down, kTagUp));
    requests.push_back(
        comm.isend(BytesView(row_bytes(x.row(x.rows() - 1))), down, kTagDown));
  }
  comm.waitall(requests);
}

/// y = A x for the 5-point Laplacian (after a halo exchange).
void matvec(Slab& x, Slab& y) {
  const std::size_t n = x.n();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* xm = x.row(i) - n;  // halo-safe: row(-1) == halo_top
    const double* xc = x.row(i);
    const double* xp = x.row(i) + n;
    double* out = y.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double left = j > 0 ? xc[j - 1] : 0.0;
      const double right = j + 1 < n ? xc[j + 1] : 0.0;
      out[j] = kDiag * xc[j] - xm[j] - xp[j] - left - right;
    }
  }
}

double local_dot(Slab& a, Slab& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    const double* pb = b.row(i);
    for (std::size_t j = 0; j < a.n(); ++j) sum += pa[j] * pb[j];
  }
  return sum;
}

}  // namespace

KernelResult run_cg(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls) {
  const CgParams params = params_for(cls);
  const auto range = block_range(params.n, comm.size(), comm.rank());
  const std::size_t rows = range.count();
  const std::size_t n = params.n;

  Slab x(rows, n);
  Slab r(rows, n);
  Slab p(rows, n);
  Slab q(rows, n);

  const double start_time = plain.now();
  double compute_seconds = 0.0;

  // b = 1 everywhere; x0 = 0 so r0 = b, p0 = r0.
  charged_compute(plain, compute_seconds, [&] {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        r.row(i)[j] = 1.0;
        p.row(i)[j] = 1.0;
      }
    }
  });

  double rho = 0.0;
  charged_compute(plain, compute_seconds, [&] { rho = local_dot(r, r); });
  rho = mpi::allreduce_sum(comm, rho);
  const double initial_residual = std::sqrt(rho);

  for (int it = 0; it < params.iterations; ++it) {
    exchange_halo(comm, p);
    double pq = 0.0;
    charged_compute(plain, compute_seconds, [&] {
      matvec(p, q);
      pq = local_dot(p, q);
    });
    pq = mpi::allreduce_sum(comm, pq);
    const double alpha = rho / pq;

    double rho_new = 0.0;
    charged_compute(plain, compute_seconds, [&] {
      for (std::size_t i = 0; i < rows; ++i) {
        double* xi = x.row(i);
        double* ri = r.row(i);
        const double* pi = p.row(i);
        const double* qi = q.row(i);
        for (std::size_t j = 0; j < n; ++j) {
          xi[j] += alpha * pi[j];
          ri[j] -= alpha * qi[j];
        }
      }
      rho_new = local_dot(r, r);
    });
    rho_new = mpi::allreduce_sum(comm, rho_new);
    const double beta = rho_new / rho;
    rho = rho_new;

    charged_compute(plain, compute_seconds, [&] {
      for (std::size_t i = 0; i < rows; ++i) {
        double* pi = p.row(i);
        const double* ri = r.row(i);
        for (std::size_t j = 0; j < n; ++j) pi[j] = ri[j] + beta * pi[j];
      }
    });
  }

  const double final_residual = std::sqrt(rho);

  // Invariant check: the maintained residual must equal b - A x to
  // round-off. This validates the matvec *and* the halo exchanges it
  // rode on, independent of convergence speed.
  exchange_halo(comm, x);
  double drift_sq = 0.0;
  charged_compute(plain, compute_seconds, [&] {
    matvec(x, q);  // q = A x
    for (std::size_t i = 0; i < rows; ++i) {
      const double* qi = q.row(i);
      const double* ri = r.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double truth = 1.0 - qi[j];  // b - A x
        drift_sq += (truth - ri[j]) * (truth - ri[j]);
      }
    }
  });
  const double drift =
      std::sqrt(mpi::allreduce_sum(comm, drift_sq)) / initial_residual;

  const double elapsed = plain.now() - start_time;

  KernelResult result;
  result.name = "CG";
  result.residual = final_residual / initial_residual;
  result.verified = std::isfinite(final_residual) &&
                    result.residual < 0.05 && drift < 1e-10;
  result.comm_fraction =
      elapsed > 0 ? std::max(0.0, 1.0 - compute_seconds / elapsed) : 0.0;
  return result;
}

}  // namespace emc::nas
