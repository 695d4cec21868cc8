// Mini-NAS FT: 3-D FFT with slab decomposition. Each iteration does a
// full forward transform (local 2-D FFTs, then a global alltoall
// transpose, then 1-D FFTs along the redistributed axis), a spectral
// "evolve" multiply, and the inverse transform — the alltoall-dominated
// traffic that makes FT the paper's collective-heavy NAS member.
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "emc/common/rng.hpp"
#include "emc/mpi/reduce.hpp"
#include "emc/nas/detail.hpp"
#include "emc/nas/fft.hpp"
#include "emc/nas/nas.hpp"

namespace emc::nas {

namespace {

using detail::charged_compute;

std::size_t grid_for(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return 32;
    case ProblemClass::kW: return 64;
    case ProblemClass::kA: return 128;
  }
  return 32;
}

int evolve_steps(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return 3;
    case ProblemClass::kW: return 4;
    case ProblemClass::kA: return 5;
  }
  return 3;
}

}  // namespace

KernelResult run_ft(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls) {
  const int p = comm.size();
  std::size_t n = grid_for(cls);
  while (n % static_cast<std::size_t>(p) != 0 || n < static_cast<std::size_t>(p)) {
    n <<= 1;  // grow to the next power of two divisible by the ranks
  }
  if (!is_pow2(static_cast<std::size_t>(p))) {
    throw std::invalid_argument(
        "mini-NAS FT requires a power-of-two rank count");
  }
  const std::size_t zloc = n / static_cast<std::size_t>(p);
  const std::size_t xloc = zloc;
  const int rank = comm.rank();

  // u[z][y][x] (x fastest) for the z-slab phase.
  std::vector<Complex> u(zloc * n * n);
  // v[xl][y][z] (z fastest) for the x-slab phase.
  std::vector<Complex> v(xloc * n * n);
  std::vector<Complex> sendbuf(u.size());
  std::vector<Complex> recvbuf(u.size());
  std::vector<Complex> scratch(n);

  const double start_time = plain.now();
  double compute_seconds = 0.0;

  // Deterministic pseudo-random initial field.
  charged_compute(plain, compute_seconds, [&] {
    Xoshiro256 rng(0xF7 + static_cast<std::uint64_t>(rank));
    for (Complex& c : u) {
      c = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
    }
  });

  double initial_energy = 0.0;
  charged_compute(plain, compute_seconds, [&] {
    for (const Complex& c : u) initial_energy += std::norm(c);
  });
  initial_energy = mpi::allreduce_sum(comm, initial_energy);

  const std::size_t block = zloc * n * xloc;  // complexes per peer

  const auto transpose_forward = [&] {
    charged_compute(plain, compute_seconds, [&] {
      // Pack: block q holds my z-planes restricted to q's x-range.
      for (int q = 0; q < p; ++q) {
        Complex* out = sendbuf.data() + static_cast<std::size_t>(q) * block;
        const std::size_t x0 = static_cast<std::size_t>(q) * xloc;
        for (std::size_t z = 0; z < zloc; ++z) {
          for (std::size_t y = 0; y < n; ++y) {
            const Complex* src = &u[(z * n + y) * n + x0];
            for (std::size_t x = 0; x < xloc; ++x) *out++ = src[x];
          }
        }
      }
    });
    comm.alltoall(detail::as_bytes(std::span<const Complex>(sendbuf)),
                  detail::as_writable_bytes(std::span<Complex>(recvbuf)),
                  block * sizeof(Complex));
    charged_compute(plain, compute_seconds, [&] {
      // Unpack: source s's block carries z-range [s*zloc, ...) of my
      // x-slab; lay out as v[xl][y][z].
      for (int s = 0; s < p; ++s) {
        const Complex* in = recvbuf.data() + static_cast<std::size_t>(s) * block;
        const std::size_t z0 = static_cast<std::size_t>(s) * zloc;
        for (std::size_t dz = 0; dz < zloc; ++dz) {
          for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t xl = 0; xl < xloc; ++xl) {
              v[(xl * n + y) * n + (z0 + dz)] = *in++;
            }
          }
        }
      }
    });
  };

  const auto transpose_backward = [&] {
    charged_compute(plain, compute_seconds, [&] {
      for (int s = 0; s < p; ++s) {
        Complex* out = sendbuf.data() + static_cast<std::size_t>(s) * block;
        const std::size_t z0 = static_cast<std::size_t>(s) * zloc;
        for (std::size_t dz = 0; dz < zloc; ++dz) {
          for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t xl = 0; xl < xloc; ++xl) {
              *out++ = v[(xl * n + y) * n + (z0 + dz)];
            }
          }
        }
      }
    });
    comm.alltoall(detail::as_bytes(std::span<const Complex>(sendbuf)),
                  detail::as_writable_bytes(std::span<Complex>(recvbuf)),
                  block * sizeof(Complex));
    charged_compute(plain, compute_seconds, [&] {
      for (int q = 0; q < p; ++q) {
        const Complex* in = recvbuf.data() + static_cast<std::size_t>(q) * block;
        const std::size_t x0 = static_cast<std::size_t>(q) * xloc;
        for (std::size_t z = 0; z < zloc; ++z) {
          for (std::size_t y = 0; y < n; ++y) {
            Complex* dst = &u[(z * n + y) * n + x0];
            for (std::size_t x = 0; x < xloc; ++x) dst[x] = *in++;
          }
        }
      }
    });
  };

  const auto fft_xy = [&](bool inverse) {
    charged_compute(plain, compute_seconds, [&] {
      for (std::size_t z = 0; z < zloc; ++z) {
        Complex* plane = &u[z * n * n];
        for (std::size_t y = 0; y < n; ++y) {
          fft(std::span<Complex>(plane + y * n, n), inverse);
        }
        for (std::size_t x = 0; x < n; ++x) {
          fft_strided(plane + x, n, n, inverse, scratch);
        }
      }
    });
  };

  const auto fft_z = [&](bool inverse) {
    charged_compute(plain, compute_seconds, [&] {
      for (std::size_t xl = 0; xl < xloc; ++xl) {
        for (std::size_t y = 0; y < n; ++y) {
          fft(std::span<Complex>(&v[(xl * n + y) * n], n), inverse);
        }
      }
    });
  };

  const auto evolve = [&](int step) {
    charged_compute(plain, compute_seconds, [&] {
      const double theta =
          1e-4 * static_cast<double>(step + 1) * 2.0 * std::numbers::pi;
      const std::size_t x0 = static_cast<std::size_t>(rank) * xloc;
      for (std::size_t xl = 0; xl < xloc; ++xl) {
        const auto kx = static_cast<double>(x0 + xl);
        for (std::size_t y = 0; y < n; ++y) {
          const auto ky = static_cast<double>(y);
          for (std::size_t z = 0; z < n; ++z) {
            const auto kz = static_cast<double>(z);
            const double phase = theta * (kx + ky + kz);
            v[(xl * n + y) * n + z] *=
                Complex(std::cos(phase), std::sin(phase));
          }
        }
      }
    });
  };

  for (int step = 0; step < evolve_steps(cls); ++step) {
    fft_xy(false);
    transpose_forward();
    fft_z(false);
    evolve(step);  // unit-modulus multiply: total energy is conserved
    fft_z(true);
    transpose_backward();
    fft_xy(true);
  }

  double final_energy = 0.0;
  charged_compute(plain, compute_seconds, [&] {
    for (const Complex& c : u) final_energy += std::norm(c);
  });
  final_energy = mpi::allreduce_sum(comm, final_energy);

  const double elapsed = plain.now() - start_time;
  KernelResult result;
  result.name = "FT";
  // Parseval: the unit-modulus evolve conserves energy through the
  // forward/inverse pipeline; drift measures FFT+transpose fidelity.
  result.residual = std::abs(final_energy - initial_energy) /
                    (initial_energy > 0 ? initial_energy : 1.0);
  result.verified = std::isfinite(final_energy) && result.residual < 1e-9;
  result.comm_fraction =
      elapsed > 0 ? std::max(0.0, 1.0 - compute_seconds / elapsed) : 0.0;
  return result;
}

}  // namespace emc::nas
