// Mini-NAS IS: parallel integer bucket sort. Each rank generates
// random keys, histograms them (allreduce), redistributes keys to
// their bucket owners with alltoallv, sorts locally, and verifies
// global sortedness with a neighbour boundary exchange — the same
// phases (and the alltoallv dominance) as NAS IS.
#include <algorithm>
#include <cstdint>

#include "emc/common/rng.hpp"
#include "emc/mpi/reduce.hpp"
#include "emc/nas/detail.hpp"
#include "emc/nas/nas.hpp"

namespace emc::nas {

namespace {

using detail::charged_compute;

struct IsParams {
  std::size_t keys_per_rank;
  int repetitions;
};

IsParams params_for(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {1u << 14, 4};
    case ProblemClass::kW: return {1u << 15, 5};
    case ProblemClass::kA: return {1u << 16, 6};
  }
  return {1u << 14, 4};
}

constexpr std::uint32_t kMaxKey = 1u << 20;
constexpr int kTagEdge = 500;

}  // namespace

KernelResult run_is(mpi::Communicator& comm, mpi::Comm& plain,
                    ProblemClass cls) {
  const IsParams params = params_for(cls);
  const int p = comm.size();
  const auto up = static_cast<std::size_t>(p);
  const int r = comm.rank();

  const double start_time = plain.now();
  double compute_seconds = 0.0;

  bool all_sorted = true;
  bool counts_conserved = true;
  std::size_t last_total = 0;

  for (int rep = 0; rep < params.repetitions; ++rep) {
    std::vector<std::uint32_t> keys(params.keys_per_rank);
    charged_compute(plain, compute_seconds, [&] {
      Xoshiro256 rng(0x15 + static_cast<std::uint64_t>(r) * 1009 +
                     static_cast<std::uint64_t>(rep));
      for (auto& k : keys) {
        k = static_cast<std::uint32_t>(rng.next_below(kMaxKey));
      }
    });

    // Bucket b owns keys in [b*width, (b+1)*width).
    const std::uint32_t width =
        (kMaxKey + static_cast<std::uint32_t>(p) - 1) /
        static_cast<std::uint32_t>(p);
    std::vector<std::size_t> sendcounts(up, 0);
    std::vector<std::size_t> senddispls(up, 0);
    std::vector<std::uint32_t> staged(keys.size());
    charged_compute(plain, compute_seconds, [&] {
      for (std::uint32_t k : keys) ++sendcounts[k / width];
      std::size_t offset = 0;
      for (std::size_t b = 0; b < up; ++b) {
        senddispls[b] = offset;
        offset += sendcounts[b];
      }
      std::vector<std::size_t> cursor = senddispls;
      for (std::uint32_t k : keys) staged[cursor[k / width]++] = k;
    });

    // Everyone learns everyone's bucket counts (NAS IS uses an
    // alltoall of counts; an allgather of the count vector is the
    // same traffic shape).
    std::vector<std::size_t> all_counts(up * up);
    comm.allgather(detail::as_bytes(std::span<const std::size_t>(sendcounts)),
                   detail::as_writable_bytes(std::span<std::size_t>(all_counts)));

    std::vector<std::size_t> recvcounts(up);
    std::vector<std::size_t> recvdispls(up);
    std::size_t recv_total = 0;
    charged_compute(plain, compute_seconds, [&] {
      for (std::size_t s = 0; s < up; ++s) {
        recvcounts[s] = all_counts[s * up + static_cast<std::size_t>(r)];
        recvdispls[s] = recv_total;
        recv_total += recvcounts[s];
      }
    });

    // Redistribute the keys (counts converted to bytes for alltoallv).
    std::vector<std::uint32_t> incoming(recv_total);
    std::vector<std::size_t> sc(up);
    std::vector<std::size_t> sd(up);
    std::vector<std::size_t> rc(up);
    std::vector<std::size_t> rd(up);
    for (std::size_t i = 0; i < up; ++i) {
      sc[i] = sendcounts[i] * sizeof(std::uint32_t);
      sd[i] = senddispls[i] * sizeof(std::uint32_t);
      rc[i] = recvcounts[i] * sizeof(std::uint32_t);
      rd[i] = recvdispls[i] * sizeof(std::uint32_t);
    }
    comm.alltoallv(detail::as_bytes(std::span<const std::uint32_t>(staged)),
                   sc, sd,
                   detail::as_writable_bytes(std::span<std::uint32_t>(incoming)),
                   rc, rd);

    charged_compute(plain, compute_seconds,
                    [&] { std::sort(incoming.begin(), incoming.end()); });

    // Verification 1: local sortedness and bucket-range containment.
    charged_compute(plain, compute_seconds, [&] {
      for (std::size_t i = 1; i < incoming.size(); ++i) {
        if (incoming[i - 1] > incoming[i]) all_sorted = false;
      }
      for (std::uint32_t k : incoming) {
        if (k / width != static_cast<std::uint32_t>(r)) all_sorted = false;
      }
    });

    // Verification 2: boundary order across ranks (my max <= next min).
    // Empty buckets forward the previous boundary unchanged.
    std::uint32_t boundary_max =
        incoming.empty() ? 0u : incoming.back();
    if (r > 0) {
      std::uint32_t prev_max = 0;
      detail::recv_span(comm, std::span<std::uint32_t>(&prev_max, 1), r - 1,
                        kTagEdge);
      const std::uint32_t my_min =
          incoming.empty() ? prev_max : incoming.front();
      if (prev_max > my_min) all_sorted = false;
      if (incoming.empty()) boundary_max = prev_max;
      boundary_max = std::max(boundary_max, prev_max);
    }
    if (r + 1 < p) {
      detail::send_span(comm,
                        std::span<const std::uint32_t>(&boundary_max, 1),
                        r + 1, kTagEdge);
    }

    // Verification 3: no key lost in redistribution.
    const auto total = mpi::allreduce_sum(
        comm, static_cast<std::uint64_t>(incoming.size()));
    counts_conserved =
        counts_conserved &&
        total == static_cast<std::uint64_t>(params.keys_per_rank) * up;
    last_total = total;
  }

  const double elapsed = plain.now() - start_time;
  KernelResult result;
  result.name = "IS";
  result.residual = static_cast<double>(last_total);
  result.verified = all_sorted && counts_conserved;
  result.comm_fraction =
      elapsed > 0 ? std::max(0.0, 1.0 - compute_seconds / elapsed) : 0.0;
  return result;
}

}  // namespace emc::nas
