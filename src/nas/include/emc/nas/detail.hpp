// Shared helpers for the mini NAS kernels: block partitioning, typed
// message views, and compute-time charging.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "emc/common/bytes.hpp"
#include "emc/mpi/comm.hpp"
#include "emc/mpi/communicator.hpp"

namespace emc::nas::detail {

/// Contiguous block partition of [0, total) over `parts` owners; the
/// first `total % parts` owners get one extra element.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t count() const noexcept { return end - begin; }
};

[[nodiscard]] inline Range block_range(std::size_t total, int parts,
                                       int index) {
  const auto p = static_cast<std::size_t>(parts);
  const auto i = static_cast<std::size_t>(index);
  const std::size_t base = total / p;
  const std::size_t extra = total % p;
  const std::size_t begin = i * base + (i < extra ? i : extra);
  return Range{begin, begin + base + (i < extra ? 1 : 0)};
}

/// Raw-byte views over trivially copyable element spans.
template <typename T>
[[nodiscard]] BytesView as_bytes(std::span<const T> data) noexcept {
  return BytesView(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size_bytes());
}

template <typename T>
[[nodiscard]] MutBytes as_writable_bytes(std::span<T> data) noexcept {
  return MutBytes(reinterpret_cast<std::uint8_t*>(data.data()),
                  data.size_bytes());
}

/// Sends/receives typed rows (convenience wrappers).
template <typename T>
void send_span(mpi::Communicator& comm, std::span<const T> data, int dst,
               int tag) {
  comm.send(as_bytes(data), dst, tag);
}

template <typename T>
void recv_span(mpi::Communicator& comm, std::span<T> data, int src, int tag) {
  comm.recv(as_writable_bytes(data), src, tag);
}

/// Charges @p work's measured host time to the virtual clock and
/// accumulates the *virtual* (scale-adjusted) seconds into
/// @p compute_seconds so comm-fraction statistics stay consistent
/// under CPU-speed calibration.
template <typename Fn>
void charged_compute(mpi::Comm& plain, double& compute_seconds, Fn&& work) {
  compute_seconds += plain.charge(std::forward<Fn>(work)) *
                     plain.world().config().cpu_scale;
}

}  // namespace emc::nas::detail
