// Google-benchmark microbenchmarks of the host cost of one encrypted
// point-to-point round trip: seal, hand the frame to the wire, receive
// and open it, both ways, serial or pipelined. Each iteration builds a
// fresh two-rank World, as every benchmark job and paper-campaign
// sample does, so World set-up and teardown (and what they do to the
// heap) count too. Virtual time comes from an analytic crypto cost
// model; only the host time is measured.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "emc/secure_mpi/secure_comm.hpp"

namespace {

using emc::Bytes;
using emc::mpi::WorldConfig;
namespace secure = emc::secure;

void BM_SecureRoundTrip(benchmark::State& state, bool pipelined,
                        std::size_t bytes) {
  WorldConfig world;
  world.cluster.num_nodes = 2;
  world.cluster.ranks_per_node = 1;
  world.cluster.inter = emc::net::infiniband_qdr_40g();
  secure::SecureConfig sc;
  sc.nonce_mode = secure::NonceMode::kCounter;
  // About the AES-NI tier's rate; it sets virtual time only.
  sc.cost_model = secure::CryptoCostModel{.seal_per_op = 0.3e-6,
                                          .seal_per_byte = 0.36e-9,
                                          .open_per_op = 0.3e-6,
                                          .open_per_byte = 0.36e-9};
  sc.pipeline.enabled = pipelined;
  sc.pipeline.chunk_bytes = 64 * 1024;
  sc.pipeline.helper_cores = 2;
  Bytes ping(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    ping[i] = static_cast<std::uint8_t>(i * 131 + bytes);
  }
  for (auto _ : state) {
    secure::run_secure_world(world, sc, [&](secure::SecureComm& c) {
      Bytes buf(bytes);
      if (c.rank() == 0) {
        c.send(ping, 1, 0);
        benchmark::DoNotOptimize(c.recv(buf, 1, 0));
      } else {
        (void)c.recv(buf, 0, 0);
        c.send(buf, 0, 0);
      }
      benchmark::DoNotOptimize(buf.data());
      benchmark::ClobberMemory();
    });
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * bytes));
}

// BM_SecureRoundTrip/{serial,pipelined}/{1KiB,64KiB,4MiB}. A 1 KiB or
// 64 KiB message fits one 64 KiB chunk, so only 4 MiB is chunked.
const bool kRegistered = [] {
  const std::pair<const char*, std::size_t> sizes[] = {
      {"1KiB", std::size_t{1} << 10},
      {"64KiB", std::size_t{64} << 10},
      {"4MiB", std::size_t{4} << 20}};
  for (const bool pipelined : {false, true}) {
    for (const auto& [label, bytes] : sizes) {
      const std::string name = std::string("BM_SecureRoundTrip/") +
                               (pipelined ? "pipelined/" : "serial/") + label;
      benchmark::RegisterBenchmark(name.c_str(), BM_SecureRoundTrip,
                                   pipelined, bytes)
          ->Unit(benchmark::kMicrosecond);
    }
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
