#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>

#include "emc/crypto/dh.hpp"
#include "emc/keys/handshake.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/mpi/comm.hpp"
#include "emc/mpi/world.hpp"
#include "emc/netsim/wan.hpp"
#include "emc/secure_mpi/secure_comm.hpp"
#include "emc/trace/export.hpp"

namespace emc::hostbench {

HostReadings& HostReadings::operator+=(const HostReadings& o) noexcept {
  probe += o.probe;
  for (std::size_t c = 0; c < trace::kNumCategories; ++c) virt[c] += o.virt[c];
  virt_idle += o.virt_idle;
  virt_total += o.virt_total;
  return *this;
}

namespace {

constexpr const char* kProvider = "boringssl-sim";

/// Paper-anchored analytic AES-GCM timing (Fig. 2, BoringSSL at 2 MB:
/// 1381 MB/s enc+dec, split evenly between the two directions, and
/// 0.3 us per call). The AEAD still runs on the host, so its cost is in
/// the wall time, but virtual time becomes a pure function of the
/// inputs. Kept here instead of shared with bench/ so that no edit
/// there can move this benchmark's virtual results.
secure::SecureConfig secure_config() {
  constexpr double kEncDecMBps = 1381.0;
  constexpr double kPerOp = 0.3e-6;
  secure::CryptoCostModel m;
  m.seal_per_op = m.open_per_op = kPerOp;
  m.seal_per_byte = m.open_per_byte = 1.0 / (2.0 * kEncDecMBps * 1e6);
  secure::SecureConfig c;
  c.provider = kProvider;
  c.nonce_mode = secure::NonceMode::kCounter;
  c.cost_model = m;
  return c;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

using Shared = std::shared_ptr<const Bytes>;

Shared payload(std::uint64_t seed, std::size_t n) {
  Bytes b(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; i += 8) {
    s = mix(s, i);
    for (std::size_t k = 0; k < 8 && i + k < n; ++k) {
      b[i + k] = static_cast<std::uint8_t>(s >> (8 * k));
    }
  }
  return std::make_shared<const Bytes>(std::move(b));
}

std::string size_label(std::size_t bytes) {
  if (bytes >= 1024 * 1024) return std::to_string(bytes >> 20) + "MiB";
  if (bytes >= 1024) return std::to_string(bytes >> 10) + "KiB";
  return std::to_string(bytes) + "B";
}

/// What one rank observed during a job; only that rank's thread writes it.
struct RankState {
  RankProbe probe;
  Counts counts;
  double crypto_host_s = 0.0;

  /// Checks a receive against the bytes the peer sent.
  void received(std::size_t got_bytes, BytesView got, BytesView want) {
    if (got_bytes != want.size() ||
        !std::equal(want.begin(), want.end(), got.begin())) {
      throw std::runtime_error("received payload differs from the one sent");
    }
    ++counts.ops;
    counts.payload_bytes += want.size();
  }

  void absorb(const secure::SecureComm& sc) {
    const secure::CryptoCounters& c = sc.counters();
    counts.seals += c.messages_sealed;
    counts.opens += c.messages_opened;
    counts.seal_bytes += c.bytes_sealed;
    counts.open_bytes += c.bytes_opened;
    counts.chunks += c.chunks_sealed + c.chunks_opened;
    counts.nacks += c.nacks_sent;
    counts.duplicates += c.duplicates_suppressed;
    counts.replays += c.replays_rejected;
    crypto_host_s += c.seal_seconds + c.open_seconds;
  }
};

using Body = std::function<void(mpi::Comm&, RankState&)>;

void add_faults(Counts& counts, const net::FaultInjector* injector) {
  if (injector == nullptr) return;
  counts.dropped += injector->stats().dropped;
  counts.delayed += injector->stats().delayed;
}

/// Builds a fresh world from @p base, runs @p body on every rank, and
/// gathers the job's counts; any exception fails the job.
JobResult run_job(const mpi::WorldConfig& base, const JobOptions& options,
                  const Body& body) {
  mpi::WorldConfig config = base;
  const int n = config.cluster.total_ranks();
  std::shared_ptr<trace::TraceRecorder> recorder;
  if (options.traced) {
    // Only the exact category totals are read, so a small ring keeps
    // the recorder's own cost down.
    trace::Config tc;
    tc.ring_capacity = 256;
    recorder = std::make_shared<trace::TraceRecorder>(tc, n);
    config.trace = recorder;
  }
  std::vector<RankState> ranks(static_cast<std::size_t>(n));
  for (RankState& st : ranks) {
    st.probe.enabled = options.traced;
    st.probe.spans = options.spans;
    st.probe.origin = options.origin;
  }
  JobResult r;
  try {
    mpi::World world(config);
    r.virtual_end = world.run([&](mpi::Comm& comm) {
      RankState& st = ranks[static_cast<std::size_t>(comm.rank())];
      st.probe.body_begin();
      body(comm, st);
      st.probe.body_end();
    });
    r.counts.events = world.engine().scheduled_events();
    if (const reliable::Channel* ch = world.reliability()) {
      const reliable::ReliabilityStats& s = ch->stats();
      r.counts.data_frames = s.data_frames;
      r.counts.deliveries = s.deliveries;
      r.counts.retransmits = s.retransmits;
      r.counts.spurious = s.spurious_retransmits;
      r.counts.rtt_samples = s.rtt_samples;
      r.counts.cwnd_halvings = s.cwnd_halvings;
      r.counts.window_stalls = s.window_stalls;
    }
    net::Fabric& fabric = world.fabric();
    add_faults(r.counts, fabric.faults());
    for (const net::LinkSpec& link : config.cluster.links) {
      if (link.profile.faults.enabled()) {
        add_faults(r.counts, fabric.faults_for_hop(link.src_node, link.dst_node));
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  for (const RankState& st : ranks) {
    r.counts += st.counts;
    r.crypto_host_s += st.crypto_host_s;
    r.host.probe += st.probe.totals;
  }
  if (recorder && r.error.empty()) {
    for (const trace::SummaryRow& row : trace::Summary::from(*recorder).rows) {
      for (std::size_t c = 0; c < trace::kNumCategories; ++c) {
        r.host.virt[c] += row.seconds[c];
      }
      r.host.virt_idle += row.idle;
      r.host.virt_total += row.total;
    }
  }
  return r;
}

struct CallNames {
  const char* send;
  const char* recv;
};
constexpr CallNames kPlainNames{"Comm::send", "Comm::recv"};
constexpr CallNames kSecureNames{"SecureComm::send", "SecureComm::recv"};

/// Closed-loop ping-pong between ranks @p a and @p b: @p a sends ping
/// and waits for pong, @p b checks ping and answers. Other ranks idle.
/// @p chunked marks payloads that take the pipelined chunk path, whose
/// crypto SecureComm bills to helper cores instead of timing it; their
/// bytes are counted once per message, at the receiver.
void pingpong(mpi::Communicator& c, RankState& st,
              const secure::SecureComm* secure, int a, int b,
              const Bytes& ping, const Bytes& pong, int iters,
              bool chunked = false) {
  const int me = c.rank();
  if (me != a && me != b) return;
  const Layer layer = secure ? Layer::kSecureMpi : Layer::kMpi;
  const CallNames names = secure ? kSecureNames : kPlainNames;
  const int peer = me == a ? b : a;
  const Bytes& out = me == a ? ping : pong;
  const Bytes& in = me == a ? pong : ping;
  Bytes buf(in.size());
  const auto send = [&] {
    timed(st.probe, layer, names.send, me, [&] { c.send(out, peer, 0); },
          secure);
  };
  const auto recv = [&] {
    const mpi::Status s = timed(
        st.probe, layer, names.recv, me,
        [&] { return c.recv(buf, peer, 0); }, secure);
    st.received(s.bytes, buf, in);
    if (chunked) st.counts.chunk_bytes += in.size();
  };
  for (int i = 0; i < iters; ++i) {
    if (me == a) {
      send();
      recv();
    } else {
      recv();
      send();
    }
  }
}

/// A p2p cell between two single-rank nodes: plain, serial SecureComm,
/// or pipelined SecureComm.
enum class P2p { kPlain, kSerial, kPipelined };

const char* p2p_label(P2p mode) {
  switch (mode) {
    case P2p::kPlain:
      return "plain";
    case P2p::kSerial:
      return "secure";
    case P2p::kPipelined:
      return "pipelined";
  }
  return "?";
}

Cell p2p_cell(const mpi::WorldConfig& world, P2p mode, std::size_t bytes,
              int iters, std::uint64_t seed) {
  const Shared ping = payload(mix(seed, 2 * bytes), bytes);
  const Shared pong = payload(mix(seed, 2 * bytes + 1), bytes);
  Cell cell;
  cell.name = std::string(p2p_label(mode)) + "_" + size_label(bytes);
  cell.run = [=](const JobOptions& options) {
    return run_job(world, options, [&](mpi::Comm& comm, RankState& st) {
      if (mode == P2p::kPlain) {
        pingpong(comm, st, nullptr, 0, 1, *ping, *pong, iters);
        return;
      }
      secure::SecureConfig sc = secure_config();
      if (mode == P2p::kPipelined) {
        sc.pipeline.enabled = true;
        sc.pipeline.chunk_bytes = 64 * 1024;
        sc.pipeline.helper_cores = 2;
      }
      secure::SecureComm s(comm, sc);
      pingpong(s, st, &s, 0, 1, *ping, *pong, iters,
               mode == P2p::kPipelined);
      st.absorb(s);
    });
  };
  return cell;
}

mpi::WorldConfig two_nodes(const net::NetworkProfile& inter) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.ranks_per_node = 1;
  config.cluster.inter = inter;
  return config;
}

// Why each workload exists, which layers it loads, and what it should
// and should not move is documented in benchmark/README.md.

Workload pingpong_small(std::uint64_t seed) {
  Workload w{"pingpong_small", {}, 40, 0.75};
  const mpi::WorldConfig world = two_nodes(net::ethernet_10g());
  for (const std::size_t bytes : {1U, 16U, 256U, 1024U}) {
    for (const P2p mode : {P2p::kPlain, P2p::kSerial}) {
      w.cells.push_back(p2p_cell(world, mode, bytes, 500, seed));
    }
  }
  return w;
}

Workload bulk_stream(std::uint64_t seed) {
  Workload w{"bulk_stream", {}, 8, 0.25};
  const mpi::WorldConfig world = two_nodes(net::infiniband_qdr_40g());
  for (const std::size_t bytes :
       {std::size_t{256} << 10, std::size_t{1} << 20, std::size_t{4} << 20}) {
    for (const P2p mode : {P2p::kPlain, P2p::kSerial, P2p::kPipelined}) {
      w.cells.push_back(p2p_cell(world, mode, bytes, 2, seed));
    }
  }
  return w;
}

enum class Coll { kBcast, kAllgather, kAlltoall, kBarrier };

/// Per-rank inputs of the collective cells and what each rank must
/// receive.
struct CollInputs {
  std::vector<Bytes> bcast;         ///< root r's 64 KiB
  std::vector<Bytes> part;          ///< rank r's 8 KiB allgather block
  Bytes gathered;                   ///< every part, in rank order
  std::vector<Bytes> a2a_send;      ///< rank r's 4 x 2 KiB blocks
  std::vector<Bytes> a2a_expected;  ///< block i from rank i, for rank r
};

constexpr std::size_t kBcastBytes = 64 * 1024;
constexpr std::size_t kGatherBytes = 8 * 1024;
constexpr std::size_t kA2aBlock = 2 * 1024;

std::shared_ptr<const CollInputs> coll_inputs(std::uint64_t seed, int n) {
  auto in = std::make_shared<CollInputs>();
  const auto un = static_cast<std::size_t>(n);
  for (std::size_t r = 0; r < un; ++r) {
    in->bcast.push_back(*payload(mix(seed, 100 + r), kBcastBytes));
    in->part.push_back(*payload(mix(seed, 200 + r), kGatherBytes));
    in->a2a_send.push_back(*payload(mix(seed, 300 + r), kA2aBlock * un));
    in->gathered.insert(in->gathered.end(), in->part[r].begin(),
                        in->part[r].end());
  }
  for (std::size_t r = 0; r < un; ++r) {
    Bytes expected;
    for (std::size_t i = 0; i < un; ++i) {
      const auto block = in->a2a_send[i].begin() +
                         static_cast<std::ptrdiff_t>(r * kA2aBlock);
      expected.insert(expected.end(), block,
                      block + static_cast<std::ptrdiff_t>(kA2aBlock));
    }
    in->a2a_expected.push_back(std::move(expected));
  }
  return in;
}

void collective(mpi::Communicator& c, RankState& st,
                const secure::SecureComm* secure, Coll op,
                const CollInputs& in, int reps) {
  const int me = c.rank();
  const auto ume = static_cast<std::size_t>(me);
  const int n = c.size();
  const Layer layer = secure ? Layer::kSecureMpi : Layer::kMpi;
  Bytes buf;
  for (int rep = 0; rep < reps; ++rep) {
    switch (op) {
      case Coll::kBcast: {
        const int root = rep % n;
        const Bytes& data = in.bcast[static_cast<std::size_t>(root)];
        if (me == root) {
          buf = data;
        } else {
          buf.assign(data.size(), 0);
        }
        timed(st.probe, layer, secure ? "SecureComm::bcast" : "Comm::bcast",
              me, [&] { c.bcast(buf, root); }, secure);
        if (me == root) {
          ++st.counts.ops;
        } else {
          st.received(buf.size(), buf, data);
        }
        break;
      }
      case Coll::kAllgather:
        buf.assign(in.gathered.size(), 0);
        timed(st.probe, layer,
              secure ? "SecureComm::allgather" : "Comm::allgather", me,
              [&] { c.allgather(in.part[ume], buf); }, secure);
        st.received(buf.size(), buf, in.gathered);
        break;
      case Coll::kAlltoall:
        buf.assign(in.a2a_expected[ume].size(), 0);
        timed(st.probe, layer,
              secure ? "SecureComm::alltoall" : "Comm::alltoall", me,
              [&] { c.alltoall(in.a2a_send[ume], buf, kA2aBlock); }, secure);
        st.received(buf.size(), buf, in.a2a_expected[ume]);
        break;
      case Coll::kBarrier:
        timed(st.probe, layer,
              secure ? "SecureComm::barrier" : "Comm::barrier", me,
              [&] { c.barrier(); }, secure);
        ++st.counts.ops;
        break;
    }
  }
}

Workload collectives(std::uint64_t seed) {
  Workload w{"collectives", {}, 30, 0.5};
  mpi::WorldConfig world;
  world.cluster.num_nodes = 2;
  world.cluster.ranks_per_node = 2;
  world.cluster.inter = net::infiniband_qdr_40g();
  const auto in = coll_inputs(seed, world.cluster.total_ranks());
  const std::pair<Coll, const char*> ops[] = {{Coll::kBcast, "bcast_64KiB"},
                                              {Coll::kAllgather, "allgather_8KiB"},
                                              {Coll::kAlltoall, "alltoall_2KiB"},
                                              {Coll::kBarrier, "barrier"}};
  for (const auto& [op, label] : ops) {
    for (const bool encrypted : {false, true}) {
      Cell cell;
      cell.name = std::string(encrypted ? "secure_" : "plain_") + label;
      cell.run = [=](const JobOptions& options) {
        return run_job(world, options, [&](mpi::Comm& comm, RankState& st) {
          if (!encrypted) {
            collective(comm, st, nullptr, op, *in, 20);
            return;
          }
          secure::SecureComm s(comm, secure_config());
          collective(s, st, &s, op, *in, 20);
          st.absorb(s);
        });
      };
      w.cells.push_back(std::move(cell));
    }
  }
  return w;
}

/// One hostile metro-WAN hop: 5 % loss, 2 % latency spikes of up to
/// 4 ms, ~5 % jitter, and background bursts at ~20 % utilization.
net::LinkProfile hostile_hop(std::uint64_t seed) {
  const net::NetworkProfile base = net::wan_metro();
  net::LinkProfile link = net::wan_link(base, 0.05, base.latency / 20.0, seed);
  link.faults.p_delay = 0.02;
  link.faults.delay_seconds = 4e-3;
  link.cross.period = 1e-3;
  link.cross.burst_bytes = static_cast<std::size_t>(base.bandwidth * 2e-4);
  link.cross.seed = mix(seed, 1);
  return link;
}

/// Three single-rank nodes in a chain of hostile hops; rank 0 and rank 2
/// reach each other only through the relay node 1. Adaptive ARQ.
mpi::WorldConfig relay_chain(std::uint64_t seed) {
  mpi::WorldConfig config;
  config.cluster.num_nodes = 3;
  config.cluster.ranks_per_node = 1;
  for (int node = 0; node < 2; ++node) {
    const auto k = static_cast<std::uint64_t>(node);
    config.cluster.links.push_back({node, node + 1, hostile_hop(mix(seed, 2 * k))});
    config.cluster.links.push_back({node + 1, node, hostile_hop(mix(seed, 2 * k + 1))});
  }
  config.cluster.routes.push_back({0, 2, {1}});
  config.cluster.routes.push_back({2, 0, {1}});
  config.reliability.enabled = true;
  config.reliability.transport = reliable::Transport::kAdaptive;
  config.reliability.max_retries = 24;
  config.reliability.seed = mix(seed, 99);
  config.recv_timeout = 1.0;  // the handshake's loss recovery needs a bound
  return config;
}

Workload lossy_wan(std::uint64_t seed) {
  Workload w{"lossy_wan", {}, 4, 0.5};
  constexpr std::size_t kBytes = 4096;
  constexpr int kIters = 200;
  const auto group = std::make_shared<const crypto::DhGroup>(
      crypto::generate_test_group(192, seed));
  const Shared ping = payload(mix(seed, 400), kBytes);
  const Shared pong = payload(mix(seed, 401), kBytes);
  const std::pair<std::optional<secure::RelayTrust>, const char*> modes[] = {
      {std::nullopt, "plain"},
      {secure::RelayTrust::kHopTrusted, "hop_trusted"},
      {secure::RelayTrust::kEndToEnd, "end_to_end"}};
  for (std::uint64_t link = 0; link < 16; ++link) {
    const std::uint64_t link_seed = mix(seed, 1000 + link);
    const mpi::WorldConfig world = relay_chain(link_seed);
    char label[16];
    std::snprintf(label, sizeof label, "link%02u_", static_cast<unsigned>(link));
    for (const auto& [trust, mode] : modes) {
      Cell cell;
      cell.name = std::string(label) + mode;
      cell.run = [=](const JobOptions& options) {
        return run_job(world, options, [&](mpi::Comm& comm, RankState& st) {
          const int me = comm.rank();
          if (me == 1) return;  // the relay node forwards inside the fabric
          if (!trust) {
            pingpong(comm, st, nullptr, 0, 2, *ping, *pong, kIters);
            return;
          }
          const int peer = 2 - me;
          keys::HandshakeConfig hc;
          hc.seed = mix(link_seed, 7);
          // Both ends linger backoff_max + 2 * recv_timeout, summed
          // from whole timed-out waits. At a multiple of recv_timeout
          // rounding can add one more wait on one end only, and the
          // other end's first receive then times out.
          hc.backoff_max = 0.5;
          keys::HandshakeResult hs = timed(
              st.probe, Layer::kKeys, "keys::link_handshake", me,
              [&] { return keys::link_handshake(comm, peer, *group, hc); });
          st.counts.handshake_attempts += static_cast<std::uint64_t>(hs.attempts);
          auto ring = std::make_shared<keys::LinkKeyring>(kProvider, 32);
          ring->install(peer, hs.chain, comm.now());
          secure_zero(hs.chain);
          secure::SecureConfig sc = secure_config();
          sc.relay_trust = *trust;
          sc.keyring = ring;
          sc.nonce_rekey_threshold = 16;  // per-epoch budget: ratchets online
          secure::SecureComm s(comm, sc);
          pingpong(s, st, &s, 0, 2, *ping, *pong, kIters);
          st.absorb(s);
          // Rank 0 receives the last payload, so its count is complete.
          if (me == 0) st.counts.exposures += s.exposure_events();
          st.counts.ratchets += ring->counters().ratchets;
          st.counts.catchup_opens += ring->counters().catchup_opens;
          st.counts.cache_hits += ring->cache_stats().hits;
          st.counts.cache_misses += ring->cache_stats().misses;
        });
      };
      w.cells.push_back(std::move(cell));
    }
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pingpong_small", "bulk_stream", "collectives", "lossy_wan"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "pingpong_small") return pingpong_small(seed);
  if (name == "bulk_stream") return bulk_stream(seed);
  if (name == "collectives") return collectives(seed);
  if (name == "lossy_wan") return lossy_wan(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string oracle_line(const std::string& workload, const Cell& cell,
                        const JobResult& r) {
  char end[64];
  std::snprintf(end, sizeof end, "%a", r.virtual_end);
  std::string line = workload + "/" + cell.name + " " + end;
  for (const CountField& f : kCountFields) {
    line += ' ';
    line += f.name;
    line += '=';
    line += std::to_string(r.counts.*f.member);
  }
  return line;
}

}  // namespace emc::hostbench
