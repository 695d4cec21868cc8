#include "emc/trace/trace.hpp"

#include <stdexcept>
#include <string>

namespace emc::trace {

const char* category_name(Category c) noexcept {
  switch (c) {
    case Category::kCryptoEncrypt: return "crypto_encrypt";
    case Category::kCryptoDecrypt: return "crypto_decrypt";
    case Category::kWire: return "wire";
    case Category::kNicQueue: return "nic_queue";
    case Category::kSyncWait: return "sync_wait";
    case Category::kArqRetransmit: return "arq_retransmit";
    case Category::kCopy: return "copy";
    case Category::kCompute: return "compute";
    case Category::kRelayForward: return "relay_forward";
    case Category::kCryptoHelper: return "crypto_helper";
    case Category::kPipelineStall: return "pipeline_stall";
    case Category::kKeyMgmt: return "key_mgmt";
  }
  return "unknown";
}

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}
}  // namespace

TraceRecorder::TraceRecorder(const Config& config, int num_ranks)
    : config_(config) {
  if (num_ranks < 1) {
    throw std::invalid_argument("TraceRecorder: num_ranks must be >= 1");
  }
  if (config_.ring_capacity < 1) {
    throw std::invalid_argument("TraceRecorder: ring_capacity must be >= 1");
  }
  const std::size_t cap = round_up_pow2(config_.ring_capacity);
  mask_ = cap - 1;
  ranks_.resize(static_cast<std::size_t>(num_ranks));
  for (Rank& r : ranks_) r.ring.resize(cap);
}

std::size_t TraceRecorder::checked(int rank) const {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) {
    throw std::out_of_range("TraceRecorder: rank " + std::to_string(rank) +
                            " out of range");
  }
  return static_cast<std::size_t>(rank);
}

void TraceRecorder::record(int rank, Category category, double begin,
                           double end, int peer,
                           std::uint64_t bytes) noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) return;
  if (end < begin) end = begin;
  Rank& r = ranks_[static_cast<std::size_t>(rank)];
  r.seconds[static_cast<std::size_t>(category)] += end - begin;
  Event& slot = r.ring[r.count & mask_];
  slot.begin = begin;
  slot.end = end;
  slot.bytes = bytes;
  slot.peer = peer;
  slot.category = category;
  ++r.count;
}

void TraceRecorder::begin_run(double at) noexcept {
  run_begin_ = at;
  for (Rank& r : ranks_) {
    r.seconds = {};
    r.end_time = at;
  }
}

std::vector<Event> TraceRecorder::events(int rank) const {
  const Rank& r = ranks_[checked(rank)];
  const std::uint64_t cap = r.ring.size();
  const std::uint64_t held = r.count < cap ? r.count : cap;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(held));
  for (std::uint64_t i = r.count - held; i < r.count; ++i) {
    out.push_back(r.ring[i & mask_]);
  }
  return out;
}

}  // namespace emc::trace
