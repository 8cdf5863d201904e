#include "stats/trace_hash.h"

#include <cstdio>

#include "core/hash.h"

namespace hpcc::stats {
namespace {

// The splitmix64 avalanche makes the wrapping-sum accumulator safe against
// records cancelling each other out.
using core::SplitMix64;

uint64_t Fold(uint64_t h, uint64_t v) { return SplitMix64(h ^ v); }

}  // namespace

void TraceHash::AddFlow(uint64_t flow_id, uint32_t src, uint32_t dst,
                        uint64_t size_bytes, sim::TimePs start,
                        sim::TimePs finish, bool completed) {
  uint64_t h = SplitMix64(flow_id);
  h = Fold(h, (static_cast<uint64_t>(src) << 32) | dst);
  h = Fold(h, size_bytes);
  h = Fold(h, static_cast<uint64_t>(start));
  h = Fold(h, static_cast<uint64_t>(finish));
  h = Fold(h, completed ? 1 : 0);
  acc_ += h;  // wrapping add: order-independent
  ++count_;
}

uint64_t TraceHash::digest() const { return Fold(SplitMix64(count_), acc_); }

std::string TraceHash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest()));
  return buf;
}

}  // namespace hpcc::stats
