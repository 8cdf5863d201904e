// Golden-trace hashing: an order-independent digest over per-flow outcomes.
//
// Two runs of the same scenario are "the same run" iff every flow saw the
// same (id, endpoints, size, start, finish, completion) tuple — regardless
// of the order the records are folded in, so a run's digest does not depend
// on how its flows were split across execution lanes.
// The digest is integer-only (ids, byte counts, picosecond times), so it is
// independent of float formatting and stable across platforms that simulate
// identically.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace hpcc::stats {

class TraceHash {
 public:
  // Folds one flow outcome into the digest. Commutative and associative:
  // any record order yields the same digest.
  void AddFlow(uint64_t flow_id, uint32_t src, uint32_t dst,
               uint64_t size_bytes, sim::TimePs start, sim::TimePs finish,
               bool completed);

  uint64_t digest() const;
  std::string hex() const;  // 16 lowercase hex digits of digest()
  uint64_t count() const { return count_; }

 private:
  uint64_t acc_ = 0;    // wrapping sum of per-record hashes (commutative)
  uint64_t count_ = 0;  // records folded, mixed into the final digest
};

}  // namespace hpcc::stats
