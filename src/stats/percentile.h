// Exact percentile tracking over collected samples.
//
// Thread-safety contract: const readers never mutate the tracker, so any
// number of threads may read one tracker concurrently (sweep aggregation,
// lane merges). Reading an unsorted tracker is correct but copies the
// samples; call Sort() once at the collection boundary (after the last
// Add/Merge) to make subsequent reads allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcc::stats {

class PercentileTracker {
 public:
  void Add(double sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  // Folds another tracker's samples in. Percentiles sort before answering,
  // so the merged result is independent of merge order — shard-merged
  // statistics equal the single-sim ones exactly.
  void Merge(const PercentileTracker& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  // Sorts in place so later const reads hit the zero-copy fast path. Call
  // after the final Add/Merge, before the tracker is shared across threads.
  void Sort();

  // p in [0, 100]; exact nearest-rank percentile (linear interpolation
  // between adjacent ranks). Returns NaN on no samples, so downstream
  // formatting can distinguish "no data" from a real 0.
  double Percentile(double p) const;
  size_t Count() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }

 private:
  std::vector<double> samples_;
  bool sorted_ = true;  // an empty tracker is trivially sorted
};

}  // namespace hpcc::stats
