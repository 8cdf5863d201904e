#include "stats/percentile.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hpcc::stats {

namespace {

double RankInterpolate(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

void PercentileTracker::Sort() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileTracker::Percentile(double p) const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (sorted_) return RankInterpolate(samples_, p);
  // Unsorted read: sort a local copy so concurrent readers never race.
  std::vector<double> copy = samples_;
  std::sort(copy.begin(), copy.end());
  return RankInterpolate(copy, p);
}

}  // namespace hpcc::stats
