#include "stats/timeseries.h"

#include <algorithm>

namespace hpcc::stats {

void TimeSeries::set_max_points(size_t max_points) {
  // A cap under 4 would thin the series down to almost nothing on every
  // Add; clamp so the endpoints plus some interior always survive.
  max_points_ = max_points == 0 ? 0 : std::max<size_t>(max_points, 4);
  if (max_points_ != 0) {
    while (points_.size() >= max_points_) Compact();
  }
}

void TimeSeries::Compact() {
  if (points_.size() < 2) return;
  size_t out = 0;
  for (size_t i = 0; i < points_.size(); i += 2) points_[out++] = points_[i];
  points_.resize(out);
}

}  // namespace hpcc::stats
