// Simple bounded (time, value) series: the telemetry tracks' storage.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace hpcc::stats {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(size_t max_points) { set_max_points(max_points); }

  void Add(sim::TimePs t, double v) {
    if (max_points_ != 0 && points_.size() >= max_points_) Compact();
    points_.emplace_back(t, v);
  }
  const std::vector<std::pair<sim::TimePs, double>>& points() const {
    return points_;
  }
  bool empty() const { return points_.empty(); }

  // Bounds memory: once the series holds max_points entries the next Add
  // drops every other point (stride doubling), so an arbitrarily long
  // sampling run keeps the first point, the latest point and a uniformly
  // thinned middle while never exceeding the cap. 0 (default) = unbounded.
  void set_max_points(size_t max_points);
  size_t max_points() const { return max_points_; }

 private:
  void Compact();  // keep even indices: halves size, doubles the stride

  std::vector<std::pair<sim::TimePs, double>> points_;
  size_t max_points_ = 0;
};

}  // namespace hpcc::stats
