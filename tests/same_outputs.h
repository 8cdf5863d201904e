// ExpectSameOutputs: ScenarioRunner::CompareOutputs as a gtest check, one
// failure per difference (each naming its point and item). Every suite that
// pins a byte-identity contract — jobs, engines, lanes, warm vs cold,
// resume, telemetry on/off — asserts output equality through it.
#pragma once

#include <gtest/gtest.h>

#include <span>

#include "scenario/runner.h"

namespace hpcc::scenario {

inline void ExpectSameOutputs(std::span<const SweepRunResult> a,
                              std::span<const SweepRunResult> b) {
  for (const OutputDiff& d : ScenarioRunner::CompareOutputs(a, b)) {
    ADD_FAILURE() << d.Format();
  }
}

}  // namespace hpcc::scenario
