// TrafficSource: the one interface behind "a thing that injects load".
//
// Poisson background generators, synchronized incast bursts, scripted
// load_phase events and trace replay all implement this surface, and every
// one of them lives in a runner::Experiment lane. The sources only ever see a
// FlowSink, which is what decouples flow *release* (when/where/how big) from
// flow *transport* (which engine carries the bytes). Each released flow
// carries a FlowClass telling the experiment which engine to install it on:
//
//   kPacket — a full packet-level Flow on the host scheduler (NIC, CC state,
//             per-packet events); the default, and the only class monitors
//             can fully check.
//   kFluid  — a window-trajectory flow on the analytic::FluidRegion engine;
//             no packets exist, only per-RTT window/queue state coupled into
//             the shared ports' INT stamps (see analytic/fluid_region.h).
//
// The base class owns everything a warm checkpoint carries: the source's one
// pending self-schedule (a sim::RestorableEvent), its RNG engine and its
// emission counter. Subclasses only decide when to fire and what a firing
// releases.
#pragma once

#include <cstdint>

#include "sim/restorable_event.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace hpcc::workload {

// Which transport engine carries a released flow's bytes.
enum class FlowClass : uint8_t { kPacket = 0, kFluid = 1 };

class TrafficSource {
 public:
  // Checkpointed source state (warm-start sweeps): the pending self-schedule
  // with its original (time, tie-break seq), the RNG engine and the emission
  // counter. Sources without randomness (trace replay) carry their unused
  // engine along.
  struct WarmState {
    sim::RestorableEvent::State next;
    sim::Rng rng;
    uint64_t count = 0;
  };

  TrafficSource(const TrafficSource&) = delete;
  TrafficSource& operator=(const TrafficSource&) = delete;
  virtual ~TrafficSource() = default;

  // Begins self-scheduling emissions through the simulator's event queue.
  virtual void Start() = 0;
  // Emission counter: flows for flow-grained sources, burst events for the
  // incast generator.
  uint64_t emitted() const { return emitted_; }

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // Earliest simulation time this source touches after Start. A checkpoint
  // leaves a source that starts at or beyond its instant alone: that
  // source's own install-time schedule already matches.
  virtual sim::TimePs first_activity() const = 0;
  // Whether a self-scheduled event is currently pending (checkpoint-time
  // event accounting).
  bool warm_pending() const { return next_.pending(); }
  WarmState CaptureWarm() const { return {next_.Capture(), rng_, emitted_}; }
  // Cancels this source's own pending event and replays the captured one
  // under its original (time, seq) key; restores the RNG and the counter.
  void RestoreWarm(const WarmState& w) {
    next_.Restore(w.next);
    rng_ = w.rng;
    emitted_ = w.count;
  }

 protected:
  // The steps a source schedules: the start-of-generation kickoff (Poisson
  // only) and an emission.
  enum Step : int { kKickoff = 1, kEmit = 2 };

  TrafficSource(sim::Simulator* simulator, uint64_t seed)
      : simulator_(simulator),
        rng_(seed),
        next_(simulator, [this](int step) { Fire(step); }) {}

  // Schedules the source's next step (at most one is ever pending).
  void Schedule(Step step, sim::TimePs at) { next_.Schedule(step, at); }
  // Runs a scheduled step.
  virtual void Fire(int step) = 0;

  sim::Simulator* simulator_;
  sim::Rng rng_;
  uint64_t emitted_ = 0;

 private:
  sim::RestorableEvent next_;
};

}  // namespace hpcc::workload
