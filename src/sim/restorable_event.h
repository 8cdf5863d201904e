// RestorableEvent: the one self-scheduled event a traffic source or the
// queue monitor keeps pending, in a form a warm checkpoint can carry.
//
// Schedule records the tie-break seq it draws next to the time, so Capture
// reports the pending occurrence as {kind, at, seq}. Restore, in a freshly
// built identical run, cancels whatever occurrence is pending there and
// re-schedules the captured one under its original (at, seq) key. The queue
// orders events by that key alone, so the order in which a restore replays
// its events does not matter: the continued run executes them exactly as the
// checkpointing run would have.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.h"

namespace hpcc::sim {

class RestorableEvent {
 public:
  // The pending occurrence. `kind` is the owner's step to run (0 = nothing
  // pending); (at, seq) is its queue key.
  struct State {
    int kind = 0;
    TimePs at = 0;
    uint64_t seq = 0;
  };

  // `fire(kind)` runs each occurrence. The event is no longer pending when
  // it does, so `fire` may Schedule the next one.
  RestorableEvent(Simulator* simulator, std::function<void(int)> fire)
      : simulator_(simulator), fire_(std::move(fire)) {}
  RestorableEvent(const RestorableEvent&) = delete;
  RestorableEvent& operator=(const RestorableEvent&) = delete;

  // Schedules occurrence `kind` (> 0) at `at` under the next schedule seq.
  void Schedule(int kind, TimePs at) {
    state_ = {kind, at, simulator_->next_schedule_seq()};
    id_ = simulator_->ScheduleAt(at, Occurrence(kind));
  }
  bool pending() const { return state_.kind != 0; }
  const State& Capture() const { return state_; }
  // Cancels the pending occurrence, if any, and schedules `s`'s under its
  // captured key (nothing when `s` has none pending).
  void Restore(const State& s) {
    if (pending()) simulator_->Cancel(id_);
    state_ = s;
    if (pending()) {
      id_ = simulator_->ScheduleAtSeq(s.at, s.seq, Occurrence(s.kind));
    }
  }

 private:
  Callback Occurrence(int kind) {
    return [this, kind] {
      state_.kind = 0;
      fire_(kind);
    };
  }

  Simulator* simulator_;
  std::function<void(int)> fire_;
  State state_;
  EventId id_ = kInvalidEvent;
};

}  // namespace hpcc::sim
