// Discrete-event simulator: a single-threaded event loop over a timing ring.
//
// This is the substrate replacing ns-3 in the paper's evaluation (§5). All
// network components schedule closures at absolute picosecond timestamps;
// ties are broken by insertion order so runs are fully deterministic.
//
// The hot path is allocation-free and (near-)constant time:
//
//  - Closures live in a slot-indexed event arena — a flat vector of pooled
//    slots recycled through a free list — inside small-buffer sim::Callback
//    storage. An EventId encodes {slot, generation}; the generation advances
//    on every allocation and release, so Cancel is an O(1) tag comparison
//    plus slot release (no tombstone set, no map), and a stale id can never
//    touch a newer event.
//
//  - The pending-event queue is a two-level structure. Events within the
//    near-future window (kBucketCount buckets of kBucketWidth picoseconds,
//    ~2 µs — sized to cover serialization, propagation and CC-timer delays)
//    go into a timing ring: O(1) append into the bucket of their timestamp,
//    ordered lazily by a tiny per-bucket 4-ary min-heap when the wheel
//    drains that bucket. Events beyond the window go to a far 4-ary heap
//    and migrate into the ring when the window reaches them. Everything is
//    ordered by (time, schedule sequence number), so the executed order is
//    identical to a single global priority queue — a comparison-based heap
//    at realistic queue depths (hundreds to thousands pending) costs ~90 ns
//    per event in sift alone, which this structure removes.
//
// Ownership and reentrancy rules:
//  - The Simulator owns every scheduled closure until it runs or is
//    cancelled; Cancel destroys the closure immediately.
//  - Callbacks run strictly single-threaded, in (time, insertion) order.
//  - A callback may freely Schedule new events, including at now(), and may
//    Cancel any pending event — cancelling its own (currently running) id is
//    a no-op because the slot was released before invocation.
//  - EventIds are never reissued: a reused slot gets a fresh generation, so
//    holding an id after its event fired is safe (Cancel is a no-op), which
//    is what the RTO/CC-timer call sites rely on.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace hpcc::sim {

// {generation (odd = live), slot index} — see MakeEventId below. Id 0 never
// names a live event because live generations are odd.
using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// Same-timestamp ordering class, encoded into the queue records' tie-break
// key (top two bits of `seq`). Events at equal timestamps execute link
// boundary events first (serialization ends / train completions, ordered by
// link uid), then packet arrivals (ordered by emission time, then link uid),
// then everything else in scheduling order.
//
// This exists for the forwarding fast path: transmission trains schedule a
// packet's arrival when the train forms, not when the packet's serialization
// starts, so a seq assigned by scheduling *order* would make same-picosecond
// ties resolve differently than in the per-packet reference engine — and a
// phase-locked network (equal-rate links, equal-size packets) ties
// constantly. Keying arrivals by (emission time, link) and boundaries by
// (link) makes the execution order a function of simulation quantities both
// engines agree on, which is what lets `--fastpath=on/off` produce
// byte-identical results.
//
// Boundaries sort *before* arrivals deliberately: when a packet arrives at a
// port at exactly the instant its previous serialization ends, the reference
// engine's tx-complete is then guaranteed to have already fired, so the fast
// path may start transmitting inside the arrival event itself instead of
// scheduling a boundary event to stay order-aligned — that keeps store-and-
// forward chains across equal-rate links (arrival == boundary at every hop)
// at zero extra events per forwarded packet.
enum class EventClass : uint32_t { kBoundary = 0, kArrival = 1, kOther = 2 };

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Schedules `cb` to run at absolute time `at` (must be >= now()).
  EventId ScheduleAt(TimePs at, Callback cb);
  // Schedules `cb` to run `delay` after now().
  EventId ScheduleIn(TimePs delay, Callback cb);

  // Class-keyed scheduling (see EventClass). A packet arrival at `at`,
  // emitted onto link `link_uid` at `emission_time`; and a link boundary
  // (serialization end / train completion) on `link_uid`. Both tie-break
  // deterministically by their keys instead of scheduling order.
  EventId ScheduleArrival(TimePs at, TimePs emission_time, uint32_t link_uid,
                          Callback cb);
  EventId ScheduleBoundary(TimePs at, uint32_t link_uid, Callback cb);

  // Periodic hook: runs `tick` at `first`, then every `period` thereafter
  // for as long as it returns true. Each occurrence is an ordinary
  // EventClass::kOther event drawn from the normal schedule counter, so a
  // periodic hook interleaves with same-timestamp packet events under the
  // standard deterministic tie-breaks (boundaries, then arrivals, then this)
  // — which is what lets engines driven by it (e.g. the hybrid fluid ticks)
  // stay byte-identical across --fastpath=on/off and --jobs values. Returns
  // the id of the *first* occurrence only; the series owns its later
  // reschedules, and stopping is the callback's job (return false).
  EventId SchedulePeriodic(TimePs first, TimePs period,
                           std::function<bool()> tick);

  // Tie-break key of the currently executing event ((class << 62) | key);
  // kOtherSeqBase outside Run. The fast path consults it to decide whether
  // the reference engine's same-timestamp boundary would already have fired.
  uint64_t executing_seq() const { return executing_seq_; }
  EventClass executing_class() const {
    return static_cast<EventClass>(executing_seq_ >> kClassShift);
  }

  // Tie-break key the *next* ScheduleAt call would receive. Link-event
  // installation records this before scheduling a link-script marker so the
  // lane can later run seq-bounded up to (but excluding) that marker.
  uint64_t next_schedule_seq() const { return kOtherSeqBase | next_seq_; }

  // seq-encoding layout (public for the call sites that compare keys).
  static constexpr int kClassShift = 62;
  // Arrival key: emission time (43 bits, ~8.8 s — clamped beyond, which only
  // coarsens tie-breaks) then link uid (19 bits, wrapped beyond).
  static constexpr int kArrivalUidBits = 19;
  static constexpr TimePs kMaxKeyedEmission =
      (TimePs{1} << (kClassShift - kArrivalUidBits)) - 1;
  static constexpr uint64_t kArrivalSeqBase = uint64_t{1} << kClassShift;
  static constexpr uint64_t kOtherSeqBase = uint64_t{2} << kClassShift;

  static uint64_t BoundarySeq(uint32_t link_uid) {
    return link_uid & ((uint32_t{1} << kArrivalUidBits) - 1);
  }

  // --- Warm restore (checkpointed sweeps; see runner/experiment.h) --------
  // Re-schedules an event under a previously-issued tie-break key. A warm
  // restore replays a checkpointed simulator's pending events with their
  // original (at, seq) pairs, so the resumed execution order is the exact
  // order the checkpointing run would have used. `seq` must be a full
  // encoded key (class bits included), exactly as next_schedule_seq() /
  // executing_seq() report them.
  EventId ScheduleAtSeq(TimePs at, uint64_t seq, Callback cb) {
    return ScheduleKeyed(at, seq, std::move(cb));
  }
  // Jumps the clock, schedule counter and executed-event count to a
  // checkpoint's values (all pending events must already carry timestamps
  // >= `now`). The caller re-creates pending events via ScheduleAtSeq; this
  // only aligns the counters so post-restore ScheduleAt calls draw the same
  // seqs (and events_executed reports the same totals) as the run that took
  // the checkpoint.
  void Restore(TimePs now, uint64_t next_schedule_seq_value,
               uint64_t events_executed_value) {
    assert(now >= now_);
    now_ = now;
    next_seq_ = next_schedule_seq_value & (kArrivalSeqBase - 1);
    events_executed_ = events_executed_value;
  }
  // Cancels a pending event and destroys its closure. Cancelling an
  // already-run, already-cancelled, or invalid id is a no-op.
  void Cancel(EventId id);

  // Runs until the event queue empties, `until` is reached, Stop(), or the
  // event budget is exhausted. Returns the number of events executed.
  //
  // `until_seq` refines the horizon for events at exactly `until`: only
  // events with tie-break seq < until_seq execute there (default: all of
  // them). The experiment's round loop uses this to stop each lane exactly
  // *before* a same-timestamp link-script marker, so the script applies at a
  // barrier in the marker's place in the event order.
  uint64_t Run(TimePs until = std::numeric_limits<TimePs>::max(),
               uint64_t until_seq = std::numeric_limits<uint64_t>::max());
  // Stops the run loop after the current event returns.
  void Stop() { stopped_ = true; }

  // Watchdog against event storms/livelocks (e.g. a callback rescheduling
  // itself at now() forever would otherwise hang Run at a frozen clock):
  // once `events_executed()` reaches the budget, Run returns immediately and
  // `budget_exhausted()` latches true if events are still pending (a queue
  // that drained exactly at the budget completed normally). The scenario
  // fuzzer turns this into an invariant violation instead of a hung
  // process. Default: unlimited.
  void set_event_budget(uint64_t max_total_events) {
    event_budget_ = max_total_events;
  }
  bool budget_exhausted() const { return budget_exhausted_; }

  // Wall-clock watchdog (per-point sweep deadlines): once the steady clock
  // passes `deadline`, Run returns and `deadline_exceeded()` latches true.
  // Checked every kDeadlineCheckStride events, so it changes only how *far*
  // the run gets — never the order of the events executed before the stop;
  // the simulated state at the stop is a prefix of the undisturbed run.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    has_deadline_ = true;
  }
  bool deadline_exceeded() const { return deadline_exceeded_; }

  TimePs now() const { return now_; }
  uint64_t events_executed() const { return events_executed_; }
  // Scheduled events that are neither cancelled nor executed. Maintained as
  // a direct live count, so it can never underflow however ids are cancelled
  // around Run() boundaries.
  size_t pending_events() const { return live_events_; }

 private:
  // One arena slot. `gen` is odd while the slot holds a live event and even
  // while free; it advances on every transition, so each (slot, gen) pair
  // names one event ever (modulo 2^31 reuses of a single slot).
  struct Slot {
    Callback cb;
    uint32_t gen = 0;
    uint32_t next_free = 0;  // free-list link, valid while gen is even
  };

  // Queue records are plain data; the closure stays in the slot. `seq` is
  // the same-timestamp tie-break: (EventClass << 62) | class key — a
  // monotone schedule counter for kOther, simulation-derived keys for
  // arrivals and boundaries (see EventClass above).
  struct HeapEntry {
    TimePs at;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  // Bitwise-composed so the comparison compiles to flag arithmetic + cmov
  // rather than branches: the sift loops' child selection is data-dependent
  // and mispredicts dominate its cost when branchy.
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
  }

  // Timing-ring geometry. Width × count must exceed the longest hot-path
  // delay (serialization + propagation ≈ 1.1 µs on the paper's links) so
  // per-packet events never touch the far heap; ms-scale RTO and scenario
  // timers do, at negligible rate.
  static constexpr int kBucketBits = 12;
  static constexpr size_t kBucketCount = size_t{1} << kBucketBits;  // 4096
  static constexpr int kBucketWidthBits = 9;  // 512 ps per bucket
  static constexpr TimePs kBucketWidth = TimePs{1} << kBucketWidthBits;
  static constexpr TimePs kWindowPs =
      static_cast<TimePs>(kBucketCount) * kBucketWidth;  // ~2.1 µs

  // A ring bucket: appended to in O(1) while future, turned into a 4-ary
  // min-heap (heapified) when the wheel starts draining it.
  struct Bucket {
    std::vector<HeapEntry> entries;
    bool heapified = false;
  };

  // 4-ary min-heap primitives shared by the buckets and the far heap.
  static void HeapPush(std::vector<HeapEntry>& h, const HeapEntry& e);
  static void HeapPopMin(std::vector<HeapEntry>& h);
  static void HeapSiftDown(std::vector<HeapEntry>& h, size_t i);
  static void Heapify(std::vector<HeapEntry>& h);

  static EventId MakeEventId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  bool IsStale(const HeapEntry& e) const {
    return slots_[e.slot].gen != e.gen;
  }

  // Allocates a slot and inserts a queue record with the given tie-break.
  EventId ScheduleKeyed(TimePs at, uint64_t seq, Callback cb);
  // O(1) append of a queue record into its ring bucket.
  void InsertRing(const HeapEntry& e);
  // Pops the earliest live event with (at, seq) < (until, until_seq) into
  // *out. Returns false when there is none (queue empty or horizon reached).
  // Lazily discards stale (cancelled) records and migrates far events into
  // the ring.
  bool PopEarliest(TimePs until, uint64_t until_seq, HeapEntry* out);
  // First occupied bucket at circular distance >= 0 from `start`;
  // kBucketCount when the ring is empty.
  size_t NextOccupied(size_t start) const;

  // Destroys the slot's closure and returns it to the free list.
  void ReleaseSlot(uint32_t slot_index);

  TimePs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executing_seq_ = kOtherSeqBase;
  bool stopped_ = false;
  uint64_t events_executed_ = 0;
  uint64_t event_budget_ = std::numeric_limits<uint64_t>::max();
  bool budget_exhausted_ = false;
  // Amortization stride for the wall-deadline check: one steady_clock read
  // per this many executed events (~microseconds of wall time), so the
  // watchdog costs nothing measurable on the hot loop.
  static constexpr uint64_t kDeadlineCheckStride = 8192;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool has_deadline_ = false;
  bool deadline_exceeded_ = false;
  size_t live_events_ = 0;

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoFreeSlot;
  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;

  std::vector<Bucket> buckets_;      // kBucketCount ring buckets
  std::vector<uint64_t> occupied_;   // one bit per bucket
  std::vector<HeapEntry> far_heap_;  // events beyond the ring window
};

}  // namespace hpcc::sim
