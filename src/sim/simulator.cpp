#include "sim/simulator.hpp"

#include <exception>
#include <unordered_set>

#include "common/audit.hpp"
#include "common/log.hpp"

namespace rubin::sim {

/// Grants the root-task driver access to Simulator::root_finished without
/// making it part of the public API.
struct RootDriverAccess {
  static void finished(Simulator* sim, std::uint32_t slot,
                       std::uint64_t id) noexcept {
    sim->root_finished(slot, id);
  }
};

namespace {

/// Driver for root tasks: owns the child Task in its frame (so the whole
/// chain dies with it). The Simulator owns the driver itself — that is
/// what lets a simulator torn down mid-run destroy suspended processes
/// instead of leaking their frames.
Task<> drive(Task<> task, Simulator* sim, std::uint32_t slot,
             std::uint64_t id) {
  try {
    co_await std::move(task);
  } catch (...) {
    log_error("sim", "fatal: exception escaped a root sim task");
    std::terminate();
  }
  RootDriverAccess::finished(sim, slot, id);
}

}  // namespace

Simulator::~Simulator() { terminate_processes(); }

void Simulator::terminate_processes() {
  reap_finished_roots();
  // Remaining drivers are suspended mid-chain; destroying them unwinds
  // each process's frames (and their locals) without resuming anything.
  // Pending start events in the queues look their root up by (slot, id)
  // and become no-ops.
  roots_.clear();
  free_root_slots_.clear();
  live_roots_ = 0;
}

void Simulator::release_slot(std::uint32_t slot) {
  TimerSlot& s = slot_ref(slot);
  s.fn.reset();  // destroy a cancelled (never-run) callable
  s.cancelled = false;
  ++s.generation;  // stale TimerIds for this slot stop matching
  free_slots_.push_back(slot);
}

void Simulator::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffULL);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  // Generation mismatch means the timer already fired (or was cancelled)
  // and its slot may have moved on: a guaranteed O(1) no-op, never a
  // tombstone. This is what keeps cancel-after-fire from growing state.
  if (slot < slot_count_ && slot_ref(slot).generation == generation) {
    slot_ref(slot).cancelled = true;
  }
}

void Simulator::spawn(Task<> task) {
  ++live_roots_;
  const std::uint64_t id = next_root_id_++;
  std::uint32_t slot = 0;
  if (free_root_slots_.empty()) {
    slot = static_cast<std::uint32_t>(roots_.size());
    roots_.emplace_back();
  } else {
    slot = free_root_slots_.back();
    free_root_slots_.pop_back();
  }
  roots_[slot].id = id;
  roots_[slot].task = drive(std::move(task), this, slot, id);
  // Start through the queue so spawn order == start order and spawn()
  // itself never runs user code. The driver is lazy (initial_suspend);
  // this first resume kicks it off. The (slot, id) check makes the start
  // event a no-op if the root was torn down (or its slot reused) first.
  post([this, slot, id] {
    // Bounds check first: terminate_processes() may have emptied roots_
    // while this start event was still queued.
    if (slot < roots_.size() && roots_[slot].id == id &&
        roots_[slot].task.valid()) {
      roots_[slot].task.handle().resume();
    }
  });
}

bool Simulator::dispatch(Time t, std::uintptr_t payload) {
  if ((payload & kSlotTag) == 0) {
    // Coroutine fast path: nothing to look up, nothing to free.
    now_ = t;
    ++events_processed_;
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(payload))
        .resume();
    return true;
  }
  const auto slot = static_cast<std::uint32_t>(payload >> 1);
  TimerSlot& s = slot_ref(slot);
  if (s.cancelled) {
    release_slot(slot);
    return false;
  }
  now_ = t;
  ++events_processed_;
  // Run the callable *in place*: slot chunks never move, so the slot's
  // address survives any growth the callback triggers by scheduling new
  // work. call_and_destroy fuses invoke + teardown into one indirect
  // call; the slot is only released afterwards, so the callback cannot
  // observe its own slot reused mid-call.
  s.fn.call_and_destroy();
  release_slot(slot);
  return true;
}

bool Simulator::step() {
  if (!finished_roots_.empty()) reap_finished_roots();
  for (;;) {
    Time t = 0;
    std::uintptr_t payload = 0;
    if (!now_queue_.empty()) {
      // Ring entries all sit at now_; the heap can still hold an earlier
      // (t == now_, smaller seq) entry scheduled before time advanced
      // here, which must fire first to keep global (t, seq) order.
      const NowEntry& n = now_queue_.front();
      if (!pending_empty() && pending_front().t == now_ &&
          pending_front().seq < n.seq) {
        const HeapEntry e = pending_pop();
        t = e.t;
        payload = e.payload;
      } else {
        t = now_;
        payload = n.payload;
        (void)now_queue_.pop();
      }
    } else if (!pending_empty()) {
      const HeapEntry e = pending_pop();
      // Virtual time is monotonic: the heap orders by (t, seq) and
      // schedule_at clamps to now, so a popped entry in the past means
      // the heap property was violated.
      RUBIN_AUDIT_ASSERT("sim", e.t >= now_,
                         "event popped out of order (time went backwards)");
      t = e.t;
      payload = e.payload;
    } else {
      return false;
    }
    if (dispatch(t, payload)) return true;
    // Cancelled entry: skipped without counting; keep looking.
  }
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time deadline) {
  for (;;) {
    Time next = 0;
    if (!now_queue_.empty()) {
      next = now_;  // ring entries fire at the current instant
    } else if (!pending_empty()) {
      next = pending_front().t;
    } else {
      break;
    }
    if (next > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::root_finished(std::uint32_t slot, std::uint64_t id) noexcept {
  RUBIN_AUDIT_ASSERT("sim", live_roots_ > 0,
                     "root task finished with no live roots (double "
                     "completion or unbalanced accounting)");
  RUBIN_AUDIT_ASSERT("sim", slot < roots_.size() && roots_[slot].id == id,
                     "finishing root does not own its slot");
  if (live_roots_ > 0) --live_roots_;
  // Called from inside the finishing driver's own frame: the erase (and
  // frame destruction) must wait until it has parked at final_suspend.
  finished_roots_.push_back(slot);
}

void Simulator::reap_finished_roots() {
  for (const std::uint32_t slot : finished_roots_) {
    roots_[slot].task = Task<>();  // destroys the parked driver frame
    roots_[slot].id = RootSlot::kNoRoot;
    free_root_slots_.push_back(slot);
  }
  finished_roots_.clear();
}

bool Simulator::validate_heap() const {
  // 4-ary heap property: every entry fires no earlier than its parent.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    if (heap_[i].fires_before(heap_[(i - 1) / 4])) return false;
  }
  std::unordered_set<std::uint64_t> seen_seq;
  std::unordered_set<std::uintptr_t> seen_slot;
  seen_seq.reserve(heap_.size() + now_queue_.size());
  const std::unordered_set<std::uint32_t> free_set(free_slots_.begin(),
                                                   free_slots_.end());
  const auto entry_ok = [&](Time t, std::uint64_t seq,
                            std::uintptr_t payload) {
    if (t < now_) return false;
    if (seq >= next_seq_) return false;
    if (!seen_seq.insert(seq).second) return false;  // duplicate seq
    if ((payload & kSlotTag) != 0) {
      const auto slot = static_cast<std::uint32_t>(payload >> 1);
      if (slot >= slot_count_) return false;          // dangling slot
      if (free_set.contains(slot)) return false;      // freed while queued
      if (!seen_slot.insert(payload).second) return false;  // double-queued
    }
    return true;
  };
  for (const HeapEntry& e : heap_) {
    if (!entry_ok(e.t, e.seq, e.payload)) return false;
  }
  // The sorted run must be non-decreasing in firing order (its invariant)
  // and its consumed prefix [0, run_head_) is dead — skip it.
  for (std::size_t i = run_head_; i < sorted_run_.size(); ++i) {
    const HeapEntry& e = sorted_run_[i];
    if (!entry_ok(e.t, e.seq, e.payload)) return false;
    if (i + 1 < sorted_run_.size() &&
        sorted_run_[i + 1].fires_before(e)) {
      return false;
    }
  }
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const NowEntry& n : now_queue_) {
    // Ring entries all fire at now_ and must be in strict FIFO seq order.
    if (!entry_ok(now_, n.seq, n.payload)) return false;
    if (!first && n.seq <= prev_seq) return false;
    prev_seq = n.seq;
    first = false;
  }
  return true;
}

}  // namespace rubin::sim
