#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/audit.hpp"

namespace rubin::net {

Fabric::Fabric(sim::Simulator& sim, CostModel cost, std::size_t host_count)
    : sim_(&sim), cost_(cost), egress_free_(host_count, 0) {}

std::optional<Fabric::TxPlan> Fabric::plan_transmit(HostId src, HostId dst,
                                                    std::size_t payload_bytes) {
  if (src >= egress_free_.size() || dst >= egress_free_.size()) {
    throw std::out_of_range("Fabric::transmit: host id out of range");
  }

  // Anything larger than the MTU goes out as back-to-back segments; the
  // serialization time is the same as one long frame, but each segment
  // pays its own header overhead.
  const std::size_t wire_bytes =
      payload_bytes + cost_.segments(payload_bytes) * cost_.frame_overhead_bytes;
  bytes_on_wire_ += wire_bytes;

  // Global and per-pair losses are independent events, rolled as one
  // combined Bernoulli trial so a run with only the global rate set
  // consumes the drop stream exactly as it always has.
  double loss = drop_rate_;
  if (!pair_drop_.empty()) {
    if (auto it = pair_drop_.find(ordered(src, dst)); it != pair_drop_.end()) {
      loss = 1.0 - (1.0 - loss) * (1.0 - it->second);
    }
  }
  // Every call is one schedule decision point, dropped or not — the
  // explorer's perturbation indices must stay stable when a perturbation
  // turns a delivery into a drop.
  const std::uint64_t frame_index = frame_seq_++;

  // Partition/one-way checks are pure map lookups — they consume no RNG,
  // so arming them never perturbs the drop sequences pinned tests replay.
  if (is_partitioned(src, dst) || is_oneway_blocked(src, dst) ||
      (loss > 0.0 && drop_rng_.chance(loss))) {
    ++frames_dropped_;
    RUBIN_AUDIT_COUNT("fabric.frames_dropped", 1);
    if (frame_probe_) {
      frame_probe_(FramePoint{frame_index, src, dst, payload_bytes, 0, true});
    }
    return std::nullopt;
  }

  // Egress serialization: the port transmits one frame at a time.
  const sim::Time start = std::max(sim_->now(), egress_free_[src]);
  const sim::Time tx_done = start + cost_.wire_serialization(wire_bytes);
  egress_free_[src] = tx_done;

  sim::Time arrival = tx_done + cost_.propagation;
  // Fault-injection maps are empty in every benchmark and most tests;
  // skip the tree walks entirely then.
  if (!extra_delay_.empty()) {
    if (auto it = extra_delay_.find(ordered(src, dst));
        it != extra_delay_.end()) {
      arrival += it->second;
    }
  }

  TxPlan plan;
  // Each fault die only rolls when its rate is armed, so fault-free runs
  // replay bit-identically whether or not this code exists.
  if (corrupt_rate_ > 0.0 && corrupt_rng_.chance(corrupt_rate_)) {
    plan.fault.corrupt = true;
    plan.fault.corrupt_offset = static_cast<std::uint32_t>(corrupt_rng_.next());
    plan.fault.corrupt_mask =
        static_cast<std::uint8_t>(corrupt_rng_.next_in(1, 255));
    ++frames_corrupted_;
    RUBIN_AUDIT_COUNT("fabric.frames_corrupted", 1);
  }
  if (reorder_rate_ > 0.0 && reorder_rng_.chance(reorder_rate_)) {
    // Holding this frame back past its successors' arrivals is what
    // reordering *is* on a store-and-forward network.
    arrival += reorder_delay_;
    ++frames_reordered_;
    RUBIN_AUDIT_COUNT("fabric.frames_reordered", 1);
  }
  // Targeted per-decision-point delay (explorer delivery-order swaps).
  if (!frame_delay_.empty()) {
    if (auto it = frame_delay_.find(frame_index); it != frame_delay_.end()) {
      arrival += it->second;
    }
  }
  plan.arrival = arrival;
  if (duplicate_rate_ > 0.0 && duplicate_rng_.chance(duplicate_rate_)) {
    // The ghost copy trails the original by a propagation delay, as if a
    // switch replayed it.
    plan.dup_arrival = arrival + cost_.propagation + 1;
    ++frames_duplicated_;
    RUBIN_AUDIT_COUNT("fabric.frames_duplicated", 1);
  }

  ++frames_delivered_;
  if (frame_probe_) {
    frame_probe_(
        FramePoint{frame_index, src, dst, payload_bytes, plan.arrival, false});
  }
  return plan;
}

void Fabric::set_pair_drop_rate(HostId a, HostId b, double p) {
  if (p <= 0.0) {
    pair_drop_.erase(ordered(a, b));
  } else {
    pair_drop_[ordered(a, b)] = p;
  }
}

void Fabric::set_partitioned(HostId a, HostId b, bool blocked) {
  partitioned_[ordered(a, b)] = blocked;
}

bool Fabric::is_partitioned(HostId a, HostId b) const {
  if (partitioned_.empty()) return false;
  const auto it = partitioned_.find(ordered(a, b));
  return it != partitioned_.end() && it->second;
}

void Fabric::set_oneway_blocked(HostId src, HostId dst, bool blocked) {
  oneway_blocked_[{src, dst}] = blocked;
}

bool Fabric::is_oneway_blocked(HostId src, HostId dst) const {
  if (oneway_blocked_.empty()) return false;
  const auto it = oneway_blocked_.find({src, dst});
  return it != oneway_blocked_.end() && it->second;
}

void Fabric::set_extra_delay(HostId a, HostId b, sim::Time delay) {
  extra_delay_[ordered(a, b)] = delay;
}

void Fabric::reseed_faults(std::uint64_t seed) {
  // Per-kind streams from one scenario seed: splitmix-style derivation so
  // neighbouring seeds do not produce correlated dice. Reseeding covers
  // the drop stream too — a scenario seed sweep must actually sweep the
  // loss schedule, not replay whatever the default stream had left.
  drop_rng_ = Rng(seed);
  corrupt_rng_ = Rng(seed ^ 0x9e3779b97f4a7c15ULL);
  duplicate_rng_ = Rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  reorder_rng_ = Rng(seed ^ 0x165667b19e3779f9ULL);
}

void Fabric::set_frame_extra_delay(std::uint64_t index, sim::Time extra) {
  if (extra == 0) {
    frame_delay_.erase(index);
  } else {
    frame_delay_[index] = extra;
  }
}

}  // namespace rubin::net
