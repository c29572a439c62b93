#include "faultlab/lab.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/codec.hpp"

namespace rubin::faultlab {

void FaultAction::apply(Lab& lab) const {
  switch (kind) {
    case Kind::kCrash:
      lab.replica(a).inject_crash();
      return;
    case Kind::kSetStrategy: {
      auto strategy = reptor::make_strategy_by_name(name);
      if (!strategy) {
        throw std::invalid_argument("unknown replica strategy: " + name);
      }
      lab.replica(a).set_strategy(std::move(strategy));
      return;
    }
    case Kind::kDropRate:
      lab.fabric().set_drop_rate(rate);
      return;
    case Kind::kCorruptRate:
      lab.fabric().set_corrupt_rate(rate);
      return;
    case Kind::kDuplicateRate:
      lab.fabric().set_duplicate_rate(rate);
      return;
    case Kind::kReorder:
      lab.fabric().set_reorder_delay(t);
      lab.fabric().set_reorder_rate(rate);
      return;
    case Kind::kPairDrop:
      lab.fabric().set_pair_drop_rate(a, b, rate);
      return;
    case Kind::kExtraDelay:
      lab.fabric().set_extra_delay(a, b, t);
      return;
    case Kind::kOneway:
      lab.fabric().set_oneway_blocked(a, b, true);
      return;
    case Kind::kIsolate:
      lab.isolate(a);
      return;
    case Kind::kHeal:
      lab.heal_fabric();
      return;
    case Kind::kNicStall:
      if (lab.harness().has_devices()) lab.device(a).inject_nic_stall(t);
      return;
    case Kind::kQpErrors:
      if (lab.harness().has_devices()) lab.device(a).inject_qp_errors();
      return;
  }
}

Lab::Lab(Scenario scenario, reptor::Backend backend)
    : scenario_(std::move(scenario)), backend_(backend) {
  harness_ = std::make_unique<reptor::BftHarness>(
      backend_, scenario_.n, scenario_.clients);
  if (scenario_.one_sided && backend_ == reptor::Backend::kRubin) {
    harness_->enable_decision_log();
  }

  std::vector<bool> correct(scenario_.n, true);
  for (const auto& [id, mk] : scenario_.strategies) correct.at(id) = false;
  for (reptor::NodeId id : scenario_.runtime_faulty) correct.at(id) = false;
  std::set<reptor::NodeId> byz_clients;
  for (const auto& [ordinal, mk] : scenario_.client_strategies) {
    byz_clients.insert(static_cast<reptor::NodeId>(scenario_.n + ordinal));
  }
  checker_.emplace(std::move(correct), std::move(byz_clients));

  fired_.assign(scenario_.events.size(), false);
  expected_ =
      static_cast<std::uint64_t>(scenario_.clients) * scenario_.requests;
}

Lab::~Lab() = default;

void Lab::isolate(net::HostId host) {
  const std::uint32_t hosts = scenario_.n + scenario_.clients;
  for (net::HostId h = 0; h < hosts; ++h) {
    if (h != host) fabric().set_partitioned(host, h, true);
  }
}

void Lab::heal_fabric() {
  net::Fabric& fab = fabric();
  fab.set_drop_rate(0.0);
  fab.set_corrupt_rate(0.0);
  fab.set_duplicate_rate(0.0);
  fab.set_reorder_rate(0.0);
  fab.clear_oneway_blocks();
  const std::uint32_t hosts = scenario_.n + scenario_.clients;
  for (net::HostId a = 0; a < hosts; ++a) {
    for (net::HostId b = a + 1; b < hosts; ++b) {
      fab.set_partitioned(a, b, false);
      fab.set_pair_drop_rate(a, b, 0.0);
      fab.set_extra_delay(a, b, 0);
    }
  }
}

sim::Task<void> Lab::client_driver(reptor::Client& client,
                                   reptor::NodeId self,
                                   std::uint32_t requests,
                                   std::uint64_t add) {
  co_await client.start();
  for (std::uint32_t k = 1; k <= requests; ++k) {
    if (scenario_.request_gap > 0) {
      co_await harness_->sim().sleep(scenario_.request_gap);
    }
    Bytes op = to_bytes("add:" + std::to_string(add));
    // Register before sending: the frame is forgeable in flight, the
    // checker's issued-table entry is not.
    checker_->expect_request(self, k, op);
    const sim::Time t0 = harness_->sim().now();
    co_await client.invoke(std::move(op));
    ++completions_;
    latencies_us_.push_back(sim::to_us(harness_->sim().now() - t0));
    checker_->on_completion(harness_->sim().now());
  }
}

void Lab::fire(FaultEvent& e) {
  for (const FaultAction& a : e.actions) a.apply(*this);
  if (e.action) e.action(*this);
  if (e.clears_faults) {
    checker_->restart_recovery_clock(harness_->sim().now());
  }
}

sim::Task<void> Lab::predicate_watcher() {
  for (;;) {
    co_await harness_->sim().sleep(sim::microseconds(100));
    bool pending = false;
    for (std::size_t i = 0; i < scenario_.events.size(); ++i) {
      FaultEvent& e = scenario_.events[i];
      if (fired_[i] || e.at >= 0) continue;
      // Data trigger first, then the custom predicate.
      bool ready = false;
      if (e.after_completions > 0) {
        ready = completions_ >= e.after_completions;
      } else if (e.when) {
        ready = e.when(*this);
      } else {  // malformed event: no trigger at all — drop it
        fired_[i] = true;
        continue;
      }
      if (ready) {
        fired_[i] = true;
        fire(e);
      } else {
        pending = true;
      }
    }
    if (!pending) co_return;
  }
}

Report Lab::run() {
  RUBIN_AUDIT_ASSERT("faultlab", !ran_, "Lab::run() is one-shot");
  ran_ = true;

  sim::Simulator& sim = harness_->sim();
  net::Fabric& fab = harness_->fabric();
  fab.reseed_faults(scenario_.seed);
  // Decision-point indices (explorer perturbations) count from the run's
  // first frame, not the fabric's construction.
  fab.reset_frame_counter();
  const std::uint64_t dropped0 = fab.frames_dropped();
  const std::uint64_t corrupted0 = fab.frames_corrupted();
  const std::uint64_t duplicated0 = fab.frames_duplicated();
  const std::uint64_t reordered0 = fab.frames_reordered();

  // Replica group: config-time adversaries come from fresh factory
  // instances so a replayed scenario starts from identical state.
  for (reptor::NodeId r = 0; r < scenario_.n; ++r) {
    reptor::ReplicaConfig cfg = scenario_.replica_cfg;
    if (const auto it = scenario_.strategies.find(r);
        it != scenario_.strategies.end()) {
      cfg.strategy = reptor::make_strategy_by_name(it->second);
      if (!cfg.strategy) {
        throw std::invalid_argument("unknown replica strategy: " +
                                    it->second);
      }
    }
    reptor::Replica& rep = harness_->add_replica(r, cfg);
    rep.set_commit_observer(
        [this, r](std::uint64_t seq, const reptor::PrePrepare& pp) {
          checker_->on_commit(r, seq, pp);
        });
  }

  // Clients: host ids n, n+1, ...; client c adds (c+1) per request so
  // every client's writes are distinguishable in the committed state.
  for (std::uint32_t c = 0; c < scenario_.clients; ++c) {
    const auto self = static_cast<reptor::NodeId>(scenario_.n + c);
    reptor::Client& client = harness_->add_client(self, scenario_.client_cfg);
    if (const auto it = scenario_.client_strategies.find(c);
        it != scenario_.client_strategies.end()) {
      auto strategy = reptor::make_client_strategy_by_name(it->second);
      if (!strategy) {
        throw std::invalid_argument("unknown client strategy: " + it->second);
      }
      client.set_strategy(std::move(strategy));
    }
    sim.spawn(client_driver(client, self, scenario_.requests, c + 1));
  }

  // Fault schedule: timed events straight onto the simulator, predicate
  // events onto the polling watcher.
  bool any_predicates = false;
  for (std::size_t i = 0; i < scenario_.events.size(); ++i) {
    if (scenario_.events[i].at >= 0) {
      sim.schedule_at(scenario_.events[i].at, [this, i] {
        if (!fired_[i]) {
          fired_[i] = true;
          fire(scenario_.events[i]);
        }
      });
    } else {
      any_predicates = true;
    }
  }
  if (any_predicates) sim.spawn(predicate_watcher());

  // Drive in slices so the run ends as soon as every request completed
  // (replica timers would otherwise keep the queue busy to the horizon).
  constexpr sim::Time kSlice = sim::milliseconds(5);
  while (completions_ < expected_ && sim.now() < scenario_.horizon) {
    sim.run_until(std::min<sim::Time>(sim.now() + kSlice, scenario_.horizon));
  }

  Report rep;
  rep.name = scenario_.name;
  rep.n = scenario_.n;
  rep.f = scenario_.f();
  rep.faulty = scenario_.faulty_count();
  rep.expect_liveness = scenario_.expect_liveness;
  rep.completions = completions_;
  rep.expected_completions = expected_;
  rep.finished_at = sim.now();
  for (std::uint32_t c = 0; c < scenario_.clients; ++c) {
    rep.client_retries += harness_->client(c).stats().retries;
  }
  for (reptor::NodeId r = 0; r < scenario_.n; ++r) {
    const bool adversarial = scenario_.strategies.count(r) != 0 ||
                             scenario_.runtime_faulty.count(r) != 0;
    if (!adversarial) {
      rep.final_view = std::max(rep.final_view, harness_->replica(r).view());
    }
  }
  rep.frames_dropped = fab.frames_dropped() - dropped0;
  rep.frames_corrupted = fab.frames_corrupted() - corrupted0;
  rep.frames_duplicated = fab.frames_duplicated() - duplicated0;
  rep.frames_reordered = fab.frames_reordered() - reordered0;
  rep.verdict = checker_->finish(expected_, scenario_.liveness_bound);
  return rep;
}

}  // namespace rubin::faultlab
