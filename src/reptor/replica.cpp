#include "reptor/replica.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/audit.hpp"
#include "common/codec.hpp"
#include "common/log.hpp"
#include "reptor/byzantine.hpp"
#include "rubin/decision_log.hpp"

namespace rubin::reptor {

namespace test_hooks {
bool disable_reaffirm_decided = false;
}  // namespace test_hooks

namespace {

/// First 64 bits of a digest — what decision-log ack cells carry. A
/// truncation, not the certificate: commit safety rests on the full-MAC
/// record plus quorum intersection; the tag only keys the cell match.
std::uint64_t digest_tag(const Digest& d) {
  std::uint64_t tag = 0;
  std::memcpy(&tag, d.data(), sizeof(tag));
  return tag;
}

/// Detached per-view permission flip. Deliberately a free coroutine over
/// the log alone: it may outlive the replica that spawned it (harness
/// teardown), but never the decision log, which the harness owns.
sim::Task<void> rotate_decision_log(nio::DecisionLog& dlog,
                                    std::uint64_t view) {
  co_await dlog.enter_view(view);
}

/// Audit helper: a certificate may only contain votes from real replica
/// ids — anything else means authentication or routing let garbage in.
[[maybe_unused]] bool voters_valid(const std::set<NodeId>& voters,
                                   std::uint32_t n) {
  for (const NodeId v : voters) {
    if (v >= n) return false;
  }
  return true;
}

}  // namespace

// --------------------------------------------------------- CounterApp ----

Bytes CounterApp::execute(ByteView op) {
  const std::string s = to_string(op);
  if (s.rfind("add:", 0) == 0) {
    value_ += std::strtoull(s.c_str() + 4, nullptr, 10);
  }
  Encoder e;
  e.put_u64(value_);
  return e.take();
}

Bytes CounterApp::query(ByteView op) const {
  const std::string s = to_string(op);
  Encoder e;
  // Reads report the value; a mutating op through the read path is a
  // client error and must not change state.
  if (s.rfind("add:", 0) == 0) {
    e.put_u64(~0ull);
  } else {
    e.put_u64(value_);
  }
  return e.take();
}

Digest CounterApp::state_digest() const {
  Encoder e;
  e.put_u64(value_);
  return Sha256::hash(e.view());
}

Bytes CounterApp::snapshot() const {
  Encoder e;
  e.put_u64(value_);
  return e.take();
}

bool CounterApp::restore(ByteView snap, const Digest& expected) {
  Decoder d(snap);
  const auto v = d.get_u64();
  if (!v || !d.exhausted()) return false;
  Encoder e;
  e.put_u64(*v);
  if (Sha256::hash(e.view()) != expected) return false;
  value_ = *v;
  return true;
}

// ------------------------------------------------------------- Replica ---

Replica::Replica(sim::Simulator& sim, std::unique_ptr<Transport> transport,
                 KeyTable keys, std::unique_ptr<StateMachine> app,
                 ReplicaConfig cfg)
    : sim_(&sim),
      transport_(std::move(transport)),
      keys_(std::move(keys)),
      app_(std::move(app)),
      cfg_(cfg),
      poller_exited_evt_(sim),
      lanes_idle_evt_(sim),
      lanes_exited_evt_(sim) {
  if (cfg_.pipelines == 0) cfg_.pipelines = 1;
  for (std::uint32_t i = 0; i < cfg_.pipelines; ++i) {
    lane_in_.push_back(std::make_unique<sim::Mailbox<SharedBytes>>(sim));
    lane_busy_.push_back(false);
  }
  strategy_ = cfg_.strategy;
}

Replica::~Replica() = default;

void Replica::inject_crash() { strategy_ = make_crash(); }

bool Replica::crashed() const noexcept {
  return strategy_ != nullptr && strategy_->crashed();
}

void Replica::set_strategy(std::shared_ptr<ByzantineStrategy> strategy) {
  strategy_ = std::move(strategy);
}

sim::Task<void> Replica::run() {
  co_await transport_->start();
  if (crashed()) {
    // Crash-stop from the start: present on the network, forever silent.
    while (running_) co_await sim_->sleep(sim::milliseconds(1));
    co_return;
  }
  for (std::uint32_t i = 0; i < cfg_.pipelines; ++i) {
    sim_->spawn(lane_loop(i));
  }
  if (cfg_.decision_log != nullptr) {
    fast_expect_ = last_executed_ + 1;
    poller_exited_ = false;
    sim_->spawn(decision_poll_loop());
  }
  co_await dispatcher_loop();

  // Shut the lanes down (empty frame == sentinel) and wait them out so
  // their mailboxes outlive them.
  for (auto& mb : lane_in_) mb->push(SharedBytes{});
  while (lanes_exited_ < cfg_.pipelines) {
    lanes_exited_evt_.reset();
    co_await lanes_exited_evt_.wait();
  }
  while (!poller_exited_) {
    poller_exited_evt_.reset();
    co_await poller_exited_evt_.wait();
  }
  co_return;
}

// ------------------------------------------- one-sided fast-path commit --
//
// DESIGN.md §12. The poller is the replica's "extra core" for the
// one-sided path: it probes the decision ring (followers), endorses what
// authenticates, and commits any sequence with 2f + 1 endorsements —
// itself plus matching ack cells. It never replaces the message path,
// which the dual-sending primary keeps feeding underneath; anything
// unexpected suspends the fast path until the next view.

sim::Task<void> Replica::decision_poll_loop() {
  nio::DecisionLog& dlog = *cfg_.decision_log;
  while (running_) {
    if (!crashed() && !in_view_change_) {
      if (fast_ok_ && !is_primary()) {
        if (fast_expect_ <= last_executed_) {
          // The message path overtook the poller; skip what it decided.
          fast_expect_ = last_executed_ + 1;
        }
        if (in_window(fast_expect_)) co_await fast_poll_once();
      }
      co_await fast_commit_scan();
    }
    co_await sim_->sleep(dlog.config().poll_interval);
  }
  poller_exited_ = true;
  poller_exited_evt_.set();
  co_return;
}

void Replica::suspend_fast_path() {
  if (!fast_ok_) return;
  fast_ok_ = false;
  RUBIN_AUDIT_COUNT("decision_log.fallback", 1);
}

sim::Task<void> Replica::fast_poll_once() {
  nio::DecisionLog& dlog = *cfg_.decision_log;
  nio::DecisionRecord rec;
  const auto status = co_await dlog.poll_slot(fast_expect_, view_, rec);
  switch (status) {
    case nio::SlotStatus::kEmpty:
    case nio::SlotStatus::kStale:
    case nio::SlotStatus::kTorn:
      // Nothing consumable (yet). Stale and torn slots are counted by the
      // log; if they persist, the ordinary watchdog falls back for us.
      co_return;
    case nio::SlotStatus::kBadFrame:
      // Framing no honest primary produces: stop trusting this ring until
      // the view change replaces the writer.
      suspend_fast_path();
      co_return;
    case nio::SlotStatus::kReady:
      break;
  }

  // Authenticate the record: it is a PRE-PREPARE frame, so it pays the
  // exact MAC + digest bill the message path pays. A ring is remotely
  // writable memory (§III-C) — nothing in it is trusted before this.
  co_await sim_->sleep(cfg_.costs.mac_time(rec.record.size()));
  const auto env = decode_verified(rec.record.view(), keys_);
  const PrePrepare* pp = nullptr;
  if (env && env->sender == primary_of(view_)) {
    pp = std::get_if<PrePrepare>(&env->msg);
  }
  bool ok = pp != nullptr && pp->view == view_ && pp->view == rec.view &&
            pp->seq == rec.seq;
  if (ok) {
    std::size_t batch_bytes = 0;
    for (const Request& r : pp->batch) batch_bytes += r.op.size();
    co_await sim_->sleep(cfg_.costs.digest_time(batch_bytes));
    ok = batch_digest(pp->batch) == pp->digest;
  }
  if (!ok) {
    ++stats_.auth_failures;
    RUBIN_AUDIT_COUNT("decision_log.reject", 1);
    suspend_fast_path();
    co_return;
  }

  LogEntry& entry = log_[pp->seq];
  if (entry.pp && entry.view == view_ && entry.pp->digest != pp->digest) {
    // The message path accepted a different proposal for this sequence in
    // this view — an equivocating primary. Never endorse the second one.
    RUBIN_AUDIT_COUNT("decision_log.reject", 1);
    suspend_fast_path();
    co_return;
  }
  RUBIN_AUDIT_COUNT("decision_log.accept", 1);
  entry.fast_pp = *pp;
  entry.fast_acked = true;
  if (!entry.pp) entry.view = view_;
  for (const Request& r : pp->batch) awaiting_.insert({r.client, r.id});
  arm_vc_timer();
  co_await dlog.ack(pp->seq, digest_tag(pp->digest));
  ++fast_expect_;
  co_await maybe_fast_commit(pp->seq);
  co_return;
}

sim::Task<void> Replica::fast_commit_scan() {
  // Collect first: committing executes, and execution may erase entries.
  std::vector<std::uint64_t> candidates;
  for (auto it = log_.upper_bound(last_executed_); it != log_.end(); ++it) {
    if (it->second.fast_acked && !it->second.committed &&
        !it->second.executed) {
      candidates.push_back(it->first);
    }
  }
  for (const std::uint64_t seq : candidates) {
    if (log_.contains(seq)) co_await maybe_fast_commit(seq);
  }
  co_return;
}

sim::Task<void> Replica::maybe_fast_commit(std::uint64_t seq) {
  const auto it = log_.find(seq);
  if (it == log_.end()) co_return;
  LogEntry& entry = it->second;
  if (!entry.fast_acked || !entry.fast_pp || entry.committed ||
      entry.executed) {
    co_return;
  }
  // Commit rule: 2f + 1 distinct endorsers — this replica plus every peer
  // whose ack cell matches (seq, tag). Any two such quorums intersect in
  // at least one honest replica, and an honest replica endorses at most
  // one digest per (view, seq) and carries it into view changes — the
  // same intersection argument as the message path's commit certificate.
  const std::uint64_t tag = digest_tag(entry.fast_pp->digest);
  if (1 + cfg_.decision_log->acks_for(seq, tag) < 2 * cfg_.f + 1) co_return;
  if (entry.pp && entry.pp->digest != entry.fast_pp->digest) {
    RUBIN_AUDIT_COUNT("decision_log.reject", 1);
    suspend_fast_path();
    co_return;
  }
  if (!entry.pp) {
    entry.pp = entry.fast_pp;
    entry.view = view_;
  }
  entry.committed = true;
  ++stats_.batches_committed;
  ++stats_.fast_commits;
  RUBIN_AUDIT_COUNT("decision_log.fast_commit", 1);
  co_await execute_ready();
  co_return;
}

sim::Task<void> Replica::dispatcher_loop() {
  while (running_) {
    if (crashed()) {
      // Injected crash-stop: drain silently, send nothing, do nothing.
      (void)co_await transport_->poll(sim::milliseconds(1));
      continue;
    }
    const auto msgs = co_await transport_->poll(next_timeout());
    for (const InboundMsg& m : msgs) {
      if (crashed()) break;  // a strategy swap mid-batch takes effect now
      if (strategy_ != nullptr) {
        ByzantineEnv env{*sim_, *transport_, keys_, cfg_, view_};
        if (!strategy_->on_inbound(env, m)) continue;
      }
      route(m);
    }
    co_await lanes_idle();
    if (crashed()) continue;
    co_await execute_ready();
    co_await handle_timers();
  }
  co_return;
}

void Replica::route(InboundMsg msg) {
  // Cheap structural peek for lane routing; authentication happens in the
  // lane (COP parallelizes the MAC work across cores).
  const auto env = decode_unverified(msg.frame);
  if (!env) {
    ++stats_.auth_failures;
    return;
  }
  lane_in_[lane_for(*env)]->push(std::move(msg.frame));
}

std::uint32_t Replica::lane_for(const Envelope& env) const noexcept {
  if (const auto* pp = std::get_if<PrePrepare>(&env.msg)) {
    return static_cast<std::uint32_t>(pp->seq % cfg_.pipelines);
  }
  if (const auto* p = std::get_if<Prepare>(&env.msg)) {
    return static_cast<std::uint32_t>(p->seq % cfg_.pipelines);
  }
  if (const auto* c = std::get_if<Commit>(&env.msg)) {
    return static_cast<std::uint32_t>(c->seq % cfg_.pipelines);
  }
  if (std::holds_alternative<Request>(env.msg)) {
    return env.sender % cfg_.pipelines;  // spread client auth work
  }
  return 0;  // control-plane traffic (view change, checkpoints, state)
}

sim::Task<void> Replica::lane_loop(std::uint32_t lane) {
  for (;;) {
    SharedBytes frame = co_await lane_in_[lane]->recv();
    if (frame.empty()) break;  // shutdown sentinel
    lane_busy_[lane] = true;
    co_await handle_frame(std::move(frame), lane);
    lane_busy_[lane] = false;
    if (lane_in_[lane]->empty()) lanes_idle_evt_.set();
  }
  ++lanes_exited_;
  lanes_exited_evt_.set();
  co_return;
}

sim::Task<void> Replica::lanes_idle() {
  for (;;) {
    bool busy = false;
    for (std::uint32_t i = 0; i < cfg_.pipelines; ++i) {
      busy = busy || lane_busy_[i] || !lane_in_[i]->empty();
    }
    if (!busy) co_return;
    lanes_idle_evt_.reset();
    co_await lanes_idle_evt_.wait();
  }
}

sim::Task<void> Replica::handle_frame(SharedBytes frame, std::uint32_t lane) {
  // Authenticator verification burns a (virtual) core for the MAC over
  // the frame.
  co_await sim_->sleep(cfg_.costs.mac_time(frame.size()));
  const std::optional<Envelope> env = decode_verified(frame.view(), keys_);
  if (!env) {
    ++stats_.auth_failures;
    co_return;
  }
  // Cross-lane aliasing audit: the post-verification envelope must map to
  // the lane that handled it, or two lanes could mutate the same LogEntry
  // at interleaved suspension points.
  RUBIN_AUDIT_ASSERT("cop", lane_for(*env) == lane,
                     "frame handled by a lane that does not own it");
  co_await sim_->sleep(cfg_.costs.handle_fixed);
  ++stats_.messages_handled;

  if (std::holds_alternative<Request>(env->msg)) {
    co_await handle_request(*env, frame);
  } else if (std::holds_alternative<PrePrepare>(env->msg)) {
    co_await handle_pre_prepare(*env);
  } else if (std::holds_alternative<Prepare>(env->msg)) {
    handle_prepare(*env);
  } else if (std::holds_alternative<Commit>(env->msg)) {
    handle_commit(*env);
  } else if (std::holds_alternative<Checkpoint>(env->msg)) {
    handle_checkpoint(*env);
  } else if (std::holds_alternative<ViewChange>(env->msg)) {
    handle_view_change(*env, std::move(frame));
  } else if (std::holds_alternative<NewView>(env->msg)) {
    co_await handle_new_view(*env);
  } else if (std::holds_alternative<StateRequest>(env->msg)) {
    handle_state_request(*env);
  } else if (std::holds_alternative<StateResponse>(env->msg)) {
    co_await handle_state_response(*env);
  }
  co_return;
}

// ------------------------------------------------------------ requests ---

sim::Task<void> Replica::handle_request(const Envelope& env,
                                        const SharedBytes& frame) {
  const auto& req = std::get<Request>(env.msg);
  if (env.sender != req.client) co_return;  // spoofed origin

  if (req.read_only) {
    // Fast path: answer from committed state, no ordering, no dedup-table
    // changes. The client needs 2f+1 matching replies for this to count.
    co_await sim_->sleep(cfg_.costs.execute_fixed);
    Reply reply{view_, req.client, req.id, app_->query(req.op)};
    send_to(req.client, Message{reply});
    co_return;
  }

  auto& rec = clients_[req.client];
  if (req.id <= rec.last_id) {
    // Already executed: retransmit the cached reply (client lost it).
    if (req.id == rec.last_id && rec.last_reply) {
      send_to(req.client, Message{*rec.last_reply});
    }
    co_return;
  }

  if (primary_of(view_) == cfg_.self && !in_view_change_) {
    // Deduplicate against queued proposals.
    for (const Request& p : pending_) {
      if (p.client == req.client && p.id == req.id) co_return;
    }
    pending_.push_back(req);
    if (batch_deadline_ < 0) {
      batch_deadline_ = sim_->now() + cfg_.batch_timeout;
    }
  } else {
    // Backup: relay the request to the primary — the *original* frame, so
    // the client's own authenticator travels with it (our MACs could not
    // vouch for the client) — and start the "is the primary making
    // progress?" watchdog. Sharing the handle: no relay copy.
    if (awaiting_.insert({req.client, req.id}).second) {
      bool relay = true;
      if (strategy_ != nullptr) {
        // Routed through the send hook so a mute replica drops relays too.
        SharedBytes copy = frame;
        ByzantineEnv benv{*sim_, *transport_, keys_, cfg_, view_};
        relay = strategy_->on_send(benv, primary_of(view_), copy);
      }
      if (relay) transport_->send(primary_of(view_), frame);
      arm_vc_timer();
    }
  }
  co_return;
}

sim::Task<void> Replica::propose_batch() {
  if (strategy_ != nullptr) {
    ByzantineEnv env{*sim_, *transport_, keys_, cfg_, view_};
    if (!strategy_->should_propose(env)) {
      pending_.clear();  // accept, then stall — the liveness attack
      batch_deadline_ = -1;
      co_return;
    }
  }
  while (!pending_.empty() && in_window(next_seq_)) {
    const std::size_t take = std::min<std::size_t>(cfg_.batch_size, pending_.size());
    PrePrepare pp;
    pp.view = view_;
    pp.seq = next_seq_++;
    pp.batch.assign(pending_.begin(),
                    pending_.begin() + static_cast<std::ptrdiff_t>(take));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
    std::size_t batch_bytes = 0;
    for (const Request& r : pp.batch) batch_bytes += r.op.size();
    co_await sim_->sleep(cfg_.costs.digest_time(batch_bytes));
    pp.digest = batch_digest(pp.batch);

    LogEntry& entry = log_[pp.seq];
    entry.view = view_;
    entry.pp = pp;
    if (propose_observer_) propose_observer_(pp.seq, pp);

    bool broadcast_honestly = true;
    if (strategy_ != nullptr) {
      // Equivocating strategies send their own per-peer variants and
      // suppress the honest broadcast.
      ByzantineEnv env{*sim_, *transport_, keys_, cfg_, view_};
      broadcast_honestly = strategy_->on_pre_prepare(env, pp);
    }
    if (broadcast_honestly) send_to_replicas(Message{pp});
    arm_vc_timer();

    // Dual-send: the same authenticated frame also goes out one-sided
    // into every replica's decision ring. The message path above is not
    // conditioned on this — if the ring write is bypassed or NAKed, the
    // ordinary three-phase protocol still commits the batch.
    if (cfg_.decision_log != nullptr && fast_ok_) {
      SharedBytes record =
          encode_for_replicas(Envelope{cfg_.self, Message{pp}}, keys_, cfg_.n);
      // An oversized batch simply doesn't ride the ring — the message
      // path above already carries it (same rule as a missing grant).
      if (record.size() > cfg_.decision_log->config().slot_payload) continue;
      bool fast_honestly = true;
      if (strategy_ != nullptr) {
        ByzantineEnv env{*sim_, *transport_, keys_, cfg_, view_};
        fast_honestly = strategy_->on_fast_publish(env, pp, record);
      }
      if (fast_honestly) {
        (void)co_await cfg_.decision_log->publish(pp.seq, view_, sim_->now(),
                                                  record);
        // The primary endorses its own proposal the same way followers
        // do — an explicit ack cell — so the commit rule stays uniform.
        co_await cfg_.decision_log->ack(pp.seq, digest_tag(pp.digest));
        LogEntry& e2 = log_[pp.seq];  // map refs survive, but be explicit
        e2.fast_pp = pp;
        e2.fast_acked = true;
      }
    }
  }
  batch_deadline_ = pending_.empty() ? -1 : sim_->now() + cfg_.batch_timeout;
  co_return;
}

// ----------------------------------------------------------- agreement ---

sim::Task<void> Replica::handle_pre_prepare(const Envelope& env) {
  const auto& pp = std::get<PrePrepare>(env.msg);
  if (in_view_change_ || pp.view != view_ ||
      env.sender != primary_of(view_) || !in_window(pp.seq)) {
    co_return;
  }
  LogEntry& entry = log_[pp.seq];
  if (entry.pp && entry.view == view_) co_return;  // already accepted

  std::size_t batch_bytes = 0;
  for (const Request& r : pp.batch) batch_bytes += r.op.size();
  co_await sim_->sleep(cfg_.costs.digest_time(batch_bytes));
  const Digest computed = batch_digest(pp.batch);
  if (computed != pp.digest) co_return;  // Byzantine primary

  entry.view = view_;
  entry.pp = pp;
  for (const Request& r : pp.batch) awaiting_.insert({r.client, r.id});
  arm_vc_timer();

  send_to_replicas(Message{Prepare{view_, pp.seq, pp.digest}});
  entry.prepares[pp.digest].insert(cfg_.self);
  try_prepare(pp.seq);
  co_return;
}

void Replica::handle_prepare(const Envelope& env) {
  const auto& p = std::get<Prepare>(env.msg);
  // Accept votes for anything not yet executed (a replica whose
  // execution lags the group's stable checkpoint still needs them; PBFT
  // proper would state-transfer instead).
  if (in_view_change_ || p.view != view_ || p.seq <= last_executed_ ||
      p.seq > stable_ + cfg_.window) {
    return;
  }
  if (env.sender == primary_of(view_)) return;  // primaries do not prepare
  log_[p.seq].prepares[p.digest].insert(env.sender);
  try_prepare(p.seq);
}

void Replica::try_prepare(std::uint64_t seq) {
  LogEntry& entry = log_[seq];
  if (!entry.pp || entry.prepared || entry.view != view_) return;
  const Digest& d = entry.pp->digest;
  if (entry.prepares[d].size() < 2 * cfg_.f) return;
  entry.prepared = true;
  // Quorum-size certificate: 2f PREPAREs (plus the pre-prepare) from
  // distinct, real replicas back every prepared entry.
  RUBIN_AUDIT_ASSERT("reptor",
                     entry.prepares[d].size() >= 2 * cfg_.f &&
                         voters_valid(entry.prepares[d], cfg_.n),
                     "prepared certificate below quorum or with bogus "
                     "voters at seq " + std::to_string(seq));
  send_to_replicas(Message{Commit{view_, seq, d}});
  entry.commits[d].insert(cfg_.self);
  try_commit(seq);
}

void Replica::handle_commit(const Envelope& env) {
  const auto& c = std::get<Commit>(env.msg);
  if (c.view != view_ || c.seq <= last_executed_ ||
      c.seq > stable_ + cfg_.window) {
    return;
  }
  log_[c.seq].commits[c.digest].insert(env.sender);
  try_commit(c.seq);
}

void Replica::try_commit(std::uint64_t seq) {
  LogEntry& entry = log_[seq];
  if (!entry.pp || !entry.prepared || entry.committed) return;
  const Digest& d = entry.pp->digest;
  if (entry.commits[d].size() < 2 * cfg_.f + 1) return;
  entry.committed = true;
  RUBIN_AUDIT_ASSERT("reptor",
                     entry.commits[d].size() >= 2 * cfg_.f + 1 &&
                         voters_valid(entry.commits[d], cfg_.n),
                     "committed certificate below quorum or with bogus "
                     "voters at seq " + std::to_string(seq));
  ++stats_.batches_committed;
}

sim::Task<void> Replica::execute_ready() {
  // Both the message path and the fast-path poller call this; the poller
  // can fire while a message-path execution is parked on a sleep. The
  // latch makes the second caller a no-op — the in-flight loop will pick
  // up whatever became ready.
  if (executing_) co_return;
  executing_ = true;
  bool progressed = false;
  for (;;) {
    const auto it = log_.find(last_executed_ + 1);
    if (it == log_.end() || !it->second.committed || it->second.executed) break;
    LogEntry& entry = it->second;
    // Execution-order invariants: sequences execute gaplessly in order,
    // and only entries that went through the full agreement certificate
    // are allowed to touch the state machine.
    RUBIN_AUDIT_ASSERT("reptor", it->first == last_executed_ + 1,
                       "execution would skip a sequence number");
    RUBIN_AUDIT_ASSERT("reptor", entry.pp.has_value() && entry.committed,
                       "executing an entry without a committed proposal at "
                       "seq " + std::to_string(it->first));
    if (commit_observer_) commit_observer_(it->first, *entry.pp);
    for (const Request& req : entry.pp->batch) {
      auto& rec = clients_[req.client];
      if (req.id <= rec.last_id) continue;  // duplicate across batches
      co_await sim_->sleep(cfg_.costs.execute_fixed);
      Bytes result = app_->execute(req.op);
      rec.last_id = req.id;
      rec.last_reply = Reply{view_, req.client, req.id, result};
      send_to(req.client, Message{*rec.last_reply});
      ++stats_.requests_executed;
      awaiting_.erase({req.client, req.id});
    }
    entry.executed = true;
    ++last_executed_;
    RUBIN_AUDIT_ASSERT("reptor", last_executed_ == it->first,
                       "last_executed diverged from the executed sequence");
    progressed = true;
    // Below the stable checkpoint this entry was only kept for catch-up.
    if (it->first <= stable_) log_.erase(it);

    if (last_executed_ % cfg_.checkpoint_interval == 0) {
      const Checkpoint cp{last_executed_, app_->state_digest(),
                          clients_digest()};
      // Keep the matching snapshot around to serve lagging peers.
      stored_checkpoints_[cp.seq] = {app_->snapshot(), serialize_clients()};
      while (stored_checkpoints_.size() > 2) {
        stored_checkpoints_.erase(stored_checkpoints_.begin());
      }
      send_to_replicas(Message{cp});
      last_checkpoint_ = cp;
      checkpoints_[cp.seq][{cp.state, cp.clients}].insert(cfg_.self);
      handle_checkpoint_quorum(cp.seq, {cp.state, cp.clients});
    }
  }
  if (progressed) {
    // Liveness watchdog: progress resets it; idleness disarms it.
    disarm_vc_timer();
    if (outstanding_work()) arm_vc_timer();
  }
  executing_ = false;
  co_return;
}

void Replica::handle_checkpoint(const Envelope& env) {
  const auto& cp = std::get<Checkpoint>(env.msg);
  if (cp.seq <= stable_) return;
  checkpoints_[cp.seq][{cp.state, cp.clients}].insert(env.sender);
  handle_checkpoint_quorum(cp.seq, {cp.state, cp.clients});
}

void Replica::handle_checkpoint_quorum(
    std::uint64_t seq, const std::pair<Digest, Digest>& digests) {
  if (checkpoints_[seq][digests].size() < 2 * cfg_.f + 1 || seq <= stable_) {
    return;
  }
  // A certified checkpoint: remember its digests so a state transfer to
  // this sequence can be verified later.
  proven_checkpoints_[seq] = digests;
  while (proven_checkpoints_.size() > 4) {
    proven_checkpoints_.erase(proven_checkpoints_.begin());
  }
  // Stable checkpoints only move forward (the seq <= stable_ guard above
  // is what enforces it; this audit keeps that guard honest) and always
  // rest on a 2f+1 certificate of distinct real replicas.
  RUBIN_AUDIT_ASSERT("reptor", seq > stable_,
                     "stable checkpoint moved backwards");
  RUBIN_AUDIT_ASSERT("reptor",
                     voters_valid(checkpoints_[seq][digests], cfg_.n),
                     "checkpoint certificate carries bogus voter ids");
  stable_ = seq;
  ++stats_.checkpoints_stable;
  // Garbage-collect the log and checkpoint votes below the stable point —
  // but never discard entries this replica has not executed yet: if its
  // execution lags the group, those entries are its only way to catch up
  // (we do not implement PBFT's state transfer).
  std::erase_if(log_, [&](const auto& kv) {
    return kv.first <= stable_ && kv.second.executed;
  });
  std::erase_if(checkpoints_,
                [&](const auto& kv) { return kv.first < stable_; });
}

// ----------------------------------------------------------- view change -

bool Replica::outstanding_work() const {
  if (!awaiting_.empty()) return true;
  for (const auto& [seq, entry] : log_) {
    if (entry.pp && !entry.executed) return true;
  }
  return false;
}

void Replica::arm_vc_timer() {
  if (vc_deadline_ < 0) vc_deadline_ = sim_->now() + cfg_.view_change_timeout;
}

void Replica::disarm_vc_timer() { vc_deadline_ = -1; }

void Replica::start_view_change(std::uint64_t target) {
  if (target <= view_) return;
  in_view_change_ = true;
  vc_target_ = target;
  ++stats_.view_changes;

  ViewChange vc;
  vc.new_view = target;
  vc.stable_seq = stable_;
  for (const auto& [seq, entry] : log_) {
    if (seq <= stable_) continue;
    if (entry.prepared && entry.pp) {
      vc.prepared.push_back(
          PreparedProof{entry.view, seq, entry.pp->digest, entry.pp->batch});
    } else if (entry.fast_acked && entry.fast_pp) {
      // A fast-path endorsement is a prepared-equivalent promise: this
      // replica's ack cell may already sit in a commit quorum, so the
      // proposal must survive into the new view (quorum intersection).
      vc.prepared.push_back(PreparedProof{entry.fast_pp->view, seq,
                                          entry.fast_pp->digest,
                                          entry.fast_pp->batch});
    }
  }
  vc_msgs_[target][cfg_.self] = vc;
  send_to_replicas(Message{vc});
  // Escalation: if this view change stalls, go for target + 1.
  vc_deadline_ = sim_->now() + 2 * cfg_.view_change_timeout;
  maybe_complete_view_change(target);
}

void Replica::handle_view_change(const Envelope& env, SharedBytes /*frame*/) {
  const auto& vc = std::get<ViewChange>(env.msg);
  if (vc.new_view <= view_) return;
  vc_msgs_[vc.new_view][env.sender] = vc;

  // Liveness amplification: f+1 replicas already moved on — join them
  // even if our own timer has not fired.
  const std::uint64_t current_target = in_view_change_ ? vc_target_ : view_;
  if (vc.new_view > current_target &&
      vc_msgs_[vc.new_view].size() >= cfg_.f + 1) {
    start_view_change(vc.new_view);
  }
  maybe_complete_view_change(vc.new_view);
}

void Replica::maybe_complete_view_change(std::uint64_t target) {
  if (target <= view_) return;
  if (primary_of(target) != cfg_.self) return;
  if (new_view_sent_.contains(target)) return;
  auto& votes = vc_msgs_[target];
  // The new primary's own view-change counts; make sure it exists.
  if (!votes.contains(cfg_.self)) {
    if (votes.size() >= cfg_.f + 1) start_view_change(target);
    // start_view_change re-enters this function; if it already finished
    // the job, do not build a second NEW-VIEW.
    if (new_view_sent_.contains(target) || !votes.contains(cfg_.self)) return;
  }
  if (votes.size() < 2 * cfg_.f + 1) return;

  NewView nv;
  nv.view = target;
  std::uint64_t max_stable = stable_;
  std::map<std::uint64_t, PreparedProof> best;
  for (const auto& [sender, vc] : votes) {
    nv.voters.push_back(sender);
    max_stable = std::max(max_stable, vc.stable_seq);
    for (const PreparedProof& proof : vc.prepared) {
      // Structural validity: the carried batch must match its digest.
      if (batch_digest(proof.batch) != proof.digest) continue;
      const auto it = best.find(proof.seq);
      if (it == best.end() || proof.view > it->second.view) {
        best[proof.seq] = proof;
      }
    }
  }
  // Re-issue every prepared sequence above the stable point; fill gaps
  // with no-op batches so execution stays contiguous.
  std::uint64_t max_seq = max_stable;
  for (const auto& [seq, proof] : best) max_seq = std::max(max_seq, seq);
  for (std::uint64_t seq = max_stable + 1; seq <= max_seq; ++seq) {
    PrePrepare pp;
    pp.view = target;
    pp.seq = seq;
    if (const auto it = best.find(seq); it != best.end()) {
      pp.batch = it->second.batch;
    }
    pp.digest = batch_digest(pp.batch);
    nv.pre_prepares.push_back(std::move(pp));
  }
  new_view_sent_.insert(target);
  send_to_replicas(Message{nv});

  // Apply locally: adopt the view and re-run agreement on the re-issues.
  enter_view(target);
  next_seq_ = max_seq + 1;
  for (const PrePrepare& pp : nv.pre_prepares) {
    if (reaffirm_decided(target, pp)) continue;
    LogEntry& entry = log_[pp.seq];
    if (entry.executed || entry.committed) continue;
    entry = LogEntry{};
    entry.view = target;
    entry.pp = pp;
  }
  arm_vc_timer();
}

sim::Task<void> Replica::handle_new_view(const Envelope& env) {
  const auto& nv = std::get<NewView>(env.msg);
  if (nv.view <= view_) co_return;
  if (env.sender != primary_of(nv.view)) co_return;
  if (nv.voters.size() < 2 * cfg_.f + 1) co_return;

  for (const PrePrepare& pp : nv.pre_prepares) {
    std::size_t batch_bytes = 0;
    for (const Request& r : pp.batch) batch_bytes += r.op.size();
    co_await sim_->sleep(cfg_.costs.digest_time(batch_bytes));
    if (batch_digest(pp.batch) != pp.digest) co_return;  // malformed
  }

  enter_view(nv.view);
  for (const PrePrepare& pp : nv.pre_prepares) {
    if (reaffirm_decided(nv.view, pp)) continue;
    LogEntry& entry = log_[pp.seq];
    if (entry.committed || entry.executed) continue;
    entry = LogEntry{};
    entry.view = nv.view;
    entry.pp = pp;
    send_to_replicas(Message{Prepare{nv.view, pp.seq, pp.digest}});
    entry.prepares[pp.digest].insert(cfg_.self);
    try_prepare(pp.seq);
  }
  if (outstanding_work()) arm_vc_timer();
  co_return;
}

bool Replica::reaffirm_decided(std::uint64_t v, const PrePrepare& pp) {
  if (pp.seq > last_executed_) {
    const auto it = log_.find(pp.seq);
    if (it == log_.end() || !it->second.committed) return false;
  }
  // This sequence is already decided here, so agreement will not run
  // again locally — but peers that fell behind (lost frames, partitions)
  // still need a 2f+1 quorum *in the new view* to commit the re-issue.
  // Re-affirm the decided value with a PREPARE + COMMIT, and only when
  // the re-issue matches the batch this replica accepted: a conflicting
  // re-issue must never get this replica's vote against its own history.
  const auto it = log_.find(pp.seq);
  if (it != log_.end() && it->second.pp &&
      it->second.pp->digest == pp.digest &&
      !test_hooks::disable_reaffirm_decided) {
    send_to_replicas(Message{Prepare{v, pp.seq, pp.digest}});
    send_to_replicas(Message{Commit{v, pp.seq, pp.digest}});
  }
  return true;
}

void Replica::enter_view(std::uint64_t v) {
  RUBIN_AUDIT_ASSERT("reptor", v > view_, "view number moved backwards");
  view_ = v;
  in_view_change_ = false;
  disarm_vc_timer();
  // Drop un-decided entries from older views; the new primary's re-issues
  // replace them. Committed-but-unexecuted entries are decided and stay.
  std::erase_if(log_, [&](const auto& kv) {
    const LogEntry& e = kv.second;
    return e.view < v && !e.committed && !e.executed;
  });
  // Stale view-change bookkeeping.
  std::erase_if(vc_msgs_, [&](const auto& kv) { return kv.first <= v; });
  // Retry edge for lost checkpoint votes: re-broadcast our newest one
  // while the group's stable point still lags it. Bounded (one message
  // per view entry) and idempotent (vote sets dedup by sender).
  if (last_checkpoint_ && last_checkpoint_->seq > stable_) {
    send_to_replicas(Message{*last_checkpoint_});
  }
  // Rotate the decision ring's write permission: revoke the old view's
  // grant and (asynchronously — it is a real MR re-registration) issue
  // the new view's. Re-arm the fast path for the new primary. The flip
  // runs as a free coroutine over the harness-owned log so it survives
  // replica teardown mid-registration.
  if (cfg_.decision_log != nullptr) {
    fast_ok_ = true;
    fast_expect_ = last_executed_ + 1;
    sim_->spawn(rotate_decision_log(*cfg_.decision_log, v));
  }
}

// -------------------------------------------------------------- plumbing -

void Replica::send_to_replicas(const Message& m) {
  SharedBytes frame = encode_for_replicas(Envelope{cfg_.self, m}, keys_, cfg_.n);
  if (strategy_ != nullptr) {
    // Strategies may mutate the (still sole-owned) frame — MAC corruption
    // — record it for replay, or suppress it entirely (mute).
    ByzantineEnv env{*sim_, *transport_, keys_, cfg_, view_};
    if (!strategy_->on_broadcast(env, m, frame)) return;
  }
  transport_->broadcast_replicas(frame);
}

void Replica::send_to(NodeId peer, const Message& m) {
  SharedBytes frame = encode_for_peer(Envelope{cfg_.self, m}, keys_, peer);
  if (strategy_ != nullptr) {
    ByzantineEnv env{*sim_, *transport_, keys_, cfg_, view_};
    if (!strategy_->on_send(env, peer, frame)) return;
  }
  transport_->send(peer, std::move(frame));
}

sim::Time Replica::next_timeout() const {
  sim::Time deadline = sim_->now() + sim::microseconds(500);
  if (batch_deadline_ >= 0) deadline = std::min(deadline, batch_deadline_);
  if (vc_deadline_ >= 0) deadline = std::min(deadline, vc_deadline_);
  if (next_state_request_ >= 0) {
    deadline = std::min(deadline, next_state_request_);
  }
  return std::max<sim::Time>(deadline - sim_->now(), sim::microseconds(5));
}

sim::Task<void> Replica::handle_timers() {
  const sim::Time now = sim_->now();
  if (primary_of(view_) == cfg_.self && !in_view_change_ &&
      !pending_.empty() &&
      (pending_.size() >= cfg_.batch_size ||
       (batch_deadline_ >= 0 && now >= batch_deadline_))) {
    co_await propose_batch();
  }
  if (vc_deadline_ >= 0 && now >= vc_deadline_ && outstanding_work()) {
    start_view_change(in_view_change_ ? vc_target_ + 1 : view_ + 1);
  } else if (vc_deadline_ >= 0 && now >= vc_deadline_) {
    disarm_vc_timer();
  }
  maybe_request_state();
  if (strategy_ != nullptr) {
    // Time-driven attacks (replay, view-change spam) emit here.
    ByzantineEnv env{*sim_, *transport_, keys_, cfg_, view_};
    strategy_->on_tick(env);
  }
  co_return;
}

// -------------------------------------------------------- state transfer -

void Replica::maybe_request_state() {
  if (stable_ <= last_executed_) {
    next_state_request_ = -1;
    state_request_attempts_ = 0;
    return;
  }
  const sim::Time now = sim_->now();
  if (next_state_request_ >= 0 && now < next_state_request_) return;
  // Rotate through peers so a single unhelpful (or Byzantine) responder
  // cannot stall the transfer forever (offset cycles 1..n-1, never self).
  const NodeId target =
      (cfg_.self + 1 + state_request_attempts_ % (cfg_.n - 1)) % cfg_.n;
  send_to(target, Message{StateRequest{last_executed_}});
  ++state_request_attempts_;
  next_state_request_ = now + cfg_.state_transfer_retry;
}

void Replica::handle_state_request(const Envelope& env) {
  const auto& req = std::get<StateRequest>(env.msg);
  if (env.sender >= cfg_.n) return;  // replicas only
  // Serve the newest stored snapshot that actually helps the requester.
  for (auto it = stored_checkpoints_.rbegin(); it != stored_checkpoints_.rend();
       ++it) {
    if (it->first > req.have_seq) {
      StateResponse resp;
      resp.seq = it->first;
      resp.app_snapshot = it->second.first;
      resp.client_table = it->second.second;
      send_to(env.sender, Message{std::move(resp)});
      return;
    }
  }
}

sim::Task<void> Replica::handle_state_response(const Envelope& env) {
  const auto& resp = std::get<StateResponse>(env.msg);
  if (env.sender >= cfg_.n || resp.seq <= last_executed_) co_return;
  const auto proven = proven_checkpoints_.find(resp.seq);
  if (proven == proven_checkpoints_.end()) co_return;  // nothing to verify against

  // Verifying + installing a snapshot costs real CPU (hash of the whole
  // state plus the rebuild).
  co_await sim_->sleep(
      cfg_.costs.digest_time(resp.app_snapshot.size() + resp.client_table.size()));

  if (Sha256::hash(resp.client_table) != proven->second.second) co_return;
  if (!app_->restore(resp.app_snapshot, proven->second.first)) co_return;
  if (!restore_clients(resp.client_table)) co_return;  // (digest already checked)

  RUBIN_AUDIT_ASSERT("reptor", resp.seq > last_executed_,
                     "state transfer would rewind execution");
  last_executed_ = resp.seq;
  stable_ = std::max(stable_, resp.seq);
  std::erase_if(log_, [&](const auto& kv) { return kv.first <= resp.seq; });
  std::erase_if(awaiting_, [&](const auto& key) {
    const auto it = clients_.find(key.first);
    return it != clients_.end() && key.second <= it->second.last_id;
  });
  next_state_request_ = -1;
  state_request_attempts_ = 0;
  ++stats_.state_transfers;
  disarm_vc_timer();
  if (outstanding_work()) arm_vc_timer();
  co_return;
}

Bytes Replica::serialize_clients() const {
  Encoder e;
  e.put_u32(static_cast<std::uint32_t>(clients_.size()));
  for (const auto& [id, rec] : clients_) {  // std::map: deterministic order
    e.put_u32(id);
    e.put_u64(rec.last_id);
    e.put_u8(rec.last_reply.has_value() ? 1 : 0);
    if (rec.last_reply) {
      e.put_u64(rec.last_reply->view);
      e.put_u32(rec.last_reply->client);
      e.put_u64(rec.last_reply->request_id);
      e.put_bytes(rec.last_reply->result);
    }
  }
  return e.take();
}

Digest Replica::clients_digest() const {
  return Sha256::hash(serialize_clients());
}

bool Replica::restore_clients(ByteView data) {
  Decoder d(data);
  const auto count = d.get_u32();
  if (!count) return false;
  std::map<NodeId, ClientRecord> parsed;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto id = d.get_u32();
    const auto last = d.get_u64();
    const auto has_reply = d.get_u8();
    if (!id || !last || !has_reply) return false;
    ClientRecord rec;
    rec.last_id = *last;
    if (*has_reply != 0) {
      Reply r;
      const auto view = d.get_u64();
      const auto client = d.get_u32();
      const auto req_id = d.get_u64();
      auto result = d.get_bytes();
      if (!view || !client || !req_id || !result) return false;
      r.view = *view;
      r.client = *client;
      r.request_id = *req_id;
      r.result = std::move(*result);
      rec.last_reply = std::move(r);
    }
    parsed[*id] = std::move(rec);
  }
  if (!d.exhausted()) return false;
  clients_ = std::move(parsed);
  return true;
}

}  // namespace rubin::reptor
