#include "reptor/byzantine.hpp"

#include "rubin/decision_log.hpp"

namespace rubin::reptor {

namespace {

class CrashStrategy final : public ByzantineStrategy {
 public:
  const char* name() const noexcept override { return "crash"; }
  bool crashed() const noexcept override { return true; }
};

class SilentPrimary final : public ByzantineStrategy {
 public:
  const char* name() const noexcept override { return "silent-primary"; }
  bool should_propose(ByzantineEnv&) override {
    return false;  // accept requests, never order them
  }
};

class EquivocatingPrimary final : public ByzantineStrategy {
 public:
  const char* name() const noexcept override { return "equivocating-primary"; }
  bool on_pre_prepare(ByzantineEnv& env, const PrePrepare& pp) override {
    // Equivocate hard enough to split every quorum: one backup gets the
    // real batch, the rest get a *valid* empty-batch proposal for the
    // same sequence. No digest reaches 2f prepares plus 2f+1 commits,
    // agreement stalls, and the view change removes us. (A softer split
    // — real batch to 2f backups — simply commits without the victims,
    // which PBFT tolerates outright.)
    PrePrepare alt = pp;
    alt.batch.clear();
    alt.digest = batch_digest(alt.batch);
    const auto n = env.cfg.n;
    const NodeId favoured = static_cast<NodeId>((env.view + 1) % n);
    for (NodeId r = 0; r < n; ++r) {
      if (r == env.cfg.self) continue;
      const PrePrepare& variant = (r == favoured) ? pp : alt;
      env.transport.send(r,
                         encode_for_replicas(
                             Envelope{env.cfg.self, Message{variant}},
                             env.keys, n));
    }
    return false;  // the honest broadcast is replaced by the variants
  }
};

class CorruptMacs final : public ByzantineStrategy {
 public:
  const char* name() const noexcept override { return "corrupt-macs"; }
  bool on_broadcast(ByzantineEnv& env, const Message&,
                    SharedBytes& frame) override {
    // Garbage MACs toward even-numbered peers: the partial-authenticator
    // attack. Slot r sits r*sizeof(Mac) bytes into the MAC block at the
    // tail. The frame is still sole-owned here, so in-place mutation is
    // safe.
    const std::size_t macs_off = frame.size() - env.cfg.n * sizeof(Mac);
    std::uint8_t* data = frame.mutable_data();
    for (NodeId r = 0; r < env.cfg.n; r += 2) {
      if (r == env.cfg.self) continue;
      data[macs_off + r * sizeof(Mac)] ^= 0xA5;
    }
    return true;
  }
};

class MuteReplica final : public ByzantineStrategy {
 public:
  const char* name() const noexcept override { return "mute"; }
  bool on_broadcast(ByzantineEnv&, const Message&, SharedBytes&) override {
    return false;
  }
  bool on_send(ByzantineEnv&, NodeId, SharedBytes&) override { return false; }
};

class Replayer final : public ByzantineStrategy {
 public:
  const char* name() const noexcept override { return "replayer"; }
  bool on_broadcast(ByzantineEnv&, const Message&,
                    SharedBytes& frame) override {
    // Record the authentic frame (refcount bump) and let it go out.
    if (recorded_.size() < kKeep) {
      recorded_.push_back(frame);
    } else {
      recorded_[write_idx_++ % kKeep] = frame;
    }
    return true;
  }
  void on_tick(ByzantineEnv& env) override {
    // Every few ticks, rebroadcast one recorded frame verbatim. The MACs
    // are genuine, the content stale — PBFT's vote-set/dedup logic must
    // absorb it without double-counting or re-executing.
    if (recorded_.empty() || ++ticks_ % 4 != 0) return;
    env.transport.broadcast_replicas(recorded_[replay_idx_++ %
                                               recorded_.size()]);
  }

 private:
  static constexpr std::size_t kKeep = 8;
  std::vector<SharedBytes> recorded_;
  std::size_t write_idx_ = 0;
  std::size_t replay_idx_ = 0;
  std::uint64_t ticks_ = 0;
};

class StaleViewSpammer final : public ByzantineStrategy {
 public:
  const char* name() const noexcept override { return "stale-view-spammer"; }
  void on_tick(ByzantineEnv& env) override {
    if (++ticks_ % 8 != 0) return;
    // One VIEW-CHANGE for the current view (stale: receivers require
    // new_view > view and discard it) and one for the next (premature: it
    // parks in vc_msgs_ but a single voice is below the f+1 join rule).
    for (std::uint64_t target : {env.view, env.view + 1}) {
      ViewChange vc;
      vc.new_view = target;
      vc.stable_seq = 0;
      env.transport.broadcast_replicas(encode_for_replicas(
          Envelope{env.cfg.self, Message{vc}}, env.keys, env.cfg.n));
    }
  }

 private:
  std::uint64_t ticks_ = 0;
};

/// A Byzantine primary's pen for the decision ring: every abuse is a raw
/// RDMA WRITE through DecisionLog::raw_write, spawned detached on the
/// simulator (the hook itself cannot suspend). The coroutine closes over
/// the harness-owned log only, so it survives replica teardown.
class FastPathAbuser final : public ByzantineStrategy {
 public:
  explicit FastPathAbuser(FastPathAbuse mode) : mode_(mode) {}

  const char* name() const noexcept override {
    switch (mode_) {
      case FastPathAbuse::kForge: return "fastpath-forge";
      case FastPathAbuse::kTorn: return "fastpath-torn";
      case FastPathAbuse::kReplay: return "fastpath-replay";
      case FastPathAbuse::kStaleRkey: return "fastpath-stale-rkey";
    }
    return "fastpath-abuser";
  }

  bool should_propose(ByzantineEnv& env) override {
    if (mode_ != FastPathAbuse::kStaleRkey) return true;
    // Propose a couple of batches (publishing them caches the view-0
    // grants), then go silent: the liveness attack that gets us deposed —
    // which is the precondition the stale-rkey probe needs.
    (void)env;
    return ++proposals_ <= 2;
  }

  bool on_fast_publish(ByzantineEnv& env, const PrePrepare& pp,
                       SharedBytes& record) override {
    nio::DecisionLog* dlog = env.cfg.decision_log;
    if (dlog == nullptr) return true;
    switch (mode_) {
      case FastPathAbuse::kForge: {
        // Well-framed garbage of the record's exact length, written with
        // the *valid* grant: framing passes, MAC authentication must not.
        const Bytes junk = patterned_bytes(record.size(), 0xEB11 + pp.seq);
        write_to_all(env, *dlog,
                     nio::DecisionLog::make_slot(pp.seq, env.view,
                                                 env.sim.now(), ByteView(junk)),
                     dlog->slot_offset(pp.seq));
        return false;  // and never publish the authentic record
      }
      case FastPathAbuse::kTorn: {
        // The authentic record with a broken canary: pollers must treat
        // it as not-arrived forever and let the message path commit.
        write_to_all(env, *dlog,
                     nio::DecisionLog::make_slot(
                         pp.seq, env.view, env.sim.now(),
                         ByteView(record.data(), record.size()),
                         /*valid_canary=*/false),
                     dlog->slot_offset(pp.seq));
        return false;
      }
      case FastPathAbuse::kReplay: {
        // Publish honestly, but keep stamping the first record back over
        // its (long consumed) slot — genuine MACs, stale content.
        if (!first_.has_value()) {
          first_ = nio::DecisionLog::make_slot(
              pp.seq, env.view, env.sim.now(),
              ByteView(record.data(), record.size()));
          first_off_ = dlog->slot_offset(pp.seq);
        } else {
          write_to_all(env, *dlog, *first_, first_off_);
        }
        return true;
      }
      case FastPathAbuse::kStaleRkey:
        return true;  // honest while in power; the abuse starts deposed
    }
    return true;
  }

  void on_tick(ByzantineEnv& env) override {
    if (mode_ != FastPathAbuse::kStaleRkey) return;
    nio::DecisionLog* dlog = env.cfg.decision_log;
    if (dlog == nullptr || env.view == 0 || probes_ >= kMaxProbes) return;
    // Deposed: the cached view-0 grant is revoked, but a Byzantine node
    // keeps using it — each write must bounce off the flipped ring with
    // kRemoteAccessError (visible via drain_completions).
    ++probes_;
    const std::uint32_t victim = (env.cfg.self + 1) % env.cfg.n;
    env.sim.spawn([](nio::DecisionLog& l, std::uint32_t peer,
                     std::uint64_t off, SharedBytes s) -> sim::Task<void> {
      (void)co_await l.raw_write(peer, off, std::move(s));  // cached rkey
      (void)l.drain_completions();
    }(*dlog, victim,
      dlog->slot_offset(probes_),
      nio::DecisionLog::make_slot(probes_, 0, 0, patterned_bytes(64, 13))));
  }

 private:
  static void write_to_all(ByzantineEnv& env, nio::DecisionLog& dlog,
                           const SharedBytes& slot, std::uint64_t off) {
    for (std::uint32_t p = 0; p < env.cfg.n; ++p) {
      if (p == env.cfg.self) continue;
      const auto grant = dlog.peer_grant(p, env.view);
      if (!grant.has_value()) continue;
      env.sim.spawn([](nio::DecisionLog& l, std::uint32_t peer,
                       std::uint64_t at, SharedBytes s,
                       std::uint32_t rkey) -> sim::Task<void> {
        (void)co_await l.raw_write(peer, at, std::move(s), rkey);
      }(dlog, p, off, slot, *grant));
    }
  }

  static constexpr std::uint64_t kMaxProbes = 4;
  FastPathAbuse mode_;
  std::optional<SharedBytes> first_;
  std::uint64_t first_off_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t proposals_ = 0;
};

}  // namespace

std::shared_ptr<ByzantineStrategy> make_fastpath_abuser(FastPathAbuse mode) {
  return std::make_shared<FastPathAbuser>(mode);
}

std::shared_ptr<ByzantineStrategy> make_crash() {
  return std::make_shared<CrashStrategy>();
}
std::shared_ptr<ByzantineStrategy> make_silent_primary() {
  return std::make_shared<SilentPrimary>();
}
std::shared_ptr<ByzantineStrategy> make_equivocating_primary() {
  return std::make_shared<EquivocatingPrimary>();
}
std::shared_ptr<ByzantineStrategy> make_corrupt_macs() {
  return std::make_shared<CorruptMacs>();
}
std::shared_ptr<ByzantineStrategy> make_mute() {
  return std::make_shared<MuteReplica>();
}
std::shared_ptr<ByzantineStrategy> make_replayer() {
  return std::make_shared<Replayer>();
}
std::shared_ptr<ByzantineStrategy> make_stale_view_spammer() {
  return std::make_shared<StaleViewSpammer>();
}

std::shared_ptr<ByzantineStrategy> make_strategy_by_name(
    const std::string& name) {
  if (name == "crash") return make_crash();
  if (name == "silent-primary") return make_silent_primary();
  if (name == "equivocating-primary") return make_equivocating_primary();
  if (name == "corrupt-macs") return make_corrupt_macs();
  if (name == "mute") return make_mute();
  if (name == "replayer") return make_replayer();
  if (name == "stale-view-spammer") return make_stale_view_spammer();
  if (name == "fastpath-forge") {
    return make_fastpath_abuser(FastPathAbuse::kForge);
  }
  if (name == "fastpath-torn") return make_fastpath_abuser(FastPathAbuse::kTorn);
  if (name == "fastpath-replay") {
    return make_fastpath_abuser(FastPathAbuse::kReplay);
  }
  if (name == "fastpath-stale-rkey") {
    return make_fastpath_abuser(FastPathAbuse::kStaleRkey);
  }
  return nullptr;
}

}  // namespace rubin::reptor
