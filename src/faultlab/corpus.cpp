#include "faultlab/corpus.hpp"

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "faultlab/lab.hpp"

namespace rubin::faultlab {

namespace {

Scenario base(std::string name, std::string description, std::uint32_t n) {
  Scenario s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.n = n;
  s.requests = n > 4 ? 20 : 25;
  s.request_gap = sim::microseconds(500);
  s.seed = 0x5eedULL + n;
  s.replica_cfg.batch_timeout = sim::microseconds(50);
  s.replica_cfg.checkpoint_interval = 8;
  s.replica_cfg.view_change_timeout = sim::milliseconds(10);
  // Not a multiple of n * view_change_timeout: a retry cadence that is
  // would resonate with primary rotation and re-deliver every retry to
  // the same (possibly Byzantine) primary.
  s.client_cfg.retry_timeout = sim::milliseconds(15);
  return s;
}

FaultEvent at(sim::Time t, std::string label,
              std::vector<FaultAction> actions, bool clears = false) {
  FaultEvent e;
  e.label = std::move(label);
  e.at = t;
  e.actions = std::move(actions);
  e.clears_faults = clears;
  return e;
}

/// Seeded fault-combination fuzz: draws `count` actions from the pool of
/// fabric/NIC faults using a generation RNG, scatters them across the
/// first 25ms, then heals everything. The draw happens at
/// corpus-construction time, so the same binary always yields the same
/// schedule — fuzz coverage without giving up the replay-determinism
/// contract.
Scenario fuzz_combo(std::string name, std::uint32_t n,
                    std::uint64_t gen_seed, std::uint32_t count) {
  Scenario s = base(std::move(name),
                    "seeded combination fuzz: " + std::to_string(count) +
                        " fabric/NIC faults drawn from the action pool, "
                        "then a full heal",
                    n);
  s.replica_cfg.pipelines = 2;
  Rng gen(gen_seed);
  for (std::uint32_t i = 0; i < count; ++i) {
    const sim::Time when =
        sim::milliseconds(1) + sim::microseconds(static_cast<double>(gen.next_in(0, 24000)));
    const std::string tag = "fuzz[" + std::to_string(i) + "] ";
    switch (gen.next_below(8)) {
      case 0: {
        const double rate = 0.01 * static_cast<double>(gen.next_in(2, 8));
        s.events.push_back(at(when, tag + "global drop rate",
                              {FaultAction::drop_rate(rate)}));
        break;
      }
      case 1: {
        const double rate = 0.01 * static_cast<double>(gen.next_in(1, 4));
        s.events.push_back(at(when, tag + "corrupt rate",
                              {FaultAction::corrupt_rate(rate)}));
        break;
      }
      case 2: {
        const double rate = 0.01 * static_cast<double>(gen.next_in(5, 25));
        s.events.push_back(at(when, tag + "duplicate rate",
                              {FaultAction::duplicate_rate(rate)}));
        break;
      }
      case 3: {
        const double rate = 0.01 * static_cast<double>(gen.next_in(5, 30));
        const sim::Time hold = sim::microseconds(static_cast<double>(gen.next_in(10, 30)));
        s.events.push_back(at(when, tag + "reorder burst",
                              {FaultAction::reorder(rate, hold)}));
        break;
      }
      case 4: {
        const auto a = static_cast<std::uint32_t>(gen.next_below(n));
        auto b = static_cast<std::uint32_t>(gen.next_below(n - 1));
        if (b >= a) ++b;
        const double rate = 0.1 * static_cast<double>(gen.next_in(2, 5));
        s.events.push_back(at(when, tag + "pair drop",
                              {FaultAction::pair_drop(a, b, rate)}));
        break;
      }
      case 5: {
        const auto a = static_cast<std::uint32_t>(gen.next_below(n));
        auto b = static_cast<std::uint32_t>(gen.next_below(n - 1));
        if (b >= a) ++b;
        const sim::Time extra = sim::microseconds(static_cast<double>(gen.next_in(20, 200)));
        s.events.push_back(at(when, tag + "extra delay",
                              {FaultAction::extra_delay(a, b, extra)}));
        break;
      }
      case 6: {
        const auto src = static_cast<std::uint32_t>(gen.next_below(n));
        auto dst = static_cast<std::uint32_t>(gen.next_below(n - 1));
        if (dst >= src) ++dst;
        s.events.push_back(at(when, tag + "one-way block",
                              {FaultAction::oneway(src, dst)}));
        break;
      }
      default: {
        const auto r = static_cast<std::uint32_t>(gen.next_in(1, n - 1));
        const sim::Time stall = sim::milliseconds(static_cast<double>(gen.next_in(2, 6)));
        s.events.push_back(at(when, tag + "NIC stall",
                              {FaultAction::nic_stall(r, stall)}));
        break;
      }
    }
  }
  s.events.push_back(at(sim::milliseconds(30), "heal everything",
                        {FaultAction::heal()}, /*clears=*/true));
  return s;
}

}  // namespace

std::vector<Scenario> corpus() {
  std::vector<Scenario> all;

  // ---------------------------------------------------- f = 1 (n = 4) --
  all.push_back(base("f1-clean", "control: no faults at all", 4));

  {
    Scenario s = base("f1-crash-backup",
                      "backup 3 crash-stops at t=4ms; group of 3 >= 2f+1 "
                      "keeps committing without a view change", 4);
    s.runtime_faulty = {3};
    s.events.push_back(at(sim::milliseconds(4), "crash replica 3",
                          {FaultAction::crash(3)}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-crash-primary",
                      "after 8 commits complete, the primary crash-stops; "
                      "client retry tips off the backups and the view "
                      "change elects replica 1", 4);
    s.runtime_faulty = {0};
    FaultEvent e;
    e.label = "crash primary after 8 completions";
    e.after_completions = 8;
    e.actions = {FaultAction::crash(0)};
    e.clears_faults = true;
    s.events.push_back(std::move(e));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-partition-primary",
                      "the primary is partitioned from everyone for 20ms "
                      "(honest, just unreachable); view change during the "
                      "outage, state transfer after the heal", 4);
    s.events.push_back(at(sim::milliseconds(4), "isolate replica 0",
                          {FaultAction::isolate(0)}));
    s.events.push_back(at(sim::milliseconds(24), "heal partition",
                          {FaultAction::heal()}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    // The first faulty-*client* scenario (PopLab PR): the replica group
    // itself is healthy throughout — the fault is an entire client cohort
    // dropping off mid-ramp. The group must stay live for the surviving
    // cohort during the outage, and the partitioned clients' retries must
    // drain after the heal (retry_timeout 15ms < heal-to-horizon slack).
    Scenario s = base("f1-partition-client-cohort",
                      "half the client population (hosts 6,7) is partitioned "
                      "away mid-ramp for 20ms; the group keeps serving the "
                      "surviving cohort, and the dropped cohort's retries "
                      "complete after the heal", 4);
    s.clients = 4;  // hosts 4,5 = cohort A (survivors), 6,7 = cohort B
    s.events.push_back(at(sim::milliseconds(4), "drop client cohort B",
                          {FaultAction::isolate(6), FaultAction::isolate(7)}));
    s.events.push_back(at(sim::milliseconds(24), "heal cohort partition",
                          {FaultAction::heal()}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-lossy-fabric",
                      "5% global frame loss for 50ms; RC retransmission "
                      "and client retries ride it out", 4);
    s.events.push_back(at(sim::milliseconds(2), "5% drop rate",
                          {FaultAction::drop_rate(0.05)}));
    s.events.push_back(at(sim::milliseconds(30), "heal fabric",
                          {FaultAction::heal()}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-corrupt-frames",
                      "5% of frames are bit-flipped for the whole run; the "
                      "MAC layer must reject every garbled frame (checker "
                      "proves none reach execution)", 4);
    s.events.push_back(at(sim::milliseconds(1), "5% corruption",
                          {FaultAction::corrupt_rate(0.05)}));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-duplicate-flood",
                      "25% of frames are duplicated for the whole run; "
                      "verbs PSN tracking and PBFT dedup must absorb the "
                      "ghosts without double-execution", 4);
    s.events.push_back(at(sim::milliseconds(1), "25% duplication",
                          {FaultAction::duplicate_rate(0.25)}));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-reorder-burst",
                      "30% of frames held back 20us for the whole run; "
                      "out-of-order PREPARE/COMMIT arrival must not break "
                      "vote counting", 4);
    s.events.push_back(
        at(sim::milliseconds(1), "30% reordering",
           {FaultAction::reorder(0.3, sim::microseconds(20))}));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-qp-error-backup",
                      "all of backup 3's QPs transition to error at t=6ms "
                      "(flushed completions); transports redial with "
                      "backoff and the replica rejoins", 4);
    s.events.push_back(at(sim::milliseconds(6), "QP errors on host 3",
                          {FaultAction::qp_errors(3)}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-nic-stall-primary",
                      "the primary's NIC stalls for 10ms (frames queue, "
                      "nothing sends); backups may view-change, the stall "
                      "drains, progress resumes", 4);
    s.events.push_back(
        at(sim::milliseconds(5), "NIC stall on host 0",
           {FaultAction::nic_stall(0, sim::milliseconds(10))},
           /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-byz-equivocating-primary",
                      "the primary sends conflicting PRE-PREPAREs (split "
                      "batches); no digest reaches quorum and the view "
                      "change removes it", 4);
    s.strategies[0] = "equivocating-primary";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-byz-silent-primary",
                      "the primary accepts requests but never proposes; "
                      "client broadcast retry arms the backup watchdogs", 4);
    s.strategies[0] = "silent-primary";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-byz-corrupt-macs",
                      "backup 1 garbles its authenticator MACs toward "
                      "even-numbered peers; partial-MAC votes must not "
                      "count toward quorums", 4);
    s.strategies[1] = "corrupt-macs";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-byz-mute-backup",
                      "backup 2 processes everything but sends nothing "
                      "(mute != crash: it still drains and acks at the "
                      "transport level)", 4);
    s.strategies[2] = "mute";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-byz-replayer",
                      "backup 3 rebroadcasts recorded authentic frames; "
                      "vote sets and client dedup must be idempotent", 4);
    s.strategies[3] = "replayer";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-byz-stale-view-spam",
                      "backup 2 spams stale and premature VIEW-CHANGEs; a "
                      "lone voice stays below the f+1 join rule", 4);
    s.strategies[2] = "stale-view-spammer";
    all.push_back(std::move(s));
  }

  // ------------------------------------------ Byzantine *clients* -----
  // The rogue-client axis: the replica group is honest, the attack comes
  // from outside the BFT membership. Host n is an honest bystander whose
  // traffic must stay correct and live throughout; host n+1 runs the
  // adversarial ClientStrategy.
  {
    Scenario s = base("f1-byz-client-replayer",
                      "client 1 sends every REQUEST twice and replays old "
                      "recorded frames to all replicas (genuine MACs, stale "
                      "ids); request dedup and reply caching must absorb "
                      "every copy without double-execution", 4);
    s.clients = 2;
    s.client_strategies[1] = "client-replayer";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-byz-client-forger",
                      "client 1 pairs each genuine REQUEST with a wrong-MAC "
                      "copy and an impersonation of another group identity; "
                      "every forged frame must die at the replicas' MAC "
                      "check (checker: no unissued bytes executed)", 4);
    s.clients = 2;
    s.client_strategies[1] = "client-forger";
    all.push_back(std::move(s));
  }

  // ------------------------------- slow-but-correct vs the watchdog ---
  {
    // The false-positive side of failure detection: a correct primary
    // that is merely *slow* must not be deposed as long as it stays
    // inside the watchdog budget. The per-scenario test pins
    // final_view == 0 — a view-change storm here is a watchdog tuning
    // regression, not a liveness save.
    Scenario s = base("f1-slow-primary",
                      "every link to/from the primary carries 2ms extra "
                      "delay from t=2ms (slow but honest); commits lag, the "
                      "10ms watchdogs must NOT fire — no view change, no "
                      "storm", 4);
    s.events.push_back(
        at(sim::milliseconds(2), "2ms delay on all primary links",
           {FaultAction::extra_delay(0, 1, sim::milliseconds(2)),
            FaultAction::extra_delay(0, 2, sim::milliseconds(2)),
            FaultAction::extra_delay(0, 3, sim::milliseconds(2)),
            FaultAction::extra_delay(0, 4, sim::milliseconds(2))},
           /*clears=*/true));
    all.push_back(std::move(s));
  }

  // ----------------------------------- mid-run strategy installs ------
  {
    // Runtime set_strategy(): the replica starts honest, turns coat at
    // t=6ms (mute: keeps draining, stops voting), and the group of 3
    // finishes without it.
    Scenario s = base("f1-midrun-turncoat",
                      "backup 2 runs honest until t=6ms, then a mid-run "
                      "set_strategy() install mutes it; the remaining "
                      "2f+1 keep committing without a view change", 4);
    s.runtime_faulty = {2};
    s.events.push_back(
        at(sim::milliseconds(6), "install mute strategy on replica 2",
           {FaultAction::set_strategy(2, "mute")}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-asym-deaf-group",
                      "asymmetric partition: every frame FROM the primary "
                      "is blocked while the primary still hears everyone "
                      "(it keeps proposing into the void); the backups "
                      "view-change, the heal lets it catch up", 4);
    s.replica_cfg.pipelines = 2;
    // Hosts 1..3 are replicas, 4 is the client: the primary's replies
    // vanish too.
    s.events.push_back(at(sim::milliseconds(4), "block primary's sends",
                          {FaultAction::oneway(0, 1), FaultAction::oneway(0, 2),
                           FaultAction::oneway(0, 3),
                           FaultAction::oneway(0, 4)}));
    s.events.push_back(at(sim::milliseconds(24), "heal one-way blocks",
                          {FaultAction::heal()}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-asym-mute-votes",
                      "asymmetric partition, backup edition: replica 3 "
                      "hears everything but its frames reach no one — it "
                      "tracks the log silently while the group of 3 "
                      "commits without its votes", 4);
    s.replica_cfg.pipelines = 2;
    s.events.push_back(at(sim::milliseconds(3), "block replica 3's sends",
                          {FaultAction::oneway(3, 0), FaultAction::oneway(3, 1),
                           FaultAction::oneway(3, 2),
                           FaultAction::oneway(3, 4)},
                          /*clears=*/true));
    s.events.push_back(at(sim::milliseconds(20), "heal one-way blocks",
                          {FaultAction::heal()}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  // ------------------------------------- one-sided fast path (n = 4) --
  // DESIGN.md §12: the primary RDMA-writes decision records into
  // per-replica rings; these scenarios aim every abuse mode at that
  // surface and require the message-path fallback to keep the group
  // safe and live throughout.
  {
    Scenario s = base("f1-onesided-clean",
                      "control on the one-sided substrate: fault-free "
                      "commits ride RDMA writes plus 2f+1 ack-cell "
                      "endorsements, no message-path commit is required", 4);
    s.one_sided = true;
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-onesided-forge",
                      "the primary writes well-framed garbage into every "
                      "decision ring instead of its authentic records; "
                      "followers reject at the MAC layer, suspend the fast "
                      "path, and the message path commits everything", 4);
    s.one_sided = true;
    s.strategies[0] = "fastpath-forge";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-onesided-torn",
                      "the primary writes authentic records with broken "
                      "canaries; pollers treat every slot as not-arrived "
                      "forever and agreement falls through to the message "
                      "path without a single fast commit", 4);
    s.one_sided = true;
    s.strategies[0] = "fastpath-torn";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-onesided-replay",
                      "the primary keeps re-stamping its first decision "
                      "record over the (long consumed) slot — genuine MACs, "
                      "stale content; (seq, view) framing plus the executed "
                      "watermark make the replay invisible", 4);
    s.one_sided = true;
    s.strategies[0] = "fastpath-replay";
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f1-onesided-stale-rkey",
                      "the primary proposes twice (caching the view-0 ring "
                      "grants), goes silent to force a view change, then "
                      "keeps writing through the revoked grants; every "
                      "probe NAKs and view 1 commits the backlog", 4);
    s.one_sided = true;
    s.strategies[0] = "fastpath-stale-rkey";
    all.push_back(std::move(s));
  }

  all.push_back(fuzz_combo("f1-fuzz-combo", 4, 0xF022C0DEULL, 6));

  // ---------------------------------------------------- f = 2 (n = 7) --
  {
    Scenario s = base("f2-crash-two",
                      "two backups crash 7ms apart (exactly f=2 faults); "
                      "the remaining 5 = 2f+1 keep committing", 7);
    s.runtime_faulty = {5, 6};
    s.events.push_back(at(sim::milliseconds(5), "crash replica 5",
                          {FaultAction::crash(5)}));
    s.events.push_back(at(sim::milliseconds(12), "crash replica 6",
                          {FaultAction::crash(6)}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f2-equivocate-plus-crash",
                      "an equivocating primary AND a crashed backup "
                      "(f=2 mixed Byzantine/crash); view change must "
                      "succeed with only 5 cooperative replicas", 7);
    s.strategies[0] = "equivocating-primary";
    s.runtime_faulty = {6};
    s.events.push_back(at(sim::milliseconds(8), "crash replica 6",
                          {FaultAction::crash(6)}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f2-partition-minority",
                      "replicas 5 and 6 are cut off for 20ms, then healed; "
                      "the majority keeps running, the minority catches up "
                      "via state transfer", 7);
    s.events.push_back(at(sim::milliseconds(5), "isolate replicas 5,6",
                          {FaultAction::isolate(5), FaultAction::isolate(6)}));
    s.events.push_back(at(sim::milliseconds(25), "heal partition",
                          {FaultAction::heal()}, /*clears=*/true));
    all.push_back(std::move(s));
  }

  {
    Scenario s = base("f2-beyond-envelope",
                      "THREE crashes with f=2: quorum 2f+1=5 is "
                      "unreachable, liveness is forfeit by design — but "
                      "safety must still hold for whatever committed", 7);
    s.expect_liveness = false;
    s.requests = 10;
    s.horizon = sim::milliseconds(600);
    s.runtime_faulty = {4, 5, 6};
    s.events.push_back(at(sim::milliseconds(3), "crash replicas 4,5,6",
                          {FaultAction::crash(4), FaultAction::crash(5),
                           FaultAction::crash(6)}));
    all.push_back(std::move(s));
  }

  all.push_back(fuzz_combo("f2-fuzz-combo", 7, 0xF022C0DE7ULL, 8));

  return all;
}

std::vector<Scenario> smoke_corpus() {
  std::vector<Scenario> out;
  for (const char* name :
       {"f1-crash-primary", "f1-lossy-fabric", "f1-byz-equivocating-primary"}) {
    if (auto s = find_scenario(name)) out.push_back(std::move(*s));
  }
  return out;
}

std::optional<Scenario> find_scenario(const std::string& name) {
  for (Scenario& s : corpus()) {
    if (s.name == name) return std::move(s);
  }
  return std::nullopt;
}

}  // namespace rubin::faultlab
