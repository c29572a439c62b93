// perfbench PBFT runner: group construction, the open-loop driver, the
// traced observers, and the output checks.
#include "pbft.hpp"

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "reptor/client.hpp"
#include "reptor/messages.hpp"
#include "reptor/transport_rubin.hpp"
#include "sim/mailbox.hpp"
#include "trace.hpp"
#include "workloads/bft_harness.hpp"

namespace perfbench {

using namespace rubin;
using namespace rubin::reptor;

namespace {

constexpr std::uint32_t kReplicas = 4;
constexpr std::uint32_t kQuorum = 3;  // 2f+1
constexpr NodeId kFirstClient = kReplicas;
/// Smallest op: "add:1" plus padding.
constexpr double kPayloadLo = 64;
/// Step and SliceClock slice of the measured phase: ~9 requests at the
/// reference rate, under a millisecond of host time.
constexpr sim::Time kSlice = sim::microseconds(100);

struct Arrival {
  sim::Time at = 0;  // relative to t0
  std::uint32_t bytes = 0;
};

std::vector<Arrival> make_arrivals(const PbftConfig& c) {
  Gen g(mix_seed(c.seed, 0xA77));
  std::vector<Arrival> out;
  out.reserve(c.arrivals);
  double t = 0;
  const double mean_gap_ns = 1e9 / c.rate_rps;
  for (std::uint32_t i = 0; i < c.arrivals; ++i) {
    t += g.exponential(mean_gap_ns);
    const double b = g.pareto(kPayloadLo, c.payload_hi, c.payload_alpha);
    out.push_back({static_cast<sim::Time>(t), static_cast<std::uint32_t>(b)});
  }
  return out;
}

Bytes make_op(std::uint32_t bytes) {
  std::string op = "add:1";
  op.resize(std::max<std::size_t>(op.size(), bytes), 'x');
  return to_bytes(op);
}

/// The system under test plus the transports' inner handles for stats.
/// The destructor reaps every suspended coroutine while the replicas,
/// clients and transports they reference are still alive.
class Group {
 public:
  Group(const PbftConfig& c, Tap* tap) : h_(Backend::kRubin, kReplicas, c.pool) {
    const nio::ChannelConfig mesh = RubinTransport::default_config();
    const nio::ChannelConfig accept =
        c.lean_clients ? lean_accept_config() : mesh;
    const nio::ChannelConfig client =
        c.lean_clients ? lean_client_config(c.payload_hi) : mesh;
    for (NodeId r = 0; r < kReplicas; ++r) {
      ReplicaConfig cfg;
      cfg.n = kReplicas;
      cfg.f = 1;
      cfg.self = r;
      cfg.costs = c.costs;
      cfg.view_change_timeout = c.view_change_timeout;
      replicas_.push_back(std::make_unique<Replica>(
          h_.sim(),
          wrap(std::make_unique<RubinTransport>(h_.context(r), h_.layout(), r,
                                                mesh, 10, accept),
               tap),
          h_.keys(r), std::make_unique<CounterApp>(), cfg));
    }
    for (std::uint32_t i = 0; i < c.pool; ++i) {
      const NodeId id = kFirstClient + i;
      ClientConfig cfg;
      cfg.n = kReplicas;
      cfg.f = 1;
      cfg.self = id;
      cfg.costs = c.costs;
      clients_.push_back(std::make_unique<Client>(
          h_.sim(),
          wrap(std::make_unique<RubinTransport>(h_.context(id), h_.layout(), id,
                                                client),
               tap),
          h_.keys(id), cfg));
    }
    for (auto& r : replicas_) h_.sim().spawn(r->run());
  }
  ~Group() { h_.sim().terminate_processes(); }
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  sim::Simulator& sim() { return h_.sim(); }
  BftHarness& harness() { return h_; }
  Replica& replica(NodeId r) { return *replicas_[r]; }
  Client& client(std::uint32_t i) { return *clients_[i]; }
  const std::vector<const Transport*>& transports() const { return inner_; }

 private:
  std::unique_ptr<Transport> wrap(std::unique_ptr<RubinTransport> t, Tap* tap) {
    inner_.push_back(t.get());
    if (tap == nullptr) return t;
    return std::make_unique<TapTransport>(std::move(t), *tap);
  }

  BftHarness h_;
  std::vector<const Transport*> inner_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Client>> clients_;
};

/// Open-loop driver state: arrivals fall due on schedule; one that finds
/// no idle pool client waits in `fifo`, and its latency still counts from
/// its due time.
struct Driver {
  std::vector<Arrival> arrivals;
  sim::Time t0 = 0;
  std::deque<std::uint32_t> fifo;
  std::deque<std::uint32_t> idle;
  std::vector<std::unique_ptr<sim::Mailbox<std::uint32_t>>> boxes;
  std::vector<sim::Time> dispatched, completed_at;
  std::vector<bool> done;
  std::uint64_t completed = 0;
  sim::Time busy = 0;
  sim::Time last_completion = 0;
  /// Per pool client: arrival index of its k-th invoke (request id k+1).
  std::vector<std::vector<std::uint32_t>> by_request;
};

sim::Task<void> generator(sim::Simulator& sim, Driver& d) {
  for (std::uint32_t i = 0; i < d.arrivals.size(); ++i) {
    const sim::Time due = d.t0 + d.arrivals[i].at;
    if (due > sim.now()) co_await sim.sleep(due - sim.now());
    if (d.idle.empty()) {
      d.fifo.push_back(i);
    } else {
      const std::uint32_t w = d.idle.front();
      d.idle.pop_front();
      d.boxes[w]->push(i);
    }
  }
}

sim::Task<void> worker(sim::Simulator& sim, Client& client, Driver& d,
                       std::uint32_t w) {
  for (;;) {
    std::uint32_t i = 0;
    if (!d.fifo.empty()) {
      i = d.fifo.front();
      d.fifo.pop_front();
    } else {
      d.idle.push_back(w);
      i = co_await d.boxes[w]->recv();
    }
    const sim::Time start = sim.now();
    d.dispatched[i] = start;
    d.by_request[w].push_back(i);
    (void)co_await client.invoke(make_op(d.arrivals[i].bytes));
    d.completed_at[i] = sim.now();
    d.done[i] = true;
    ++d.completed;
    d.busy += sim.now() - start;
    d.last_completion = sim.now();
  }
}

}  // namespace

namespace {

/// Buffers per direction on client-facing channels: twice the default
/// signal interval. With 8 or 16, overload rungs trip RdmaChannel's
/// outstanding-WR audit; with 32 the self-test finds virtual latency
/// identical to the default config.
constexpr std::uint32_t kLeanBuffers = 32;

std::size_t kib_round(std::size_t bytes) { return (bytes + 1023) / 1024 * 1024; }

/// Largest REQUEST frame a client sends: one payload_hi op with the full
/// n-replica authenticator.
std::size_t largest_request(double payload_hi) {
  Request req;
  req.client = kFirstClient;
  req.id = 1;
  req.op = make_op(static_cast<std::uint32_t>(payload_hi));
  const KeyTable keys(kFirstClient, kFirstClient + 1, to_bytes("sizing"));
  return encode_for_replicas(Envelope{kFirstClient, Message{req}}, keys, kReplicas)
      .size();
}

}  // namespace

nio::ChannelConfig lean_client_config(double payload_hi) {
  nio::ChannelConfig cfg = RubinTransport::default_config();
  cfg.buffer_count = kLeanBuffers;
  cfg.buffer_size = kib_round(largest_request(payload_hi));
  return cfg;
}

nio::ChannelConfig lean_accept_config() {
  // accept_cfg covers every accepted connection, and replica r accepts the
  // mesh links from the replicas above it, so the view-0 primary sends its
  // PRE-PREPAREs, and every replica its VIEW-CHANGE and NEW-VIEW frames, on
  // accepted channels. Those frames carry whole batches and have no bound
  // below the mesh's own buffer size, so only the buffer count is lean.
  nio::ChannelConfig cfg = RubinTransport::default_config();
  cfg.buffer_count = kLeanBuffers;
  return cfg;
}

double p50(const std::vector<double>& v) { return quantile(v, 0.5); }
double p99(const std::vector<double>& v) { return quantile(v, kTailQ); }

PbftRun run_pbft(const PbftConfig& c) {
  PbftRun out;
  Driver d;
  d.arrivals = make_arrivals(c);
  const std::size_t n = d.arrivals.size();
  d.dispatched.assign(n, -1);
  d.completed_at.assign(n, -1);
  d.done.assign(n, false);
  d.by_request.resize(c.pool);
  for (auto& v : d.by_request) v.reserve(n / c.pool * 2 + 16);

  // Stage spans (traced run only): propose on the primary, the 2f+1-th
  // replica to reach commit for each sequence.
  std::vector<sim::Time> proposed(n, -1);
  std::vector<std::uint64_t> seq_of(n, 0);
  std::map<std::uint64_t, std::uint32_t> commit_votes;
  std::map<std::uint64_t, sim::Time> quorum_commit;

  const double setup_t0 = host_now();
  const Usage setup_u0 = usage_now();
  std::unique_ptr<Tap> tap;
  if (c.trace) tap = std::make_unique<Tap>(7, 4000);
  Group g(c, tap.get());
  sim::Simulator& sim = g.sim();
  if (c.trace) {
    g.replica(0).set_propose_observer(
        [&](std::uint64_t seq, const PrePrepare& pp) {
          for (const Request& r : pp.batch) {
            const std::uint32_t w = r.client - kFirstClient;
            if (w < c.pool && r.id >= 1 && r.id <= d.by_request[w].size()) {
              const std::uint32_t i = d.by_request[w][r.id - 1];
              proposed[i] = sim.now();
              seq_of[i] = seq;
            }
          }
        });
    for (NodeId r = 0; r < kReplicas; ++r) {
      g.replica(r).set_commit_observer([&](std::uint64_t seq, const PrePrepare&) {
        if (++commit_votes[seq] == kQuorum) quorum_commit[seq] = sim.now();
      });
    }
  }

  // Connection storm: every pool client connects to every replica.
  std::uint32_t connected = 0;
  for (std::uint32_t i = 0; i < c.pool; ++i) {
    sim.spawn([](Client& cl, std::uint32_t& up) -> sim::Task<> {
      co_await cl.start();
      ++up;
    }(g.client(i), connected));
  }
  while (connected < c.pool && sim.now() < sim::seconds(1)) {
    sim.run_until(sim.now() + sim::microseconds(100));
  }
  d.t0 = sim.now() + sim::microseconds(100);
  for (std::uint32_t w = 0; w < c.pool; ++w) {
    d.boxes.push_back(std::make_unique<sim::Mailbox<std::uint32_t>>(sim));
    sim.spawn(worker(sim, g.client(w), d, w));
  }
  sim.spawn(generator(sim, d));
  sim.run_until(d.t0);
  out.setup_s = host_now() - setup_t0;
  out.setup_minflt = usage_now().minflt - setup_u0.minflt;

  // Measured phase: until every arrival completed, or the horizon.
  const sim::Time last_due = d.t0 + d.arrivals.back().at;
  const sim::Time horizon = last_due + sim::milliseconds(c.crash_primary ? 400 : 100);
  const sim::Time crash_time = d.t0 + c.crash_at;
  const std::uint64_t events0 = sim.events_processed();
  std::optional<Sampler> sampler;
  if (c.sample) sampler.emplace();
  HostTimer phase;
  SliceClock slices(d.t0, kSlice);
  bool crashed = false;
  sim::Time all_in_new_view = -1;
  while (d.completed < n && sim.now() < horizon) {
    sim::Time step = kSlice;
    if (c.crash_primary && !crashed) {
      step = std::min(step, crash_time - sim.now());
    } else if (c.crash_primary && all_in_new_view < 0) {
      // Observation only: run_until adds no events, so fine steps cannot
      // move the schedule.
      step = sim::microseconds(20);
    }
    sim.run_until(sim.now() + std::max<sim::Time>(step, 0));
    if (c.crash_primary && !crashed && sim.now() >= crash_time) {
      g.replica(0).inject_crash();
      crashed = true;
    }
    slices.observe(sim.now());
    if (crashed && all_in_new_view < 0 && g.replica(1).view() >= 1 &&
        g.replica(2).view() >= 1 && g.replica(3).view() >= 1) {
      all_in_new_view = sim.now();
    }
  }
  out.phase = phase.stop();
  out.slice_cpu_s = slices.finish();
  if (sampler) out.samples = sampler->stop();
  out.events = sim.events_processed() - events0;

  // Let backups finish executing the last batches, then check outputs.
  sim.run_until(sim.now() + sim::milliseconds(5));

  out.attempted = n;
  out.completed = d.completed;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Time due = d.t0 + d.arrivals[i].at;
    if (d.dispatched[i] >= 0) out.queue_us.push_back(sim::to_us(d.dispatched[i] - due));
    if (!d.done[i]) continue;
    out.lat_us.push_back(sim::to_us(d.completed_at[i] - due));
    if (c.trace && proposed[i] >= 0) {
      const auto qc = quorum_commit.find(seq_of[i]);
      if (qc != quorum_commit.end()) {
        out.order_us.push_back(sim::to_us(proposed[i] - d.dispatched[i]));
        out.agree_us.push_back(sim::to_us(qc->second - proposed[i]));
        out.reply_us.push_back(sim::to_us(d.completed_at[i] - qc->second));
      }
    }
  }
  const double span_s = sim::to_s(std::max<sim::Time>(d.last_completion - d.t0, 1));
  out.offered_rps = static_cast<double>(n) / sim::to_s(std::max<sim::Time>(last_due - d.t0, 1));
  out.achieved_rps = static_cast<double>(d.completed) / span_s;
  out.pool_util = sim::to_s(d.busy) / (span_s * c.pool);
  // Backlog: the last quarter of arrivals (by due time) waits clearly
  // longer than the first quarter.
  if (out.lat_us.size() == n && n >= 8) {
    const std::vector<double> first(out.lat_us.begin(), out.lat_us.begin() + n / 4);
    const std::vector<double> last(out.lat_us.end() - n / 4, out.lat_us.end());
    out.backlog_grows = median(last) > 1.25 * median(first) + 20.0;
  } else {
    out.backlog_grows = true;
  }

  if (c.crash_primary) {
    sim::Time first_after = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (d.done[i] && d.t0 + d.arrivals[i].at >= crash_time &&
          (first_after < 0 || d.completed_at[i] < first_after)) {
        first_after = d.completed_at[i];
      }
    }
    out.unavailable_ms = first_after < 0 ? 0 : sim::to_ms(first_after - crash_time);
    out.view_change_ms = all_in_new_view < 0 ? 0 : sim::to_ms(all_in_new_view - crash_time);
  }

  for (std::uint32_t i = 0; i < c.pool; ++i) out.client_retries += g.client(i).stats().retries;
  for (NodeId r = 0; r < kReplicas; ++r) out.msgs_handled += g.replica(r).stats().messages_handled;
  out.batches = g.replica(1).stats().batches_committed;
  for (const Transport* t : g.transports()) {
    out.frames_sent += t->stats().frames_sent;
    out.bytes_sent += t->stats().bytes_sent;
    out.flush_batches += t->stats().flush_batches;
  }

  // Output checks over the correct replicas.
  const NodeId first_correct = c.crash_primary ? 1 : 0;
  const Replica& ref = g.replica(first_correct);
  out.digests_equal = true;
  out.auth_clean = true;
  for (NodeId r = first_correct; r < kReplicas; ++r) {
    const Replica& x = g.replica(r);
    out.digests_equal = out.digests_equal &&
                        x.app().state_digest() == ref.app().state_digest() &&
                        x.last_executed() == ref.last_executed();
    out.auth_clean = out.auth_clean && x.stats().auth_failures == 0;
  }
  const auto& app = dynamic_cast<const CounterApp&>(ref.app());
  out.executed_matches = ref.stats().requests_executed == d.completed &&
                         app.value() == d.completed;
  out.new_view = g.replica(1).view() >= 1 && g.replica(1).stats().view_changes >= 1;

  if (c.trace) {
    std::map<std::uint32_t, KeyTable> keys;
    const ReplayCost rc = replay(
        *tap,
        [&g, &keys](std::uint32_t id) -> const KeyTable& {
          auto it = keys.find(id);
          if (it == keys.end()) it = keys.emplace(id, g.harness().keys(id)).first;
          return it->second;
        },
        kReplicas);
    out.replay_crypto_s = rc.crypto_s;
    out.replay_codec_s = rc.codec_s;
    out.mac_bytes = rc.mac_bytes;
    out.mean_frame_bytes = tap->frames_received
                               ? static_cast<double>(tap->bytes_received) /
                                     static_cast<double>(tap->frames_received)
                               : 0;
    out.sample_bytes = tap->sample_bytes();
    out.largest_frame = tap->largest_frame;
  }
  return out;
}

}  // namespace perfbench
