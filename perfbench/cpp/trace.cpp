#include "trace.hpp"

#include <utility>

#include "bench.hpp"
#include "reptor/messages.hpp"
#include "sim/simulator.hpp"
#include "workloads/echo_kit.hpp"

namespace perfbench {

using rubin::Bytes;
using rubin::ByteView;
using rubin::FrameVec;
using rubin::reptor::InboundMsg;
using rubin::reptor::NodeId;

namespace {

Bytes gather(const FrameVec& f) {
  Bytes out(f.total_size());
  f.copy_to(out);
  return out;
}

/// MACs trailing a frame: the wire format is body | u8 count | count x 8 B.
/// Frames carry either one MAC or a full n-replica authenticator.
std::size_t mac_count_of(ByteView frame, std::uint32_t replicas) {
  for (const std::size_t mc : {std::size_t{replicas}, std::size_t{1}}) {
    const std::size_t trailer = 1 + mc * sizeof(rubin::Mac);
    if (frame.size() > trailer && frame[frame.size() - trailer] == mc) {
      return mc;
    }
  }
  return 0;
}

std::size_t body_len(ByteView frame, std::size_t mc) {
  return frame.size() - 1 - mc * sizeof(rubin::Mac);
}

/// Times `fn` over `reps` passes (at least one) and returns seconds per
/// pass. Passes repeat until 20 ms have elapsed so short loops are not
/// dominated by clock resolution.
template <typename Fn>
double time_per_pass(Fn&& fn) {
  int reps = 0;
  const double t0 = host_now();
  double t = t0;
  do {
    fn();
    ++reps;
    t = host_now();
  } while (t - t0 < 0.02);
  return (t - t0) / reps;
}

}  // namespace

void Tap::on_send(NodeId self, NodeId peer, const FrameVec& f, bool first_copy) {
  ++frames_sent;
  if (!first_copy) return;
  ++frames_encoded;
  if (frames_encoded % every_ == 0 && encoded.size() < cap_) {
    encoded.push_back({self, peer, gather(f)});
  }
}

void Tap::on_recv(NodeId self, const InboundMsg& m) {
  ++frames_received;
  bytes_received += m.frame.size();
  largest_frame = std::max(largest_frame, m.frame.size());
  if (frames_received % every_ == 0 && received.size() < cap_) {
    const ByteView v = m.frame.view();
    received.push_back({self, m.peer, Bytes(v.begin(), v.end())});
  }
}

std::size_t Tap::sample_bytes() const {
  std::size_t b = (encoded.capacity() + received.capacity()) * sizeof(FrameSample);
  for (const auto& s : encoded) b += s.bytes.capacity();
  for (const auto& s : received) b += s.bytes.capacity();
  return b;
}

TapTransport::TapTransport(std::unique_ptr<rubin::reptor::Transport> inner,
                           Tap& tap)
    : Transport(inner->layout(), inner->self()),
      inner_(std::move(inner)),
      tap_(&tap) {}

bool TapTransport::connected(NodeId peer) const {
  return inner_->connected(peer);
}

rubin::sim::Task<void> TapTransport::start() { return inner_->start(); }

rubin::sim::Task<std::vector<InboundMsg>> TapTransport::poll(
    rubin::sim::Time timeout) {
  // Same per-peer order the inner transport would have queued itself.
  flushed_ids_.clear();
  for (auto& [peer, q] : outbound_) {
    while (!q.empty()) {
      const std::uint64_t id = q.front().empty() ? 0 : q.front().slice_at(0).buffer_id();
      tap_->on_send(self_, peer, q.front(), flushed_ids_.insert(id).second);
      inner_->send(peer, std::move(q.front()));
      q.pop_front();
    }
  }
  std::vector<InboundMsg> msgs = co_await inner_->poll(timeout);
  for (const InboundMsg& m : msgs) tap_->on_recv(self_, m);
  co_return msgs;
}

ReplayCost replay(const Tap& tap,
                  const std::function<const rubin::KeyTable&(std::uint32_t)>& keys,
                  std::uint32_t replicas) {
  namespace rp = rubin::reptor;
  ReplayCost c;

  // Receive side: verify (one MAC over the body) + decode; backups also
  // digest every PRE-PREPARE batch they accept.
  if (!tap.received.empty()) {
    std::size_t sink = 0;
    const double dv = time_per_pass([&] {
      for (const auto& s : tap.received) {
        sink += rp::decode_verified(s.bytes, keys(s.node)).has_value();
      }
    });
    const double du = time_per_pass([&] {
      for (const auto& s : tap.received) {
        sink += rp::decode_unverified(s.bytes).has_value();
      }
    });
    std::vector<std::vector<rp::Request>> batches;
    double mac_bytes = 0;
    for (const auto& s : tap.received) {
      mac_bytes += static_cast<double>(
          body_len(s.bytes, mac_count_of(s.bytes, replicas)));
      if (auto env = rp::decode_unverified(s.bytes)) {
        if (auto* pp = std::get_if<rp::PrePrepare>(&env->msg)) {
          batches.push_back(pp->batch);
        }
      }
    }
    const double dg = batches.empty() ? 0 : time_per_pass([&] {
      for (const auto& b : batches) sink += rp::batch_digest(b)[0];
    });
    const double scale = static_cast<double>(tap.frames_received) /
                         static_cast<double>(tap.received.size());
    c.crypto_s += (std::max(0.0, dv - du) + dg) * scale;
    c.codec_s += du * scale;
    c.mac_bytes += mac_bytes * scale;
    if (sink == 0) std::fprintf(stderr, "replay: nothing decoded\n");
  }

  // Send side: one encode per distinct frame, with one MAC per replica
  // (authenticator) or a single MAC (point-to-point).
  if (!tap.encoded.empty()) {
    struct Enc {
      const FrameSample* s;
      rp::Envelope env;
      std::size_t mc;
    };
    std::vector<Enc> encs;
    double mac_bytes = 0;
    for (const auto& s : tap.encoded) {
      auto env = rp::decode_unverified(s.bytes);
      const std::size_t mc = mac_count_of(s.bytes, replicas);
      if (!env || mc == 0) continue;
      mac_bytes += static_cast<double>(body_len(s.bytes, mc) * mc);
      encs.push_back({&s, std::move(*env), mc});
    }
    std::size_t sink = 0;
    const double enc = time_per_pass([&] {
      for (const auto& e : encs) {
        const auto& k = keys(e.s->node);
        sink += e.mc == 1 ? rp::encode_for_peer(e.env, k, e.s->peer).size()
                          : rp::encode_for_replicas(e.env, k, replicas).size();
      }
    });
    const double mac = time_per_pass([&] {
      for (const auto& e : encs) {
        const auto& k = keys(e.s->node);
        const ByteView body = ByteView(e.s->bytes).first(body_len(e.s->bytes, e.mc));
        if (e.mc == 1) {
          sink += k.mac_for(e.s->peer, body)[0];
        } else {
          for (std::uint32_t r = 0; r < replicas; ++r) sink += k.mac_for(r, body)[0];
        }
      }
    });
    if (!encs.empty()) {
      const double scale = static_cast<double>(tap.frames_encoded) /
                           static_cast<double>(encs.size());
      c.crypto_s += mac * scale;
      c.codec_s += std::max(0.0, enc - mac) * scale;
      c.mac_bytes += mac_bytes * scale;
    }
    if (sink == 0) std::fprintf(stderr, "replay: nothing encoded\n");
  }
  return c;
}

double sim_kernel_ns_per_event() {
  // 64 self-rescheduling timer chains: a small pending set, like a
  // running group, and every callback is one kernel dispatch.
  constexpr std::uint64_t kEvents = 400000;
  struct Tick {
    rubin::sim::Simulator* sim;
    std::uint64_t* fired;
    rubin::sim::Time delay;
    void operator()() const {
      if (++*fired < kEvents) sim->schedule_after(delay, *this);
    }
  };
  rubin::sim::Simulator sim;
  std::uint64_t fired = 0;
  const double t0 = host_now();
  for (rubin::sim::Time c = 0; c < 64; ++c) sim.schedule_at(c, Tick{&sim, &fired, 1000 + 37 * c});
  sim.run();
  return (host_now() - t0) * 1e9 / static_cast<double>(fired);
}

double channel_ns_per_frame(std::size_t payload, rubin::nio::ChannelConfig cfg) {
  // Two echo runs that differ only in length: the difference cancels the
  // pair's construction and connection cost.
  auto run = [&](int messages) {
    rubin::workloads::EchoParams p;
    p.payload = payload;
    p.messages = messages;
    const double t0 = host_now();
    (void)rubin::workloads::run_channel_echo(p, cfg);
    return host_now() - t0;
  };
  const double short_run = run(2000);
  const double long_run = run(6000);
  return std::max(0.0, long_run - short_run) * 1e9 / (2.0 * 4000);
}

}  // namespace perfbench
