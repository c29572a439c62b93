// perfbench traced run: observation from outside the program.
//
// TapTransport decorates a node's transport through the public Transport
// interface. It forwards queued sends to the inner transport before
// awaiting the inner poll(), so the inner transport sees exactly the
// queue it would have seen undecorated, and it copies a bounded sample of
// the frames it forwards. It consumes no virtual time and creates no
// SharedBytes, so the simulated schedule is unchanged: the traced run's
// virtual metrics must equal the untraced run's bit for bit.
//
// After the run, replay() times the sampled frames through the program's
// public functions (decode_verified, KeyTable::mac_for, encode_for_*,
// batch_digest) to attribute host self time per layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "reptor/transport.hpp"
#include "rubin/config.hpp"

namespace perfbench {

struct FrameSample {
  rubin::reptor::NodeId node = 0;  // where the frame was sent / received
  rubin::reptor::NodeId peer = 0;
  rubin::Bytes bytes;
};

/// Frame sampler shared by every TapTransport of one group.
class Tap {
 public:
  /// Keeps every `every`-th frame, at most `cap` per direction.
  Tap(std::uint32_t every, std::size_t cap) : every_(every), cap_(cap) {}

  void on_send(rubin::reptor::NodeId self, rubin::reptor::NodeId peer,
               const rubin::FrameVec& f, bool first_copy);
  void on_recv(rubin::reptor::NodeId self, const rubin::reptor::InboundMsg& m);

  std::uint64_t frames_sent = 0;
  /// Distinct encoded frames (a broadcast is one encode, n-1 sends).
  std::uint64_t frames_encoded = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::size_t largest_frame = 0;
  std::vector<FrameSample> encoded;
  std::vector<FrameSample> received;

  /// Host bytes held by the samples (reported against peak RSS).
  std::size_t sample_bytes() const;

 private:
  std::uint32_t every_;
  std::size_t cap_;
};

class TapTransport final : public rubin::reptor::Transport {
 public:
  TapTransport(std::unique_ptr<rubin::reptor::Transport> inner, Tap& tap);

  bool connected(rubin::reptor::NodeId peer) const override;
  rubin::sim::Task<void> start() override;
  rubin::sim::Task<std::vector<rubin::reptor::InboundMsg>> poll(
      rubin::sim::Time timeout) override;

  const rubin::reptor::Transport& inner() const { return *inner_; }

 private:
  std::unique_ptr<rubin::reptor::Transport> inner_;
  Tap* tap_;
  std::unordered_set<std::uint64_t> flushed_ids_;
};

/// Host self time attributed by replaying a Tap's samples, extrapolated
/// to every frame the run carried (seconds, whole run).
struct ReplayCost {
  double crypto_s = 0;  // MAC create/verify + request/batch digests
  double codec_s = 0;   // frame encode/decode without the MACs
  double mac_bytes = 0; // bytes run through HMAC, whole run
};

/// `keys(node)` returns that node's KeyTable; `replicas` is n.
ReplayCost replay(const Tap& tap,
                  const std::function<const rubin::KeyTable&(std::uint32_t)>& keys,
                  std::uint32_t replicas);

/// Host ns per simulator event: a pure kernel loop of timer callbacks.
double sim_kernel_ns_per_event();

/// Host ns per frame through an RdmaChannel echo pair at `payload` bytes.
double channel_ns_per_frame(std::size_t payload, rubin::nio::ChannelConfig cfg);

}  // namespace perfbench
