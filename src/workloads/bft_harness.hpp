// Shared harness for BFT integration tests and benches: builds a fabric,
// one transport per node (NIO or RUBIN backend), replicas and clients.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/audit.hpp"
#include "net/fabric.hpp"
#include "reptor/byzantine.hpp"
#include "reptor/client.hpp"
#include "reptor/replica.hpp"
#include "reptor/transport_nio.hpp"
#include "reptor/transport_rubin.hpp"
#include "rubin/context.hpp"
#include "rubin/decision_log.hpp"
#include "tcpsim/tcp.hpp"
#include "verbs/cm.hpp"

namespace rubin::reptor {

enum class Backend { kNio, kRubin };

inline const char* to_string(Backend b) {
  return b == Backend::kNio ? "nio" : "rubin";
}

class BftHarness {
 public:
  BftHarness(Backend backend, std::uint32_t n_replicas, std::uint32_t n_clients,
             net::CostModel cost = net::CostModel::roce_10g())
      : backend_(backend),
        n_(n_replicas),
        n_clients_(n_clients),
        fabric_(sim_, cost, n_replicas + n_clients) {
    layout_.replica_count = n_replicas;
    for (std::uint32_t h = 0; h < n_replicas + n_clients; ++h) {
      layout_.hosts.push_back(h);
    }
    if (backend_ == Backend::kNio) {
      tcp_ = std::make_unique<tcpsim::TcpNetwork>(fabric_);
    } else {
      cm_ = std::make_unique<verbs::ConnectionManager>(fabric_);
      for (std::uint32_t h = 0; h < n_replicas + n_clients; ++h) {
        devices_.push_back(std::make_unique<verbs::Device>(fabric_, h));
        contexts_.push_back(
            std::make_unique<nio::RubinContext>(*devices_.back(), *cm_));
      }
    }
  }

  /// Replica/client coroutines still suspended at teardown reference the
  /// transports, contexts, and devices below; destroy their frames while
  /// those are alive.
  ~BftHarness() { sim_.terminate_processes(); }

  sim::Simulator& sim() noexcept { return sim_; }
  net::Fabric& fabric() noexcept { return fabric_; }
  const GroupLayout& layout() const noexcept { return layout_; }
  Backend backend() const noexcept { return backend_; }
  std::uint32_t n_replicas() const noexcept { return n_; }
  std::uint32_t n_clients() const noexcept { return n_clients_; }

  /// RUBIN backend only: host h's simulated RNIC (FaultLab injects QP
  /// errors and NIC stalls through this).
  verbs::Device& device(net::HostId host) { return *devices_.at(host); }
  bool has_devices() const noexcept { return !devices_.empty(); }

  /// RUBIN backend only: host id's nio context, for tests that build
  /// custom transports (e.g. a leaner accept-side channel config) over
  /// the harness's fabric instead of going through make_transport.
  nio::RubinContext& context(NodeId id) { return *contexts_.at(id); }

  /// Per-deployment channel tuning for the RUBIN backend (ignored by
  /// kNio). Applies to every transport built afterwards — replicas *and*
  /// clients, so a deployment-level flag like zero_copy_receive covers
  /// the whole group, not just the replica mesh.
  void set_channel_config(nio::ChannelConfig ccfg) { channel_cfg_ = ccfg; }
  void set_zero_copy_receive(bool on) { channel_cfg_.zero_copy_receive = on; }
  const nio::ChannelConfig& channel_config() const noexcept {
    return channel_cfg_;
  }

  /// One-sided fast-path commit (DESIGN.md §12), RUBIN backend only:
  /// builds the decision-log mesh over the replica contexts. Call before
  /// add_replica*; replicas added afterwards dual-send through it while
  /// the message path keeps running underneath.
  void enable_decision_log(nio::DecisionLogConfig dcfg = {}) {
    RUBIN_AUDIT_ASSERT("harness", backend_ == Backend::kRubin,
                       "decision log needs the RUBIN backend");
    RUBIN_AUDIT_ASSERT("harness", replicas_.empty(),
                       "enable_decision_log must precede add_replica");
    std::vector<nio::RubinContext*> ctxs;
    for (std::uint32_t r = 0; r < n_; ++r) ctxs.push_back(contexts_[r].get());
    dlogs_ = nio::DecisionLog::create_group(ctxs, dcfg);
  }
  nio::DecisionLog* decision_log(NodeId id) {
    return dlogs_.empty() ? nullptr : dlogs_.at(id).get();
  }

  std::unique_ptr<Transport> make_transport(NodeId id) {
    if (backend_ == Backend::kNio) {
      return std::make_unique<NioTransport>(*tcp_, layout_, id);
    }
    return std::make_unique<RubinTransport>(*contexts_[id], layout_, id,
                                            channel_cfg_);
  }

  /// RUBIN-backend replica with a custom channel configuration (partition
  /// tests shorten the RC transport-retry budget, for example).
  Replica& add_replica_with_channel_config(NodeId id, ReplicaConfig cfg,
                                           nio::ChannelConfig ccfg,
                                           std::unique_ptr<StateMachine> app =
                                               nullptr) {
    cfg.n = n_;
    cfg.f = (n_ - 1) / 3;
    cfg.self = id;
    if (cfg.decision_log == nullptr && id < dlogs_.size()) {
      cfg.decision_log = dlogs_[id].get();
    }
    if (!app) app = std::make_unique<CounterApp>();
    auto transport =
        std::make_unique<RubinTransport>(*contexts_[id], layout_, id, ccfg);
    replicas_.push_back(std::make_unique<Replica>(
        sim_, std::move(transport), keys(id), std::move(app), cfg));
    sim_.spawn(replicas_.back()->run());
    return *replicas_.back();
  }

  KeyTable keys(NodeId id) const {
    return KeyTable(id, n_ + n_clients_, to_bytes("bft-group-secret"));
  }

  /// Creates + starts a replica (spawned on the simulator immediately).
  /// n and f are derived from the group size (n = 3f + 1).
  Replica& add_replica(NodeId id, ReplicaConfig cfg = {},
                       std::unique_ptr<StateMachine> app = nullptr) {
    cfg.n = n_;
    cfg.f = (n_ - 1) / 3;
    cfg.self = id;
    if (cfg.decision_log == nullptr && id < dlogs_.size()) {
      cfg.decision_log = dlogs_[id].get();
    }
    if (!app) app = std::make_unique<CounterApp>();
    replicas_.push_back(std::make_unique<Replica>(
        sim_, make_transport(id), keys(id), std::move(app), cfg));
    sim_.spawn(replicas_.back()->run());
    return *replicas_.back();
  }

  /// Standard group: n replicas, all honest except the listed
  /// (id, strategy) pairs.
  void add_replicas(
      std::vector<std::pair<NodeId, std::shared_ptr<ByzantineStrategy>>>
          faults = {},
      ReplicaConfig cfg = {}) {
    for (NodeId r = 0; r < n_; ++r) {
      ReplicaConfig c = cfg;
      for (const auto& [id, strategy] : faults) {
        if (id == r) c.strategy = strategy;
      }
      add_replica(r, c);
    }
  }

  Client& add_client(NodeId id, ClientConfig cfg = {}) {
    cfg.n = n_;
    cfg.f = (n_ - 1) / 3;
    cfg.self = id;
    clients_.push_back(std::make_unique<Client>(sim_, make_transport(id),
                                                keys(id), cfg));
    return *clients_.back();
  }

  Replica& replica(NodeId id) { return *replicas_.at(id); }
  Client& client(std::size_t i) { return *clients_.at(i); }
  std::size_t replica_count() const { return replicas_.size(); }

  void stop_all() {
    for (auto& r : replicas_) r->stop();
  }

 private:
  Backend backend_;
  std::uint32_t n_;
  std::uint32_t n_clients_;
  sim::Simulator sim_;
  net::Fabric fabric_;
  GroupLayout layout_;
  std::unique_ptr<tcpsim::TcpNetwork> tcp_;
  std::unique_ptr<verbs::ConnectionManager> cm_;
  std::vector<std::unique_ptr<verbs::Device>> devices_;
  std::vector<std::unique_ptr<nio::RubinContext>> contexts_;
  /// Starts from RubinTransport::default_config(), not a plain
  /// ChannelConfig: the transport's curated default disables zero-copy
  /// send because protocol messages live in transient heap buffers that
  /// defeat the app-buffer MR cache (see transport_rubin.hpp). A plain
  /// default silently re-enabled it for every harness-built transport.
  nio::ChannelConfig channel_cfg_ = RubinTransport::default_config();
  /// Declared before replicas_: replicas hold raw pointers into the mesh
  /// and must be destroyed first.
  std::vector<std::unique_ptr<nio::DecisionLog>> dlogs_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace rubin::reptor
