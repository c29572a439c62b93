// Extension E2 (paper §II-C): Consensus-Oriented Parallelization. Reptor's
// point is that BFT protocol work (authenticator verification, protocol
// bookkeeping) parallelizes across consensus instances while execution
// stays totally ordered. This bench scales the number of COP lanes and
// reports saturated group throughput over the RUBIN transport.
#include <cstdio>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util.hpp"
#include "workloads/bft_harness.hpp"

using namespace rubin;
using namespace rubin::bench;
using namespace rubin::reptor;

namespace {

double run_cop(std::uint32_t pipelines, std::uint32_t n_clients,
               int per_client) {
  BftHarness h(Backend::kRubin, 4, n_clients);
  ReplicaConfig cfg;
  cfg.pipelines = pipelines;
  cfg.batch_size = 1;  // one consensus instance per request: stress lanes
  cfg.batch_timeout = sim::microseconds(20);
  cfg.checkpoint_interval = 64;
  cfg.window = 256;
  // Make the parallelizable work dominate (heavier MACs, like a larger
  // group or software crypto).
  cfg.costs.mac_fixed = sim::microseconds(2.5);
  cfg.costs.handle_fixed = sim::microseconds(1.5);
  h.add_replicas({}, cfg);

  int done = 0;
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    auto& client = h.add_client(4 + c);
    h.sim().spawn([](Client& cl, int count, int& done) -> sim::Task<> {
      co_await cl.start();
      for (int i = 0; i < count; ++i) {
        (void)co_await cl.invoke(to_bytes("add:1"));
      }
      ++done;
    }(client, per_client, done));
  }
  const sim::Time t0 = h.sim().now();
  while (done < static_cast<int>(n_clients) &&
         h.sim().now() < sim::seconds(60)) {
    h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  }
  const double secs = sim::to_s(h.sim().now() - t0);
  const double executed =
      static_cast<double>(h.replica(0).stats().requests_executed);
  h.stop_all();
  return secs > 0 ? executed / secs : 0;
}

}  // namespace

int main() {
#if defined(__GLIBC__)
  // Every run builds and tears down whole simulated worlds. Keep the
  // freed arena resident instead of trimming it back to the OS between
  // worlds — page-fault churn is a harness artifact, not simulator cost
  // (same fix as bench_simkernel).
  mallopt(M_TRIM_THRESHOLD, 512 * 1024 * 1024);
  mallopt(M_MMAP_THRESHOLD, 256 * 1024 * 1024);
#endif

  print_header("E2 — COP scaling (PBFT over RUBIN, 4 replicas, 8 clients)",
               "throughput vs number of consensus pipelines (lanes)");

  print_row({"pipelines", "rps", "speedup"});
  double base = 0;
  for (std::uint32_t p : {1u, 2u, 4u, 8u}) {
    const double rps = run_cop(p, 8, 30);
    if (p == 1) base = rps;
    print_row({std::to_string(p), fmt(rps, 0), fmt(rps / base, 2) + "x"});
  }
  std::printf(
      "\nAgreement-stage crypto parallelizes across lanes; the shared\n"
      "transport thread and ordered execution bound the speedup (Amdahl),\n"
      "matching the COP paper's observation that parallelizing *instances*\n"
      "beats parallelizing pipeline *stages*.\n");
  return 0;
}
