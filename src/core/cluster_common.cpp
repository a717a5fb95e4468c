#include "core/cluster_common.hpp"

#include <stdexcept>

namespace dlt::core {

ClusterCrypto make_cluster_crypto(const CryptoConfig& config) {
  if (config.verify_threads != 0 || config.parallel_validation ||
      config.parallel_state)
    throw std::invalid_argument(
        "CryptoConfig: verify_threads, parallel_validation and "
        "parallel_state are retired and must stay 0/false");
  ClusterCrypto out;
  if (config.shared_sigcache)
    out.sigcache =
        std::make_shared<crypto::SignatureCache>(config.sigcache_capacity);
  return out;
}

void ClusterObs::capture_sim(const sim::Simulation& sim) {
  metrics.gauge("sim.events_fired")
      .set(static_cast<double>(sim.events_fired()));
  metrics.gauge("sim.events_scheduled")
      .set(static_cast<double>(sim.events_scheduled()));
  metrics.gauge("sim.events_cancelled")
      .set(static_cast<double>(sim.events_cancelled()));
  metrics.gauge("sim.pending").set(static_cast<double>(sim.pending()));
  metrics.gauge("sim.now").set(sim.now());
  // Scheduler memory behaviour (slab high-water marks) and the wall-clock
  // events/sec trajectory. events_per_sec and wall_seconds are wall-clock
  // measurements — bench_diff.py treats them as profile noise, never as a
  // determinism surface.
  metrics.gauge("sim.heap_peak").set(static_cast<double>(sim.heap_peak()));
  metrics.gauge("sim.slab_capacity")
      .set(static_cast<double>(sim.slab_capacity()));
  metrics.gauge("sim.wall_seconds").set(sim.wall_seconds());
  if (sim.wall_seconds() > 0.0)
    metrics.gauge("sim.events_per_sec")
        .set(static_cast<double>(sim.events_fired()) / sim.wall_seconds());
  lifecycle.capture();
}

std::vector<crypto::KeyPair> make_workload_accounts(std::size_t count) {
  std::vector<crypto::KeyPair> accounts;
  accounts.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    accounts.push_back(crypto::KeyPair::from_seed(0x9000 + i));
  return accounts;
}

void build_topology(net::Network& net, const std::vector<net::NodeId>& ids,
                    Topology topology, const net::LinkParams& link,
                    std::size_t random_degree, Rng& rng) {
  switch (topology) {
    case Topology::kComplete:
      net::build_complete(net, ids, link);
      break;
    case Topology::kRandom:
      net::build_random(net, ids, random_degree, rng, link);
      break;
    case Topology::kSmallWorld:
      net::build_small_world(net, ids, /*k=*/4, /*beta=*/0.1, rng, link);
      break;
  }
}

}  // namespace dlt::core
