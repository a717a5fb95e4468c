// Differential + safety harness for the adversary actor layer (ISSUE 8):
//
//  - a zero-power adversary of every kind is byte-identical (trace and
//    metrics) to a run with no adversary constructed at all;
//  - any-power attack runs are byte-identical across same-seed reruns —
//    the adversary draws only from its private RNG stream and acts only
//    on the simulation thread;
//  - the measured safety metrics move the right way: parasite flip
//    probability is monotone nondecreasing in attacker power, the honest
//    tip share under spam is monotone nonincreasing, under both tip
//    selection strategies;
//  - inclusion_gini and TipStationarity behave per their definitions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/chain_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "obs/latency.hpp"
#include "tangle/tip_selection.hpp"

namespace dlt {
namespace {

using core::AdversaryConfig;
using core::AdversaryKind;
using core::TangleAdversary;

core::TangleClusterConfig tangle_config(tangle::TipStrategy strategy) {
  core::TangleClusterConfig cfg;
  cfg.node_count = 3;
  cfg.account_count = 8;
  cfg.params.work_bits = 2;
  cfg.params.alpha = 0.05;
  cfg.params.tip_selection = strategy;
  cfg.seed = 77;
  cfg.obs.trace_capacity = 1u << 16;
  return cfg;
}

struct TangleOutcome {
  std::string trace;
  core::RunMetrics metrics;
  double flip = 0.0;
  double share = 1.0;
  double side_a = 0.0;
  double side_b = 0.0;
  std::size_t injected = 0;
  std::string metrics_json;
};

/// Honest workload + adversary of the given kind/power. The adversary is
/// always constructed — a zero-power one must not perturb the run.
TangleOutcome run_tangle(core::TangleClusterConfig cfg, AdversaryKind kind,
                         double power) {
  core::TangleCluster cluster(cfg);

  AdversaryConfig ac;
  ac.kind = kind;
  ac.power = power;
  ac.node = 1;
  ac.start_time = 2.0;
  ac.release_time = 8.0;
  ac.interval = 1.0;
  TangleAdversary adversary(cluster, ac);

  cluster.start();
  adversary.start();

  Rng wl_rng(4);
  core::WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 3.0;
  wl.duration = 10.0;
  wl.max_amount = 40;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(12.0);

  adversary.measure();

  TangleOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.flip = adversary.flip_probability();
  out.share = adversary.honest_tip_share();
  out.side_a = adversary.side_a_confidence();
  out.side_b = adversary.side_b_confidence();
  out.injected = adversary.txs_injected();
  out.metrics_json = cluster.metrics_json().to_string();
  return out;
}

void expect_same_run(const TangleOutcome& got, const TangleOutcome& base) {
  EXPECT_EQ(got.trace, base.trace);
  EXPECT_EQ(got.metrics.submitted, base.metrics.submitted);
  EXPECT_EQ(got.metrics.included, base.metrics.included);
  EXPECT_EQ(got.metrics.confirmed, base.metrics.confirmed);
  EXPECT_EQ(got.metrics.messages, base.metrics.messages);
  EXPECT_EQ(got.metrics.message_bytes, base.metrics.message_bytes);
  EXPECT_EQ(got.injected, base.injected);
}

// ------------------------------------------------- zero power == honest

TEST(Adversarial, ZeroPowerIsByteIdenticalToHonestBaseline) {
  // The honest reference never even constructs an adversary.
  core::TangleClusterConfig cfg = tangle_config(tangle::TipStrategy::kMcmc);
  TangleOutcome honest;
  {
    core::TangleCluster cluster(cfg);
    cluster.start();
    Rng wl_rng(4);
    core::WorkloadConfig wl;
    wl.account_count = cfg.account_count;
    wl.tx_rate = 3.0;
    wl.duration = 10.0;
    wl.max_amount = 40;
    cluster.schedule_workload(core::generate_payments(wl, wl_rng));
    cluster.run_for(12.0);
    honest.trace = cluster.tracer().to_jsonl();
    honest.metrics = cluster.metrics();
  }
  ASSERT_FALSE(honest.trace.empty());
  ASSERT_GT(honest.metrics.included, 0u);

  for (AdversaryKind kind : {AdversaryKind::kNone, AdversaryKind::kParasite,
                             AdversaryKind::kSpam, AdversaryKind::kRace}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const TangleOutcome got = run_tangle(cfg, kind, 0.0);
    EXPECT_EQ(got.trace, honest.trace);
    EXPECT_EQ(got.metrics.included, honest.metrics.included);
    EXPECT_EQ(got.metrics.messages, honest.metrics.messages);
    EXPECT_EQ(got.injected, 0u);
    // Zero power reads as "no attack" in the metrics too.
    EXPECT_EQ(got.flip, 0.0);
    EXPECT_EQ(got.share, 1.0);
  }
}

// ------------------------------------------------ same-seed reruns

TEST(Adversarial, ParasiteTraceIdenticalOnRerun) {
  core::TangleClusterConfig cfg = tangle_config(tangle::TipStrategy::kMcmc);
  const TangleOutcome base = run_tangle(cfg, AdversaryKind::kParasite, 0.6);
  EXPECT_GT(base.injected, 0u);

  const TangleOutcome got = run_tangle(cfg, AdversaryKind::kParasite, 0.6);
  expect_same_run(got, base);
  EXPECT_EQ(got.flip, base.flip);
}

TEST(Adversarial, SpamTraceIdenticalOnRerun) {
  core::TangleClusterConfig cfg =
      tangle_config(tangle::TipStrategy::kUniform);
  const TangleOutcome base = run_tangle(cfg, AdversaryKind::kSpam, 0.5);
  EXPECT_GT(base.injected, 0u);

  const TangleOutcome got = run_tangle(cfg, AdversaryKind::kSpam, 0.5);
  expect_same_run(got, base);
  EXPECT_EQ(got.share, base.share);
}

TEST(Adversarial, RaceTraceIdenticalOnRerun) {
  core::TangleClusterConfig cfg = tangle_config(tangle::TipStrategy::kMcmc);
  const TangleOutcome base = run_tangle(cfg, AdversaryKind::kRace, 0.4);
  EXPECT_EQ(base.injected, 2u);  // one conflicting spend per side
  EXPECT_GE(base.side_a, 0.0);
  EXPECT_LE(base.side_a, 1.0);
  EXPECT_GE(base.side_b, 0.0);
  EXPECT_LE(base.side_b, 1.0);

  const TangleOutcome got = run_tangle(cfg, AdversaryKind::kRace, 0.4);
  expect_same_run(got, base);
  EXPECT_EQ(got.side_a, base.side_a);
  EXPECT_EQ(got.side_b, base.side_b);
}

// -------------------------------------------------- metric monotonicity

TEST(Adversarial, ParasiteFlipProbabilityMonotoneInPower) {
  for (tangle::TipStrategy strategy :
       {tangle::TipStrategy::kMcmc, tangle::TipStrategy::kUniform}) {
    SCOPED_TRACE(tangle::to_string(strategy));
    core::TangleClusterConfig cfg = tangle_config(strategy);
    double prev = -1.0;
    for (double power : {0.0, 0.4, 0.8}) {
      const TangleOutcome r =
          run_tangle(cfg, AdversaryKind::kParasite, power);
      EXPECT_GE(r.flip, prev) << "power " << power;
      prev = r.flip;
    }
    EXPECT_GT(prev, 0.0);  // the strongest attacker flips some walks
  }
}

TEST(Adversarial, SpamHonestTipShareMonotoneInPower) {
  for (tangle::TipStrategy strategy :
       {tangle::TipStrategy::kMcmc, tangle::TipStrategy::kUniform}) {
    SCOPED_TRACE(tangle::to_string(strategy));
    core::TangleClusterConfig cfg = tangle_config(strategy);
    double prev = 2.0;
    for (double power : {0.0, 0.4, 0.8}) {
      const TangleOutcome r = run_tangle(cfg, AdversaryKind::kSpam, power);
      EXPECT_LE(r.share, prev) << "power " << power;
      prev = r.share;
    }
    EXPECT_LT(prev, 1.0);  // the strongest attacker displaces some walks
  }
}

// ------------------------------------------------ selfish miner (chain)

core::ChainClusterConfig selfish_config() {
  core::ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.retarget_window = 0;
  cfg.params.block_interval = 5.0;
  cfg.params.initial_difficulty = 1e6;
  cfg.node_count = 3;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e6 / 5.0;
  cfg.account_count = 8;
  cfg.initial_balance = 1'000'000'000;
  cfg.seed = 21;
  cfg.obs.trace_capacity = 1u << 16;
  return cfg;
}

struct SelfishOutcome {
  std::string trace;
  core::RunMetrics metrics;
  chain::BlockHash tip;
  double revenue = 0.0;
  std::uint64_t mined = 0;
};

SelfishOutcome run_selfish(core::ChainClusterConfig cfg, double power) {
  core::ChainCluster cluster(cfg);
  core::SelfishMinerConfig sc;
  sc.power = power;
  sc.node = 1;
  sc.start_time = 1.0;
  sc.poll_interval = 2.5;
  core::ChainSelfishMiner miner(cluster, sc);

  cluster.start();
  miner.start();
  Rng wl_rng(6);
  core::WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 0.5;
  wl.duration = 60.0;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(90.0);
  miner.measure();

  SelfishOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.tip = cluster.node(0).chain().tip_hash();
  out.revenue = miner.revenue_share();
  out.mined = miner.blocks_mined();
  return out;
}

TEST(Adversarial, ZeroPowerSelfishMinerIsByteIdenticalToHonestBaseline) {
  core::ChainClusterConfig cfg = selfish_config();
  SelfishOutcome honest;
  {
    core::ChainCluster cluster(cfg);
    cluster.start();
    Rng wl_rng(6);
    core::WorkloadConfig wl;
    wl.account_count = cfg.account_count;
    wl.tx_rate = 0.5;
    wl.duration = 60.0;
    cluster.schedule_workload(core::generate_payments(wl, wl_rng));
    cluster.run_for(90.0);
    honest.trace = cluster.tracer().to_jsonl();
    honest.tip = cluster.node(0).chain().tip_hash();
  }
  ASSERT_FALSE(honest.trace.empty());

  const SelfishOutcome got = run_selfish(cfg, 0.0);
  EXPECT_EQ(got.trace, honest.trace);
  EXPECT_EQ(got.tip, honest.tip);
  EXPECT_EQ(got.mined, 0u);
  EXPECT_EQ(got.revenue, 0.0);
}

TEST(Adversarial, SelfishMinerTraceIdenticalOnRerun) {
  core::ChainClusterConfig cfg = selfish_config();
  const SelfishOutcome base = run_selfish(cfg, 0.45);
  EXPECT_GT(base.mined, 0u);

  const SelfishOutcome got = run_selfish(cfg, 0.45);
  EXPECT_EQ(got.trace, base.trace);
  EXPECT_EQ(got.tip, base.tip);
  EXPECT_EQ(got.mined, base.mined);
  EXPECT_EQ(got.revenue, base.revenue);
}

// ------------------------------------------------- fairness / stationarity

TEST(Adversarial, InclusionGiniDefinition) {
  obs::LatencyTracker empty;
  EXPECT_EQ(core::inclusion_gini(empty), 0.0);

  // Perfectly fair: every issuer's submissions are all included.
  obs::LatencyTracker fair;
  fair.enable(obs::Probe{});
  for (std::uint64_t issuer = 0; issuer < 4; ++issuer) {
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t id = issuer * 100 + static_cast<std::uint64_t>(i);
      fair.on_submit(id, 0.0, 0, issuer);
      fair.on_include(id, 1.0, 0);
    }
  }
  EXPECT_DOUBLE_EQ(core::inclusion_gini(fair), 0.0);

  // Concentrated: issuer 0 gets everything in, the other three nothing.
  obs::LatencyTracker skewed;
  skewed.enable(obs::Probe{});
  for (std::uint64_t issuer = 0; issuer < 4; ++issuer) {
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t id = issuer * 100 + static_cast<std::uint64_t>(i);
      skewed.on_submit(id, 0.0, 0, issuer);
      if (issuer == 0) skewed.on_include(id, 1.0, 0);
    }
  }
  // Rates (1, 0, 0, 0): G = sum |xi-xj| / (2 n^2 mu) = 6/(2*16*0.25).
  EXPECT_NEAR(core::inclusion_gini(skewed), 0.75, 1e-12);
  EXPECT_GT(core::inclusion_gini(skewed), core::inclusion_gini(fair));
}

TEST(Adversarial, TipStationarityWindowedMoments) {
  core::TipStationarity stat(4);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);

  for (int i = 0; i < 10; ++i) stat.sample(3);
  EXPECT_EQ(stat.samples(), 10u);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);

  // The window slides: only the trailing 4 samples count.
  for (std::size_t v : {10u, 20u, 30u, 40u}) stat.sample(v);
  EXPECT_DOUBLE_EQ(stat.mean(), 25.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 125.0);  // population variance
}

// -------------------------------------------- double-spend race model

TEST(Adversarial, DoubleSpendRaceModelIsDeterministicAndSane) {
  const core::RaceOutcome weak =
      core::run_double_spend_races(0.1, 6, 400, 1234);
  const core::RaceOutcome strong =
      core::run_double_spend_races(0.45, 1, 400, 1234);
  EXPECT_EQ(weak.trials, 400);
  EXPECT_EQ(strong.trials, 400);
  // §IV-A: six confirmations against a 10% attacker is safe; one
  // confirmation against a 45% attacker is not.
  EXPECT_LT(weak.attacker_wins, strong.attacker_wins);
  EXPECT_LT(weak.attacker_wins * 100, weak.trials);  // < 1% win rate

  // Pure function of the seed.
  const core::RaceOutcome again =
      core::run_double_spend_races(0.1, 6, 400, 1234);
  EXPECT_EQ(again.attacker_wins, weak.attacker_wins);
}

}  // namespace
}  // namespace dlt
