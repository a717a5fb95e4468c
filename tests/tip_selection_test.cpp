// Pluggable tip selection (ISSUE 8 tentpole): pins the strategy contract
// that makes the adversarial differential harness possible —
//
//  - canonical names round-trip and the DLT_TIP_SELECTION env knob parses;
//  - the RNG draw discipline is exact (uniform/mrts: one uniform01 per
//    selection, genesis fallback: zero), so a strategy swap can never
//    shift any other consumer's stream;
//  - draws and selected tips are identical whether the tangle was built
//    by issuing against it or by replaying the same transactions;
//  - on a star tangle (all tips weight 1) the MCMC walk degenerates to
//    the uniform distribution — measured over thousands of draws.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <map>
#include <optional>
#include <vector>

#include "crypto/sha256.hpp"
#include "tangle/tip_selection.hpp"

namespace dlt::tangle {
namespace {

Hash256 payload_for(int i) {
  return crypto::Sha256::digest(as_bytes("tip-sel-" + std::to_string(i)));
}

/// How many next() outputs `before` must advance to reach `after`'s
/// position (matched on a 4-output fingerprint); nullopt past 4096.
std::optional<std::size_t> draws_consumed(Rng before, Rng after) {
  auto fingerprint = [](Rng r) {
    std::array<std::uint64_t, 4> f{};
    for (auto& x : f) x = r.next();
    return f;
  };
  const auto target = fingerprint(after);
  for (std::size_t k = 0; k <= 4096; ++k) {
    if (fingerprint(before) == target) return k;
    before.next();
  }
  return std::nullopt;
}

TangleParams cheap_params() {
  TangleParams p;
  p.work_bits = 0;
  return p;
}

/// Genesis plus `leaves` direct children: every tip has weight 1, the
/// shape where every strategy's selection distribution is analysable.
struct Star {
  Tangle tangle;
  std::vector<TxHash> leaves;

  explicit Star(int n, TangleParams params = cheap_params())
      : tangle(params) {
    const crypto::KeyPair issuer = crypto::KeyPair::from_seed(7);
    Rng rng(11);
    for (int i = 0; i < n; ++i) {
      TangleTx tx = make_tx(tangle, issuer, tangle.genesis(),
                            tangle.genesis(), payload_for(i),
                            /*timestamp=*/1.0 + i, rng);
      EXPECT_TRUE(tangle.attach(tx).ok());
      leaves.push_back(tx.hash());
    }
  }
};

// ----------------------------------------------------------- name plumbing

TEST(TipSelection, NamesRoundTrip) {
  for (TipStrategy s :
       {TipStrategy::kMcmc, TipStrategy::kUniform, TipStrategy::kMrts}) {
    EXPECT_EQ(parse_tip_strategy(to_string(s)), s);
    EXPECT_EQ(make_tip_selector(s)->strategy(), s);
  }
  EXPECT_EQ(parse_tip_strategy("weighted-walk"), std::nullopt);
  EXPECT_EQ(parse_tip_strategy(""), std::nullopt);
}

TEST(TipSelection, EnvOverride) {
  ::setenv("DLT_TIP_SELECTION", "uniform", 1);
  EXPECT_EQ(tip_strategy_from_env(TipStrategy::kMcmc),
            TipStrategy::kUniform);
  TangleParams params;
  apply_env_tip_selection(params);
  EXPECT_EQ(params.tip_selection, TipStrategy::kUniform);

  ::setenv("DLT_TIP_SELECTION", "not-a-strategy", 1);
  EXPECT_EQ(tip_strategy_from_env(TipStrategy::kMrts), TipStrategy::kMrts);

  ::unsetenv("DLT_TIP_SELECTION");
  EXPECT_EQ(tip_strategy_from_env(TipStrategy::kMcmc), TipStrategy::kMcmc);
}

// ------------------------------------------------------- draw discipline

TEST(TipSelection, UniformAndMrtsConsumeExactlyOneDraw) {
  Star star(6);
  for (TipStrategy s : {TipStrategy::kUniform, TipStrategy::kMrts}) {
    SCOPED_TRACE(to_string(s));
    Rng rng(21);
    const Rng before = rng;
    const TxHash tip = star.tangle.select_tip_with(s, rng);
    EXPECT_TRUE(star.tangle.contains(tip));
    EXPECT_EQ(draws_consumed(before, rng), 1u);
  }
}

TEST(TipSelection, GenesisFallbackConsumesNoDraws) {
  // Every tip's cone carries the contested spend key, so uniform/mrts
  // must fall back to genesis without burning a draw.
  const Hash256 contested = crypto::Sha256::digest(as_bytes("contested"));
  Tangle tangle(cheap_params());
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(9);
  Rng build(13);
  for (int i = 0; i < 3; ++i) {
    TangleTx tx = make_tx(tangle, issuer, tangle.genesis(),
                          tangle.genesis(), payload_for(100 + i), 1.0 + i,
                          build, contested);
    ASSERT_TRUE(tangle.attach(tx).ok());
  }

  for (TipStrategy s : {TipStrategy::kUniform, TipStrategy::kMrts}) {
    SCOPED_TRACE(to_string(s));
    Rng rng(31);
    const Rng before = rng;
    EXPECT_EQ(tangle.select_tip_with(s, rng, {contested}),
              tangle.genesis());
    EXPECT_EQ(draws_consumed(before, rng), 0u);
  }
}

TEST(TipSelection, SelectorObjectMatchesDirectDispatch) {
  Star star(5);
  for (TipStrategy s :
       {TipStrategy::kMcmc, TipStrategy::kUniform, TipStrategy::kMrts}) {
    SCOPED_TRACE(to_string(s));
    Rng a(17), b(17);
    EXPECT_EQ(make_tip_selector(s)->select(star.tangle, a),
              star.tangle.select_tip_with(s, b));
    EXPECT_EQ(a.next(), b.next());  // identical stream positions after
  }
}

TEST(TipSelection, MrtsSelectsOnlyMostRecentTips) {
  // Three tips at timestamps 1, 2, 2: mrts must never pick the stale one.
  Tangle tangle(cheap_params());
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(3);
  Rng build(5);
  std::vector<TxHash> tips;
  for (int i = 0; i < 3; ++i) {
    TangleTx tx = make_tx(tangle, issuer, tangle.genesis(),
                          tangle.genesis(), payload_for(200 + i),
                          /*timestamp=*/i == 0 ? 1.0 : 2.0, build);
    ASSERT_TRUE(tangle.attach(tx).ok());
    tips.push_back(tx.hash());
  }

  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const TxHash pick = tangle.select_tip_with(TipStrategy::kMrts, rng);
    EXPECT_NE(pick, tips[0]) << "stale tip selected";
  }
}

// ------------------------------------------ issued == replayed tangle

TEST(TipSelection, DrawsIndependentOfHowTheTangleWasBuilt) {
  // Build a 24-transaction history by issuing against the tangle itself,
  // then replay the same transactions into a fresh tangle; both copies
  // must then satisfy every strategy with identical draws and identical
  // selections.
  Tangle issued(cheap_params());
  std::vector<TangleTx> txs;
  {
    const crypto::KeyPair issuer = crypto::KeyPair::from_seed(2);
    Rng rng(19);
    for (int i = 0; i < 24; ++i) {
      const TxHash trunk = issued.select_tip(rng);
      const TxHash branch = issued.select_tip(rng);
      TangleTx tx = make_tx(issued, issuer, trunk, branch, payload_for(i),
                            1.0 + i, rng);
      EXPECT_TRUE(issued.attach(tx).ok());
      txs.push_back(tx);
    }
  }

  Tangle replayed(cheap_params());
  for (const TangleTx& tx : txs) EXPECT_TRUE(replayed.attach(tx).ok());
  EXPECT_EQ(issued.tips(), replayed.tips());

  for (TipStrategy s :
       {TipStrategy::kMcmc, TipStrategy::kUniform, TipStrategy::kMrts}) {
    SCOPED_TRACE(to_string(s));
    Rng a(23), b(23);
    const Rng before = a;
    const TxHash pick_issued = issued.select_tip_with(s, a);
    const TxHash pick_replayed = replayed.select_tip_with(s, b);
    EXPECT_EQ(pick_issued, pick_replayed);
    EXPECT_EQ(draws_consumed(before, a), draws_consumed(before, b));
  }
}

// --------------------------------------------- distribution: mcmc alpha→0

TEST(TipSelection, McmcMatchesUniformOnEqualWeightTips) {
  // On a star every tip has cumulative weight 1, so the walk's
  // exp(alpha * w) bias cancels and one step from genesis must be the
  // uniform tip distribution — for any alpha, including alpha → 0.
  constexpr int kLeaves = 8;
  constexpr int kDraws = 4000;
  TangleParams params = cheap_params();
  params.alpha = 1e-9;
  Star star(kLeaves, params);

  auto frequencies = [&](TipStrategy s, std::uint64_t seed) {
    std::vector<int> counts(star.leaves.size(), 0);
    Rng rng(seed);
    for (int i = 0; i < kDraws; ++i) {
      const TxHash pick = star.tangle.select_tip_with(s, rng);
      for (std::size_t j = 0; j < star.leaves.size(); ++j)
        if (pick == star.leaves[j]) ++counts[j];
    }
    return counts;
  };

  const std::vector<int> mcmc = frequencies(TipStrategy::kMcmc, 101);
  const std::vector<int> uniform = frequencies(TipStrategy::kUniform, 102);
  const double expected = static_cast<double>(kDraws) / kLeaves;
  for (std::size_t j = 0; j < star.leaves.size(); ++j) {
    SCOPED_TRACE(j);
    // ±25% of the expected bin mass is ~6 binomial standard deviations.
    EXPECT_NEAR(mcmc[j], expected, expected * 0.25);
    EXPECT_NEAR(uniform[j], expected, expected * 0.25);
  }
}

}  // namespace
}  // namespace dlt::tangle
