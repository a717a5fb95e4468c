// Block-lattice ledger: validation of all four block types, forks, gaps,
// rollback with cascades, cementing, pruning, conservation (paper §II-B,
// §III-B, §IV-B, §V-B).
#include <gtest/gtest.h>

#include <memory>

#include "lattice_test_util.hpp"
#include "storage/ledger_store.hpp"

namespace dlt::lattice {
namespace {

using testutil::Builder;
using testutil::cheap_params;

class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest()
      : genesis(crypto::KeyPair::from_seed(1)),
        alice(crypto::KeyPair::from_seed(2)),
        bob(crypto::KeyPair::from_seed(3)),
        rng(7),
        ledger(cheap_params(), genesis.account_id(), genesis.account_id(),
               1'000'000),
        b{ledger, rng, cheap_params().work_bits} {}

  /// Funds `who` with `amount` via a settled send+open pair.
  BlockHash fund(const crypto::KeyPair& who, Amount amount) {
    LatticeBlock send = b.send(genesis, who.account_id(), amount);
    EXPECT_TRUE(ledger.process(send).ok());
    LatticeBlock open =
        b.open(who, send.hash(), amount, who.account_id());
    EXPECT_TRUE(ledger.process(open).ok());
    return open.hash();
  }

  crypto::KeyPair genesis, alice, bob;
  Rng rng;
  Ledger ledger;
  Builder b;
};

TEST_F(LedgerTest, GenesisDefinesInitialState) {
  EXPECT_EQ(ledger.account_count(), 1u);
  EXPECT_EQ(ledger.block_count(), 1u);
  EXPECT_EQ(ledger.balance_of(genesis.account_id()), 1'000'000u);
  EXPECT_EQ(ledger.weight_of(genesis.account_id()), 1'000'000u);
  EXPECT_TRUE(ledger.is_cemented(ledger.genesis().hash()));
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LedgerTest, SendCreatesPending) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  EXPECT_EQ(ledger.balance_of(genesis.account_id()), 999'900u);
  ASSERT_EQ(ledger.pending().size(), 1u);
  const PendingInfo& p = ledger.pending().begin()->second;
  EXPECT_EQ(p.amount, 100u);
  EXPECT_EQ(p.destination, alice.account_id());
  EXPECT_EQ(ledger.total_pending(), 100u);
  // Unsettled value is not voting weight (§III-B).
  EXPECT_EQ(ledger.total_weight(), 999'900u);
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LedgerTest, OpenClaimsPending) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  LatticeBlock open = b.open(alice, send.hash(), 100, bob.account_id());
  ASSERT_TRUE(ledger.process(open).ok());

  EXPECT_EQ(ledger.balance_of(alice.account_id()), 100u);
  EXPECT_TRUE(ledger.pending().empty());
  // Alice delegated to bob: bob's weight is alice's balance.
  EXPECT_EQ(ledger.weight_of(bob.account_id()), 100u);
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LedgerTest, ReceiveExtendsExistingChain) {
  fund(alice, 100);
  LatticeBlock send2 = b.send(genesis, alice.account_id(), 50);
  ASSERT_TRUE(ledger.process(send2).ok());
  LatticeBlock recv = b.receive(alice, send2.hash(), 50);
  ASSERT_TRUE(ledger.process(recv).ok());
  EXPECT_EQ(ledger.balance_of(alice.account_id()), 150u);
  EXPECT_EQ(ledger.account(alice.account_id())->height(), 2u);
}

TEST_F(LedgerTest, ChangeMovesWeightOnly) {
  fund(alice, 200);
  EXPECT_EQ(ledger.weight_of(alice.account_id()), 200u);
  LatticeBlock change = b.change(alice, bob.account_id());
  ASSERT_TRUE(ledger.process(change).ok());
  EXPECT_EQ(ledger.balance_of(alice.account_id()), 200u);
  EXPECT_EQ(ledger.weight_of(alice.account_id()), 0u);
  EXPECT_EQ(ledger.weight_of(bob.account_id()), 200u);
}

TEST_F(LedgerTest, DuplicateRejected) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  EXPECT_EQ(ledger.process(send).error().code, "duplicate");
}

TEST_F(LedgerTest, BadSignatureRejected) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  send.signature.s ^= 1;
  EXPECT_EQ(ledger.process(send).error().code, "bad-signature");
}

TEST_F(LedgerTest, InsufficientWorkRejected) {
  // Spam protection (§III-B): a block without valid hashcash is dropped.
  LatticeParams strict = cheap_params();
  strict.work_bits = 24;
  Ledger hard(strict, genesis.account_id(), genesis.account_id(), 1000);
  Builder hb{hard, rng, 4};  // solves only 4 bits
  LatticeBlock send = hb.send(genesis, alice.account_id(), 10);
  EXPECT_EQ(hard.process(send).error().code, "insufficient-work");
}

TEST_F(LedgerTest, OverspendRejected) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  send.balance = 2'000'000;  // "negative" send: balance increases
  send = b.finish(std::move(send), genesis);
  EXPECT_EQ(ledger.process(send).error().code, "bad-balance");
}

TEST_F(LedgerTest, ReceiveWrongAmountRejected) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  LatticeBlock open = b.open(alice, send.hash(), 150, alice.account_id());
  EXPECT_EQ(ledger.process(open).error().code, "bad-balance");
}

TEST_F(LedgerTest, ReceiveWrongDestinationRejected) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  // Bob tries to claim alice's pending send.
  LatticeBlock theft = b.open(bob, send.hash(), 100, bob.account_id());
  EXPECT_EQ(ledger.process(theft).error().code, "wrong-destination");
}

TEST_F(LedgerTest, DoubleReceiveRejected) {
  fund(alice, 100);
  LatticeBlock send = b.send(genesis, alice.account_id(), 50);
  ASSERT_TRUE(ledger.process(send).ok());
  LatticeBlock r1 = b.receive(alice, send.hash(), 50);
  ASSERT_TRUE(ledger.process(r1).ok());
  LatticeBlock r2 = b.receive(alice, send.hash(), 50);
  EXPECT_EQ(ledger.process(r2).error().code, "already-claimed");
}

TEST_F(LedgerTest, GapPreviousReported) {
  // A block referencing an unknown predecessor (paper §IV-B: the network
  // ignores successors of a missing block).
  fund(alice, 100);
  LatticeBlock send = b.send(alice, bob.account_id(), 10);
  send.previous = crypto::Sha256::digest(as_bytes("unknown"));
  send = b.finish(std::move(send), alice);
  EXPECT_EQ(ledger.process(send).error().code, "gap-previous");
}

TEST_F(LedgerTest, GapSourceReported) {
  LatticeBlock open = b.open(alice, crypto::Sha256::digest(as_bytes("nope")),
                             10, alice.account_id());
  EXPECT_EQ(ledger.process(open).error().code, "gap-source");
}

TEST_F(LedgerTest, ForkDetected) {
  // Two sends claim the same predecessor (paper §IV-B: only possible as a
  // result of a malicious attack or bad programming).
  LatticeBlock s1 = b.send(genesis, alice.account_id(), 100);
  LatticeBlock s2 = b.send(genesis, bob.account_id(), 200);  // same previous
  ASSERT_TRUE(ledger.process(s1).ok());
  auto st = ledger.process(s2);
  EXPECT_EQ(st.error().code, "fork");

  // The fork root resolves to the applied block.
  Root root{genesis.account_id(), s1.previous};
  auto occupant = ledger.block_at_root(root);
  ASSERT_TRUE(occupant.has_value());
  EXPECT_EQ(occupant->hash(), s1.hash());
}

TEST_F(LedgerTest, RollbackSimpleSend) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  auto removed = ledger.rollback(send.hash());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->size(), 1u);
  EXPECT_EQ(ledger.balance_of(genesis.account_id()), 1'000'000u);
  EXPECT_TRUE(ledger.pending().empty());
  EXPECT_EQ(ledger.weight_of(genesis.account_id()), 1'000'000u);
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LedgerTest, RollbackReceiveRestoresPending) {
  fund(alice, 100);
  LatticeBlock send = b.send(genesis, alice.account_id(), 50);
  ASSERT_TRUE(ledger.process(send).ok());
  LatticeBlock recv = b.receive(alice, send.hash(), 50);
  ASSERT_TRUE(ledger.process(recv).ok());

  auto removed = ledger.rollback(recv.hash());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(ledger.balance_of(alice.account_id()), 100u);
  EXPECT_EQ(ledger.pending().size(), 1u);
  EXPECT_EQ(ledger.total_pending(), 50u);
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LedgerTest, RollbackCascadesThroughClaims) {
  // Roll back genesis' send after alice already opened with it: the open
  // (a dependent block in another chain) must unwind first.
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  LatticeBlock open = b.open(alice, send.hash(), 100, alice.account_id());
  ASSERT_TRUE(ledger.process(open).ok());

  auto removed = ledger.rollback(send.hash());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->size(), 2u);  // open + send
  EXPECT_EQ(ledger.account(alice.account_id()), nullptr);
  EXPECT_EQ(ledger.balance_of(genesis.account_id()), 1'000'000u);
  EXPECT_TRUE(ledger.pending().empty());
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LedgerTest, RollbackCascadesDeep) {
  // genesis -> alice -> bob: rolling back the first send unwinds all.
  LatticeBlock s1 = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(s1).ok());
  LatticeBlock open_a = b.open(alice, s1.hash(), 100, alice.account_id());
  ASSERT_TRUE(ledger.process(open_a).ok());
  LatticeBlock s2 = b.send(alice, bob.account_id(), 40);
  ASSERT_TRUE(ledger.process(s2).ok());
  LatticeBlock open_b = b.open(bob, s2.hash(), 40, bob.account_id());
  ASSERT_TRUE(ledger.process(open_b).ok());

  auto removed = ledger.rollback(s1.hash());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->size(), 4u);
  EXPECT_EQ(ledger.account_count(), 1u);  // only genesis remains
  EXPECT_EQ(ledger.balance_of(genesis.account_id()), 1'000'000u);
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LedgerTest, CementPreventsRollback) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  ASSERT_TRUE(ledger.cement(send.hash()).ok());
  EXPECT_TRUE(ledger.is_cemented(send.hash()));
  auto res = ledger.rollback(send.hash());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "cemented");
}

TEST_F(LedgerTest, CementCoversAncestors) {
  LatticeBlock s1 = b.send(genesis, alice.account_id(), 10);
  ASSERT_TRUE(ledger.process(s1).ok());
  LatticeBlock s2 = b.send(genesis, bob.account_id(), 10);
  ASSERT_TRUE(ledger.process(s2).ok());
  ASSERT_TRUE(ledger.cement(s2.hash()).ok());
  EXPECT_TRUE(ledger.is_cemented(s1.hash()));  // ancestor implicitly
}

TEST_F(LedgerTest, PruneKeepsHeadsAndBalances) {
  // Build some history, cement it, prune (§V-B): balances survive, old
  // blocks vanish.
  fund(alice, 100);
  for (int i = 0; i < 5; ++i) {
    LatticeBlock send = b.send(genesis, alice.account_id(), 10);
    ASSERT_TRUE(ledger.process(send).ok());
    LatticeBlock recv = b.receive(alice, send.hash(), 10);
    ASSERT_TRUE(ledger.process(recv).ok());
  }
  // Cement everything at head.
  ASSERT_TRUE(
      ledger.cement(ledger.account(genesis.account_id())->head().hash()).ok());
  ASSERT_TRUE(
      ledger.cement(ledger.account(alice.account_id())->head().hash()).ok());

  const std::uint64_t blocks_before = ledger.block_count();
  const auto storage_before = ledger.storage();
  const std::uint64_t reclaimed = ledger.prune_history();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(ledger.block_count(), blocks_before);
  EXPECT_LT(ledger.storage().blocks, storage_before.blocks);

  // The head block's balance field carries the account state (§V-B).
  EXPECT_EQ(ledger.balance_of(alice.account_id()), 150u);
  EXPECT_EQ(ledger.balance_of(genesis.account_id()), 1'000'000u - 150u);
  EXPECT_TRUE(ledger.conserves_value());

  // New blocks still append after pruning.
  LatticeBlock more = b.send(alice, genesis.account_id(), 5);
  EXPECT_TRUE(ledger.process(more).ok());
}

TEST_F(LedgerTest, PruneWithoutCementKeepsEverything) {
  fund(alice, 100);
  LatticeBlock send = b.send(genesis, alice.account_id(), 10);
  ASSERT_TRUE(ledger.process(send).ok());
  // Nothing cemented beyond genesis: nothing prunable except genesis tail.
  const std::uint64_t blocks = ledger.block_count();
  ledger.prune_history();
  EXPECT_EQ(ledger.block_count(), blocks);
}

TEST_F(LedgerTest, TotalWeightTracksPendingThroughEveryMutation) {
  // total_weight() reads an incrementally kept pending sum; it must agree
  // with the from-scratch total_pending() after every kind of change.
  const auto matches = [](const Ledger& l) {
    return l.total_weight() == l.supply() - l.total_pending();
  };
  auto store =
      std::make_shared<storage::LedgerStore>(storage::StorageConfig{}, "lat");
  ledger.attach_store(store);

  fund(alice, 300);
  LatticeBlock to_bob = b.send(alice, bob.account_id(), 40);
  ASSERT_TRUE(ledger.process(to_bob).ok());
  EXPECT_EQ(ledger.total_weight(), 1'000'000u - 40u);
  EXPECT_TRUE(matches(ledger)) << "after process";

  // Fork: two sends on one root; the loser wins the election, so the
  // applied one (and the open claiming it) rolls back.
  LatticeBlock s1 = b.send(genesis, bob.account_id(), 25);
  LatticeBlock s2 = b.send(genesis, alice.account_id(), 35);
  ASSERT_TRUE(ledger.process(s1).ok());
  ASSERT_EQ(ledger.process(s2).error().code, "fork");
  ASSERT_TRUE(ledger.process(b.open(bob, s1.hash(), 25, bob.account_id()))
                  .ok());
  EXPECT_TRUE(matches(ledger)) << "before fork rollback";
  ASSERT_TRUE(ledger.rollback(s1.hash()).ok());
  EXPECT_TRUE(matches(ledger)) << "after fork rollback";
  ASSERT_TRUE(ledger.process(s2).ok());
  EXPECT_EQ(ledger.total_weight(), 1'000'000u - 40u - 35u);
  EXPECT_TRUE(matches(ledger)) << "after fork resolution";

  // Rolling back a receive re-exposes its send as pending.
  LatticeBlock recv = b.receive(alice, s2.hash(), 35);
  ASSERT_TRUE(ledger.process(recv).ok());
  EXPECT_TRUE(matches(ledger)) << "after receive";
  ASSERT_TRUE(ledger.rollback(recv.hash()).ok());
  EXPECT_TRUE(matches(ledger)) << "after receive rollback";

  // A fresh replica rebuilt from the store agrees.
  Ledger replica(cheap_params(), genesis.account_id(), genesis.account_id(),
                 1'000'000);
  replica.attach_store(store);
  EXPECT_GT(replica.replay_from_store(), 0u);
  EXPECT_EQ(replica.total_weight(), ledger.total_weight());
  EXPECT_TRUE(matches(replica)) << "after replay from store";

  // Head-only pruning drops history but no pending entry.
  for (const auto* who : {&genesis, &alice})
    ASSERT_TRUE(
        ledger.cement(ledger.account(who->account_id())->head().hash()).ok());
  const Amount weight_before = ledger.total_weight();
  EXPECT_GT(ledger.prune_history(), 0u);
  EXPECT_EQ(ledger.total_weight(), weight_before);
  EXPECT_TRUE(matches(ledger)) << "after pruning";
  ASSERT_TRUE(ledger.process(b.send(alice, bob.account_id(), 5)).ok());
  EXPECT_TRUE(matches(ledger)) << "after process on pruned history";
}

TEST_F(LedgerTest, FindBlockAndHeads) {
  LatticeBlock send = b.send(genesis, alice.account_id(), 100);
  ASSERT_TRUE(ledger.process(send).ok());
  auto found = ledger.find_block(send.hash());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->balance, 999'900u);
  EXPECT_EQ(*ledger.head_of(genesis.account_id()), send.hash());
  EXPECT_FALSE(ledger.head_of(alice.account_id()).has_value());
}

}  // namespace
}  // namespace dlt::lattice
