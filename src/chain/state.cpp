#include "chain/state.hpp"

#include "support/serialize.hpp"

namespace dlt::chain {

Bytes AccountState::encode() const {
  Writer w;
  w.u64(balance);
  w.u64(nonce);
  w.u32(code_size);
  return std::move(w).take();
}

Result<AccountState> AccountState::decode(ByteView raw) {
  Reader r(raw);
  AccountState st;
  auto b = r.u64();
  if (!b) return b.error();
  st.balance = *b;
  auto n = r.u64();
  if (!n) return n.error();
  st.nonce = *n;
  auto c = r.u32();
  if (!c) return c.error();
  st.code_size = *c;
  return st;
}

std::optional<AccountState> WorldState::get(
    const crypto::AccountId& id) const {
  auto raw = trie_.get(id);
  if (!raw) return std::nullopt;
  auto st = AccountState::decode(ByteView{raw->data(), raw->size()});
  if (!st) return std::nullopt;
  return *st;
}

Amount WorldState::balance_of(const crypto::AccountId& id) const {
  auto st = get(id);
  return st ? st->balance : 0;
}

WorldState WorldState::with_account(const crypto::AccountId& id,
                                    const AccountState& st) const {
  return WorldState(trie_.put(id, st.encode()));
}

Result<WorldState> WorldState::apply_transaction(
    const AccountTransaction& tx, const crypto::AccountId& fee_recipient,
    const GasSchedule& gs, crypto::SignatureCache* sigcache) const {
  if (!tx.verify_signature(sigcache)) return make_error("bad-signature");

  const std::optional<AccountState> sender = get(tx.from);
  if (!sender) return make_error("unknown-sender", "no such account");
  if (sender->nonce != tx.nonce)
    return make_error("bad-nonce", "expected nonce mismatch");

  const std::uint64_t gas = tx.gas_used(gs);
  if (gas > tx.gas_limit)
    return make_error("out-of-gas", "intrinsic gas exceeds limit");
  const Amount max_cost = tx.value + tx.max_fee();
  if (sender->balance < max_cost)
    return make_error("insufficient-balance");
  // Unused gas is refunded: only the gas actually used is charged.
  const auto fee = static_cast<Amount>(gas * tx.gas_price);

  AccountState new_sender = *sender;
  new_sender.balance -= tx.value + fee;
  new_sender.nonce += 1;
  WorldState next = with_account(tx.from, new_sender);

  if (!tx.is_contract_creation()) {
    AccountState recipient = next.get(tx.to).value_or(AccountState{});
    recipient.balance += tx.value;
    next = next.with_account(tx.to, recipient);
  } else {
    // Contract creation: a fresh account holding the value and code.
    AccountState contract;
    contract.balance = tx.value;
    contract.code_size = tx.data_size;
    next = next.with_account(tx.id() /* contract address */, contract);
  }

  if (fee > 0) next = next.credit(fee_recipient, fee);
  return next;
}

WorldState WorldState::credit(const crypto::AccountId& id,
                              Amount amount) const {
  AccountState st = get(id).value_or(AccountState{});
  st.balance += amount;
  return with_account(id, st);
}

Amount WorldState::total_supply() const {
  Amount sum = 0;
  trie_.for_each([&sum](const crypto::Nibbles&, const Bytes& raw) {
    auto st = AccountState::decode(ByteView{raw.data(), raw.size()});
    if (st) sum += st->balance;
  });
  return sum;
}

void StateDB::put(const Hash256& root, WorldState state) {
  versions_.emplace(root, std::move(state));
}

std::optional<WorldState> StateDB::get(const Hash256& root) const {
  auto it = versions_.find(root);
  if (it == versions_.end()) return std::nullopt;
  return it->second;
}

std::size_t StateDB::prune_except(const std::vector<Hash256>& keep) {
  std::unordered_map<Hash256, WorldState> kept;
  for (const Hash256& root : keep) {
    auto it = versions_.find(root);
    if (it != versions_.end()) kept.emplace(it->first, it->second);
  }
  const std::size_t erased = versions_.size() - kept.size();
  versions_ = std::move(kept);
  return erased;
}

std::pair<std::size_t, std::size_t> StateDB::measure() const {
  std::unordered_set<const crypto::Trie::Node*> seen;
  std::size_t nodes = 0, bytes = 0;
  for (const auto& [root, state] : versions_) {
    auto [n, b] = state.trie().collect_nodes(seen);
    nodes += n;
    bytes += b;
  }
  return {nodes, bytes};
}

}  // namespace dlt::chain
