#include "tangle/node.hpp"

#include <deque>

#include "obs/latency.hpp"

namespace dlt::tangle {

namespace {
// Interned once at static init; per-message paths compare/copy uint32 ids.
const net::MsgType kTxMessage = net::msg_type("tangle-tx");

TangleParams apply_overrides(TangleParams params,
                             const TangleNodeConfig& config) {
  if (config.tip_selection) params.tip_selection = *config.tip_selection;
  return params;
}
}  // namespace

TangleNode::TangleNode(net::Network& network, const TangleParams& params,
                       const TangleNodeConfig& config, Rng rng)
    : net_(network),
      id_(network.add_node()),
      config_(config),
      tangle_(apply_overrides(params, config)),
      rng_(std::move(rng)),
      select_rng_(rng_.fork()) {
  tangle_.set_probe(config_.probe);
  tangle_.set_trace_node(id_);
  if (config_.store) tangle_.attach_store(config_.store);
  if (config_.probe) {
    obs_issued_ = config_.probe.counter("tangle.txs_issued");
    obs_received_ = config_.probe.counter("tangle.txs_received");
    obs_gap_parked_ = config_.probe.counter("tangle.gap.parked");
  }
  net_.set_handler(id_, [this](const net::Message& msg) {
    handle_message(msg);
  });
}

Result<TxHash> TangleNode::issue(const crypto::KeyPair& issuer,
                                 const Hash256& payload,
                                 const Hash256& spend_key) {
  std::vector<Hash256> avoid;
  if (!spend_key.is_zero()) avoid.push_back(spend_key);
  // Selection draws come from the dedicated stream so strategy choice (or
  // strategy-dependent draw counts) cannot shift issuance/signing draws.
  const TxHash trunk = tangle_.select_tip(select_rng_, avoid);
  const TxHash branch = tangle_.select_tip(select_rng_, avoid);
  const TangleTx tx =
      make_tx(tangle_, issuer, trunk, branch, payload,
              net_.simulation().now(), rng_, spend_key);

  Status st = tangle_.attach(tx);
  if (!st.ok()) return st.error();
  obs::inc(obs_issued_);
  net_.gossip(id_, net::make_message(kTxMessage, tx,
                                     TangleTx::kSerializedSize));
  return tx.hash();
}

Status TangleNode::inject(const TangleTx& tx) {
  Status st = tangle_.attach(tx);
  if (!st.ok()) return st;
  obs::inc(obs_issued_);
  net_.gossip(id_, net::make_message(kTxMessage, tx,
                                     TangleTx::kSerializedSize));
  retry_gaps(tx.hash());
  return Status::success();
}

std::size_t TangleNode::gap_pool_size() const {
  std::size_t n = 0;
  for (const auto& [parent, waiting] : gap_pool_) n += waiting.size();
  return n;
}

void TangleNode::handle_message(const net::Message& msg) {
  if (msg.type != kTxMessage) return;
  process_tx(net::payload_as<TangleTx>(msg));
}

void TangleNode::process_tx(const TangleTx& tx) {
  if (tangle_.contains(tx.hash())) return;
  // Park on the first missing parent rather than burn a signature/work
  // check on a transaction that cannot attach yet.
  if (!tangle_.contains(tx.trunk)) {
    gap_pool_[tx.trunk].push_back(tx);
    obs::inc(obs_gap_parked_);
    return;
  }
  if (!tangle_.contains(tx.branch)) {
    gap_pool_[tx.branch].push_back(tx);
    obs::inc(obs_gap_parked_);
    return;
  }
  if (tangle_.attach(tx).ok()) {
    obs::inc(obs_received_);
    if (config_.lifecycle && config_.lifecycle_observer)
      config_.lifecycle->on_include(obs::trace_id(tx.hash()),
                                    net_.simulation().now(), id_);
    retry_gaps(tx.hash());
  }
}

void TangleNode::retry_gaps(const TxHash& now_available) {
  std::deque<TxHash> ready{now_available};
  while (!ready.empty()) {
    const TxHash parent = ready.front();
    ready.pop_front();
    auto it = gap_pool_.find(parent);
    if (it == gap_pool_.end()) continue;
    std::vector<TangleTx> waiting = std::move(it->second);
    gap_pool_.erase(it);
    for (const TangleTx& tx : waiting) {
      if (tangle_.contains(tx.hash())) continue;
      if (!tangle_.contains(tx.trunk)) {
        gap_pool_[tx.trunk].push_back(tx);
        obs::inc(obs_gap_parked_);
        continue;
      }
      if (!tangle_.contains(tx.branch)) {
        gap_pool_[tx.branch].push_back(tx);
        obs::inc(obs_gap_parked_);
        continue;
      }
      if (tangle_.attach(tx).ok()) {
        obs::inc(obs_received_);
        if (config_.lifecycle && config_.lifecycle_observer)
          config_.lifecycle->on_include(obs::trace_id(tx.hash()),
                                        net_.simulation().now(), id_);
        ready.push_back(tx.hash());
      }
    }
  }
}

}  // namespace dlt::tangle
