// Pluggable tip selection (ISSUE 8 tentpole): the strategy interface over
// Tangle::select_tip_with, plus the name/env plumbing benches and clusters
// use to pick a strategy at runtime.
//
// The strategies themselves live in tangle.cpp (select_tip_with) so the
// serial walk and the direct tip draws share the tangle's cone helpers;
// this header packages them behind a polymorphic TipSelector for code that
// composes strategies (adversary actors, benches sweeping strategy ×
// attacker power) and defines the canonical names:
//
//   mcmc     — the whitepaper's weighted random walk (default)
//   uniform  — uniform over current tips
//   mrts     — uniform over the most-recent tips
//
// Env knob: DLT_TIP_SELECTION=<name> overrides the configured strategy
// (apply_env_tip_selection).
//
// Determinism contract: a selector draws from the Rng handed to select();
// nodes hand their dedicated selection stream (TangleNode::select_rng_,
// forked from the node RNG at construction), so switching strategies can
// never perturb issuance schedules or signing randomness. See DESIGN.md
// "Adversary determinism contract".
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "tangle/tangle.hpp"

namespace dlt::tangle {

/// Strategy interface: one virtual call per selection. Implementations are
/// stateless; all state lives in the tangle and the caller's RNG.
class TipSelector {
 public:
  virtual ~TipSelector() = default;
  virtual TipStrategy strategy() const = 0;
  virtual TxHash select(const Tangle& tangle, Rng& rng,
                        const std::vector<Hash256>& spend_keys = {}) const = 0;
};

/// Factory for the named strategies (never null).
std::unique_ptr<TipSelector> make_tip_selector(TipStrategy strategy);

/// Canonical lower-case name ("mcmc" / "uniform" / "mrts").
const char* to_string(TipStrategy strategy);

/// Parses a canonical name; nullopt on anything else.
std::optional<TipStrategy> parse_tip_strategy(const std::string& name);

/// DLT_TIP_SELECTION env override; `fallback` when unset or unparsable.
TipStrategy tip_strategy_from_env(TipStrategy fallback);

/// Applies the DLT_TIP_SELECTION override to `params.tip_selection`.
void apply_env_tip_selection(TangleParams& params);

}  // namespace dlt::tangle
