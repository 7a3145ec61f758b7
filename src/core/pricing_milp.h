// Exact pricing sub-problem as a MILP (Section IV-D/E).
//
// Implements the corrected big-M formulation documented in DESIGN.md:
// binaries x_l^{q,k}(layer), per-channel powers P_l^k, SINR activation
// constraints with M_l^{q,k} = gamma^q (rho_l + sum_{l'!=l} H_{l'l}^k Pmax),
// one (layer, q, k) choice per link (30), and per-node half-duplex (31/32).
//
// Pruning applied before the solve (both exact):
//  * variables with lambda <= 0 are dropped — such a link can only add
//    interference, never objective;
//  * (l, q, k) combinations that violate the SINR threshold even
//    interference-free at Pmax are dropped.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "core/pricing.h"
#include "milp/milp.h"
#include "mmwave/network.h"

namespace mmwave::core {

struct MilpPricingOptions {
  milp::MilpOptions milp;
  /// Stop the branch & bound as soon as an incumbent with Psi >= this is
  /// found (NaN disables).  Column generation only needs *an* improving
  /// column except on the final certification iteration.
  double target_psi = std::nan("");
  /// Ablation: force P_l^k = Pmax whenever link l is active on channel k,
  /// i.e. no power adaptation.  Default off.
  bool fixed_power = false;
  /// Extension (paper Section III: "the HP and LP data of a video session
  /// may be carried on different channels at each time slot"): allow a link
  /// to transmit its HP and LP layers concurrently on *different* channels,
  /// sharing the link's Pmax budget across them.  Constraint (30) becomes
  /// per-(link, layer), plus a per-link total-power row.  Default off
  /// (the strict formulation (30)).
  bool allow_layer_split = false;
};

class PricingMilpCache;

/// Solves the pricing MILP for the given duals (bits/slot units).
/// `warm_start`, if non-empty, seeds the branch & bound incumbent.
///
/// `cache`, if non-null, holds the reusable model skeleton: constraints,
/// big-M terms and conflict cuts depend only on the network and the
/// structural options, so across the iterations of one column-generation
/// run only the objective (lambda x bits/slot) and the activation bounds
/// are rewritten.  The cache is (re)built automatically when empty or when
/// the network dimensions / structural options changed; it must not be
/// shared across threads.
PricingResult solve_pricing_milp(const net::Network& net,
                                 const std::vector<double>& lambda_hp,
                                 const std::vector<double>& lambda_lp,
                                 const MilpPricingOptions& options = {},
                                 const sched::Schedule* warm_start = nullptr,
                                 PricingMilpCache* cache = nullptr);

/// Reusable pricing-model skeleton (see solve_pricing_milp).  Opaque to
/// callers: construct one next to the CG loop and pass its address.
class PricingMilpCache {
 public:
  bool built() const { return built_; }

 private:
  friend PricingResult solve_pricing_milp(const net::Network&,
                                          const std::vector<double>&,
                                          const std::vector<double>&,
                                          const MilpPricingOptions&,
                                          const sched::Schedule*,
                                          PricingMilpCache*);
  struct XVar {
    int link;
    int level;    // q
    int channel;  // k
    net::Layer layer;
  };

  /// (Re)builds the skeleton for this network + structural options.
  void build(const net::Network& net, const MilpPricingOptions& options);

  bool built_ = false;
  // Fingerprint of what the skeleton was built for.
  bool fixed_power_ = false;
  bool allow_layer_split_ = false;
  int links_ = 0;
  int channels_ = 0;
  int levels_ = 0;

  milp::MilpModel model_;
  std::vector<XVar> xvars_;
  std::vector<int> xindex_;  // (l, q, k, layer) -> var index, -1 if pruned
  std::map<std::pair<int, int>, int> pvar_;  // (l, k) -> power var index
  std::map<int, int> link_indicator_;        // layer-split y_l vars
};

}  // namespace mmwave::core
