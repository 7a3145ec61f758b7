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

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/pricing.h"
#include "milp/milp.h"
#include "mmwave/network.h"
#include "mmwave/power_control.h"

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

/// Conflict discovery for the skeleton's pairwise cuts, one link pair on
/// channel k: link `a` has variables at levels 0..top_a, link `b` at
/// 0..top_b.  Interference is monotone and the rate ladder strictly
/// ascends, so if (a, qa) and (b, qb) cannot share the channel as a bare
/// pair, neither can any (a, qa' >= qa) and (b, qb' >= qb): the conflicting
/// level pairs form a staircase.  One min-power solve at the top corner
/// (top_a, top_b) settles a pair without conflicts; otherwise the walk
/// traces the staircase one level per solve.  On return
/// first_conflict[qa] (qa = 0..top_a) is the lowest qb that conflicts with
/// qa, top_b + 1 if none.  Returns the number of solves made, at most
/// (top_a + 1) + (top_b + 1) + 1.
int conflict_staircase(net::PowerSolver& solver, int k, int a, int top_a,
                       int b, int top_b, std::span<int> first_conflict);

/// Reusable pricing-model skeleton (see solve_pricing_milp).  Opaque to
/// callers: construct one next to the CG loop and pass its address.
class PricingMilpCache {
 public:
  bool built() const { return built_; }
  /// Wall time of the last skeleton build, and the pair power solves its
  /// conflict discovery made.
  double build_seconds() const { return build_seconds_; }
  std::int64_t pair_power_solves() const { return pair_power_solves_; }

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
  /// Power variable of link l on channel k, -1 if it has none.
  int pvar(int l, int k) const {
    return pvar_[static_cast<std::size_t>(l) * channels_ + k];
  }

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
  std::vector<int> pvar_;  // l * K + k -> power var index, -1 if none
  std::map<int, int> link_indicator_;  // layer-split y_l vars
  double build_seconds_ = 0.0;
  std::int64_t pair_power_solves_ = 0;
};

}  // namespace mmwave::core
