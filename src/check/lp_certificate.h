// Independent optimality-certificate checking for LP solves.
//
// A claimed-optimal (x*, y*) pair from the simplex is accepted only if the
// textbook KKT certificate can be re-proved from the model data alone:
//
//   primal feasibility    A x* {<=,=,>=} b  and  l <= x* <= u
//   dual feasibility      y* signs match the row senses; the reduced costs
//                         z_j = c_j - y*'A_j are chargeable to a *finite*
//                         variable bound
//   complementary slack   y*_i (a_i x* - b_i) = 0  per row and
//                         z_j > 0 => x*_j = l_j,  z_j < 0 => x*_j = u_j
//   strong duality        c'x* = y*'b + sum_j z_j . (bound of x*_j)
//                         — for the master LP (l = 0, u = inf) this is
//                         exactly  c'x* = y*'b.
//
// Everything is recomputed here from LpModel + LpSolution; no simplex
// internals (basis, variable states) are consulted, so the checker is a
// genuinely independent referee.  Both objective senses and per-variable
// bound overrides (branch & bound nodes) are supported, matching the dual
// sign convention documented in lp/simplex.h.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace mmwave::check {

struct LpCertReport {
  std::vector<std::string> errors;

  double primal_objective = 0.0;
  /// y'b plus the reduced-cost bound terms (the dual objective value the
  /// certificate supports).
  double dual_objective = 0.0;
  /// Normalized worst residuals actually observed (diagnostics).
  double max_primal_violation = 0.0;
  double max_dual_violation = 0.0;
  double max_slackness_violation = 0.0;
  double duality_gap = 0.0;

  bool ok() const { return errors.empty(); }
  std::string to_string() const;
};

/// Checks the (x, duals) certificate of `solution` against `model`.  Every
/// condition holds to a relative tolerance of 1e-6.
LpCertReport check_lp_certificate(const lp::LpModel& model,
                                  const lp::LpSolution& solution);

/// Same, under per-variable bound overrides (branch & bound nodes).  `lb`
/// and `ub` must have one entry per variable; empty vectors fall back to
/// the model's own bounds.
LpCertReport check_lp_certificate(const lp::LpModel& model,
                                  const std::vector<double>& lb,
                                  const std::vector<double>& ub,
                                  const lp::LpSolution& solution);

}  // namespace mmwave::check
