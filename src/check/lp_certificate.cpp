#include "check/lp_certificate.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mmwave::check {

std::string LpCertReport::to_string() const {
  std::ostringstream ss;
  if (ok()) {
    ss << "certificate ok: primal " << primal_objective << ", dual "
       << dual_objective << ", gap " << duality_gap;
    return ss.str();
  }
  ss << errors.size() << " certificate error(s)";
  for (const std::string& e : errors) ss << "\n  " << e;
  return ss.str();
}

namespace {

/// Relative tolerance on primal constraint/bound residuals.
constexpr double kFeasibilityTol = 1e-6;
/// Relative tolerance on dual sign / reduced-cost conditions.
constexpr double kDualTol = 1e-6;
/// Relative tolerance on complementary-slackness products.
constexpr double kSlacknessTol = 1e-6;
/// Relative tolerance on the primal-dual objective gap.
constexpr double kGapTol = 1e-6;

std::string row_name(const lp::LpModel& model, int i) {
  const std::string& n = model.constraint(i).name;
  return n.empty() ? "row " + std::to_string(i) : "row '" + n + "'";
}

std::string var_name(const lp::LpModel& model, int j) {
  const std::string& n = model.variable(j).name;
  return n.empty() ? "var " + std::to_string(j) : "var '" + n + "'";
}

}  // namespace

LpCertReport check_lp_certificate(const lp::LpModel& model,
                                  const lp::LpSolution& solution) {
  return check_lp_certificate(model, {}, {}, solution);
}

LpCertReport check_lp_certificate(const lp::LpModel& model,
                                  const std::vector<double>& lb_override,
                                  const std::vector<double>& ub_override,
                                  const lp::LpSolution& solution) {
  LpCertReport report;
  const auto fail = [&report](const std::string& msg) {
    report.errors.push_back(msg);
  };

  const int n = model.num_variables();
  const int m = model.num_constraints();

  if (solution.status != lp::SolveStatus::Optimal) {
    fail(std::string("solution status is ") +
         lp::to_string(solution.status) + ", not Optimal");
    return report;
  }
  if (static_cast<int>(solution.x.size()) != n) {
    fail("primal vector has " + std::to_string(solution.x.size()) +
         " entries for " + std::to_string(n) + " variables");
    return report;
  }
  if (m > 0 && static_cast<int>(solution.duals.size()) != m) {
    fail("dual vector has " + std::to_string(solution.duals.size()) +
         " entries for " + std::to_string(m) + " constraints");
    return report;
  }
  if (!lb_override.empty() &&
      (static_cast<int>(lb_override.size()) != n ||
       static_cast<int>(ub_override.size()) != n)) {
    fail("bound overrides must have one entry per variable");
    return report;
  }

  // Normalize everything to minimize form: for Maximize models the solver
  // reports the max-sense objective and max-sense duals (lp/simplex.h), so
  // both flip sign here and all KKT conditions read as for a minimization.
  const bool maximize = model.objective_sense() == lp::ObjSense::Maximize;
  const double sign = maximize ? -1.0 : 1.0;

  auto lb_of = [&](int j) {
    return lb_override.empty() ? model.variable(j).lb : lb_override[j];
  };
  auto ub_of = [&](int j) {
    return ub_override.empty() ? model.variable(j).ub : ub_override[j];
  };

  // ---- Primal feasibility: variable bounds ------------------------------
  for (int j = 0; j < n; ++j) {
    const double x = solution.x[j];
    const double lb = lb_of(j), ub = ub_of(j);
    if (!std::isfinite(x)) {
      fail(var_name(model, j) + " is not finite");
      continue;
    }
    const double lo_tol = kFeasibilityTol * (1.0 + std::abs(lb));
    const double hi_tol = kFeasibilityTol * (1.0 + std::abs(ub));
    double viol = 0.0;
    if (std::isfinite(lb) && x < lb - lo_tol) viol = (lb - x) / (1.0 + std::abs(lb));
    if (std::isfinite(ub) && x > ub + hi_tol)
      viol = std::max(viol, (x - ub) / (1.0 + std::abs(ub)));
    if (viol > 0.0) {
      std::ostringstream ss;
      ss << var_name(model, j) << " = " << x << " outside bounds [" << lb
         << ", " << ub << "]";
      fail(ss.str());
    }
    report.max_primal_violation = std::max(report.max_primal_violation, viol);
  }

  // ---- Primal feasibility: rows ----------------------------------------
  std::vector<double> activity(m, 0.0);
  for (int i = 0; i < m; ++i) {
    const lp::Constraint& row = model.constraint(i);
    double act = 0.0, scale = 1.0 + std::abs(row.rhs);
    for (const auto& [col, coef] : row.terms) {
      act += coef * solution.x[col];
      scale += std::abs(coef * solution.x[col]);
    }
    activity[i] = act;
    const double tol = kFeasibilityTol * scale;
    double resid = 0.0;
    switch (row.sense) {
      case lp::Sense::Le: resid = act - row.rhs; break;
      case lp::Sense::Ge: resid = row.rhs - act; break;
      case lp::Sense::Eq: resid = std::abs(act - row.rhs); break;
    }
    if (resid > tol) {
      std::ostringstream ss;
      ss << row_name(model, i) << " violated: activity " << act << " vs rhs "
         << row.rhs;
      fail(ss.str());
    }
    report.max_primal_violation =
        std::max(report.max_primal_violation, std::max(0.0, resid) / scale);
  }

  // ---- Dual feasibility: row sign convention (minimize form) ------------
  std::vector<double> y(m, 0.0);
  double yscale = 1.0;
  for (int i = 0; i < m; ++i) {
    y[i] = sign * solution.duals[i];
    yscale = std::max(yscale, std::abs(y[i]));
  }
  for (int i = 0; i < m; ++i) {
    const double tol = kDualTol * yscale;
    double viol = 0.0;
    switch (model.constraint(i).sense) {
      case lp::Sense::Ge:  // binding from below: y >= 0
        if (y[i] < -tol) viol = -y[i] / yscale;
        break;
      case lp::Sense::Le:  // y <= 0
        if (y[i] > tol) viol = y[i] / yscale;
        break;
      case lp::Sense::Eq:
        break;  // free
    }
    if (viol > 0.0) {
      std::ostringstream ss;
      ss << row_name(model, i) << " dual " << y[i]
         << " has the wrong sign for its sense";
      fail(ss.str());
    }
    report.max_dual_violation = std::max(report.max_dual_violation, viol);
  }

  // ---- Reduced costs, chargeability, complementary slackness ------------
  // z_j = c_j - y'A_j must be chargeable to a finite bound of x_j, and the
  // charge it claims must match where x_j actually sits.  The slackness
  // products are normalized by the primal objective scale, because their sum
  // is exactly the primal-dual gap contribution.
  double primal_obj = 0.0;
  for (int j = 0; j < n; ++j)
    primal_obj += sign * model.variable(j).cost * solution.x[j];

  std::vector<double> yA(n, 0.0);
  for (int i = 0; i < m; ++i) {
    if (y[i] == 0.0) continue;
    for (const auto& [col, coef] : model.constraint(i).terms)
      yA[col] += y[i] * coef;
  }

  const double obj_scale = 1.0 + std::abs(primal_obj);
  double dual_obj = 0.0;
  for (int i = 0; i < m; ++i) dual_obj += y[i] * model.constraint(i).rhs;

  // Row complementary slackness: y_i (a_i x - b_i) = 0.
  for (int i = 0; i < m; ++i) {
    const double product = y[i] * (activity[i] - model.constraint(i).rhs);
    const double viol = std::abs(product) / obj_scale;
    if (viol > kSlacknessTol) {
      std::ostringstream ss;
      ss << row_name(model, i) << " complementary slackness violated: dual "
         << y[i] << " x slack " << activity[i] - model.constraint(i).rhs;
      fail(ss.str());
    }
    report.max_slackness_violation =
        std::max(report.max_slackness_violation, viol);
  }

  for (int j = 0; j < n; ++j) {
    const double c = sign * model.variable(j).cost;
    const double z = c - yA[j];
    const double zscale = 1.0 + std::abs(c) + std::abs(yA[j]);
    const double ztol = kDualTol * zscale;
    const double lb = lb_of(j), ub = ub_of(j);
    if (std::abs(z) <= ztol) continue;  // z ~ 0: no charge, no slackness claim

    if (z > 0.0) {
      if (!std::isfinite(lb)) {
        fail(var_name(model, j) + " has positive reduced cost " +
             std::to_string(z) + " but no finite lower bound");
        continue;
      }
      dual_obj += z * lb;
      const double viol = z * (solution.x[j] - lb) / obj_scale;
      if (viol > kSlacknessTol) {
        std::ostringstream ss;
        ss << var_name(model, j) << " complementary slackness violated: "
           << "reduced cost " << z << " but x = " << solution.x[j]
           << " above lower bound " << lb;
        fail(ss.str());
      }
      report.max_slackness_violation =
          std::max(report.max_slackness_violation, std::max(0.0, viol));
    } else {
      if (!std::isfinite(ub)) {
        fail(var_name(model, j) + " has negative reduced cost " +
             std::to_string(z) + " but no finite upper bound");
        continue;
      }
      dual_obj += z * ub;
      const double viol = -z * (ub - solution.x[j]) / obj_scale;
      if (viol > kSlacknessTol) {
        std::ostringstream ss;
        ss << var_name(model, j) << " complementary slackness violated: "
           << "reduced cost " << z << " but x = " << solution.x[j]
           << " below upper bound " << ub;
        fail(ss.str());
      }
      report.max_slackness_violation =
          std::max(report.max_slackness_violation, std::max(0.0, viol));
    }
  }

  // ---- Objective consistency and strong duality -------------------------
  const double reported_obj = sign * solution.objective;
  if (std::abs(primal_obj - reported_obj) >
      kFeasibilityTol * (1.0 + std::abs(primal_obj))) {
    std::ostringstream ss;
    ss << "reported objective " << solution.objective
       << " does not match c'x = " << sign * primal_obj;
    fail(ss.str());
  }

  report.primal_objective = sign * primal_obj;
  report.dual_objective = sign * dual_obj;
  report.duality_gap = std::abs(primal_obj - dual_obj) /
                       (1.0 + std::abs(primal_obj) + std::abs(dual_obj));
  if (report.duality_gap > kGapTol) {
    std::ostringstream ss;
    ss << "duality gap: c'x = " << sign * primal_obj
       << " vs dual objective y'b + bound terms = " << sign * dual_obj;
    fail(ss.str());
  }

  return report;
}

}  // namespace mmwave::check
