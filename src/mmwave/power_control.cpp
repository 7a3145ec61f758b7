#include "mmwave/power_control.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mmwave::net {

PowerSolver::PowerSolver(const Network& net, std::size_t capacity)
    : net_(net),
      capacity_(capacity),
      a_(capacity * capacity),
      x_(capacity),
      piv_(capacity),
      p_(capacity) {}

bool PowerSolver::min_power(int k, std::span<const int> links,
                            std::span<const double> gammas) {
  assert(links.size() == gammas.size() && links.size() <= capacity_);
  const std::size_t n = links.size();
  n_ = n;
  const double pmax = net_.params().p_max_watts;
  const std::size_t stride = capacity_;
  double* const a = a_.data();
  double* const x = x_.data();

  // Build (I - D F) and D nu.
  for (std::size_t i = 0; i < n; ++i) {
    const int li = links[i];
    const double h = net_.direct_gain(li, k);
    if (h <= 0.0) return false;  // cannot serve at all
    const double scale = gammas[i] / h;
    double* const row = a + i * stride;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = j == i ? 1.0 : -scale * net_.cross_gain(links[j], li, k);
    }
    x[i] = scale * net_.noise(li);
  }

  // LU with partial pivoting (largest magnitude on/below the diagonal,
  // ties to the lowest row); a pivot below 1e-12 means singular: at or
  // beyond the feasibility boundary.  The floating-point operations and
  // their order are common::LuFactorization's, so verdicts and powers match
  // a Matrix-based solve bit for bit (tests/mmwave/power_control_test.cpp).
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a[col * stride + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a[r * stride + col]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-12) return false;
    if (pivot != col) {
      std::swap(piv_[pivot], piv_[col]);
      std::swap_ranges(a + pivot * stride, a + pivot * stride + n,
                       a + col * stride);
    }
    const double* const prow = a + col * stride;
    const double inv_diag = 1.0 / prow[col];
    for (std::size_t r = col + 1; r < n; ++r) {
      double* const row = a + r * stride;
      const double factor = row[col] * inv_diag;
      row[col] = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) row[c] -= factor * prow[c];
    }
  }

  // Permute D nu, then forward substitution with unit-lower L and back
  // substitution with U.
  double* const p = p_.data();
  for (std::size_t i = 0; i < n; ++i) p[i] = x[piv_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    const double* const row = a + i * stride;
    double acc = p[i];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * p[j];
    p[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double* const row = a + ii * stride;
    double acc = p[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * p[j];
    p[ii] = acc / row[ii];
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!(p[i] >= -1e-12) || p[i] > pmax * (1.0 + 1e-9)) return false;
  }
  // A nonnegative solution of (I - DF) P = D nu is only the Perron fixed
  // point when rho(DF) < 1; beyond the boundary the solve can produce a
  // spurious nonnegative vector.  Verify the SINR constraints directly.
  for (std::size_t i = 0; i < n; ++i)
    p[i] = std::min(std::max(p[i], 0.0), pmax);
  return meets_sinr(k, links, gammas, 1e-7);
}

bool PowerSolver::fixed_power(int k, std::span<const int> links,
                              std::span<const double> gammas) {
  assert(links.size() == gammas.size() && links.size() <= capacity_);
  n_ = links.size();
  std::fill_n(p_.begin(), n_, net_.params().p_max_watts);
  return meets_sinr(k, links, gammas, 1e-9);
}

bool PowerSolver::meets_sinr(int k, std::span<const int> links,
                             std::span<const double> gammas,
                             double slack) const {
  const std::size_t n = links.size();
  for (std::size_t i = 0; i < n; ++i) {
    const int li = links[i];
    double interference = net_.noise(li);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      interference += net_.cross_gain(links[j], li, k) * p_[j];
    }
    const double sinr = net_.direct_gain(li, k) * p_[i] / interference;
    if (sinr < gammas[i] * (1.0 - slack)) return false;
  }
  return true;
}

PowerControlResult min_power_assignment(const Network& net, int k,
                                        const std::vector<int>& links,
                                        const std::vector<double>& gammas) {
  assert(links.size() == gammas.size());
  PowerControlResult out;
  PowerSolver solver(net, links.size());
  if (!solver.min_power(k, links, gammas)) return out;
  out.feasible = true;
  out.powers.assign(solver.powers().begin(), solver.powers().end());
  return out;
}

PowerControlResult iterative_power_control(const Network& net, int k,
                                           const std::vector<int>& links,
                                           const std::vector<double>& gammas,
                                           int max_iters, double tol) {
  assert(links.size() == gammas.size());
  PowerControlResult out;
  const int n = static_cast<int>(links.size());
  if (n == 0) {
    out.feasible = true;
    return out;
  }
  const double pmax = net.params().p_max_watts;

  std::vector<double> p(n, 0.0), next(n);
  for (int it = 0; it < max_iters; ++it) {
    double delta = 0.0;
    for (int i = 0; i < n; ++i) {
      const int li = links[i];
      double interference = net.noise(li);
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        interference += net.cross_gain(links[j], li, k) * p[j];
      }
      const double target =
          gammas[i] * interference / net.direct_gain(li, k);
      next[i] = std::min(target, pmax);
      delta = std::max(delta, std::abs(next[i] - p[i]));
    }
    p.swap(next);
    if (delta < tol) break;
  }

  const std::vector<double> sinr = achieved_sinr(net, k, links, p);
  for (int i = 0; i < n; ++i) {
    if (sinr[i] < gammas[i] * (1.0 - 1e-6)) return out;
  }
  out.feasible = true;
  out.powers = std::move(p);
  return out;
}

std::vector<double> achieved_sinr(const Network& net, int k,
                                  const std::vector<int>& links,
                                  const std::vector<double>& powers) {
  assert(links.size() == powers.size());
  const int n = static_cast<int>(links.size());
  std::vector<double> sinr(n, 0.0);
  for (int i = 0; i < n; ++i) {
    const int li = links[i];
    double interference = net.noise(li);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      interference += net.cross_gain(links[j], li, k) * powers[j];
    }
    sinr[i] = net.direct_gain(li, k) * powers[i] / interference;
  }
  return sinr;
}

}  // namespace mmwave::net
