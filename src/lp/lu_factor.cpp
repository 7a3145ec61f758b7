#include "lp/lu_factor.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace mmwave::lp {
namespace {

/// A pivot below this (relative to the column's largest entry) is treated
/// as structural zero: the basis is singular to working precision.
constexpr double kSingularTol = 1e-11;
/// Floor for an eta pivot element; the ratio test already rejects pivots
/// below 1e-9, so hitting this means the direction itself is degenerate.
constexpr double kEtaPivotFloor = 1e-12;

}  // namespace

bool LuFactor::factorize(
    int m,
    const std::vector<std::span<const std::pair<int, double>>>& columns) {
  // Build into temporaries and swap on success: a failed factorization must
  // leave the previous factorization (and its eta file) usable.
  std::vector<Column> lcols(m);
  std::vector<std::vector<std::pair<int, double>>> ucols(m);
  std::vector<double> udiag(m, 0.0);
  std::vector<int> prow(m, -1);
  work_.assign(m, 0.0);
  rowpos_.assign(m, -1);
  seen_.assign(m, -1);

  for (int k = 0; k < m; ++k) {
    // Records the first touch of a row in column k; a row some earlier
    // position already claimed queues that position for elimination.
    const auto touch = [&](int r) {
      if (seen_[r] == k) return;
      seen_[r] = k;
      touched_.push_back(r);
      if (rowpos_[r] >= 0) {
        heap_.push_back(rowpos_[r]);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    };
    // Scatter column k into the work vector.
    touched_.clear();
    double cmax = 0.0;
    for (const auto& [row, coef] : columns[k]) {
      touch(row);
      work_[row] += coef;
      cmax = std::max(cmax, std::abs(coef));
    }
    // Left-looking elimination: apply the previous pivots in ascending
    // position order; the value sitting in a consumed pivot row is exactly
    // U(j, k).  Only positions whose pivot row was touched can be nonzero,
    // and L column j only reaches rows claimed after j, so the heap yields
    // the same sequence of nonzero U(j, k) as a sweep over every j < k.
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const int j = heap_.back();
      heap_.pop_back();
      const double ujk = work_[prow[j]];
      if (ujk == 0.0) continue;
      ucols[k].emplace_back(j, ujk);
      for (const auto& [r, lv] : lcols[j]) {
        touch(r);
        work_[r] -= ujk * lv;
      }
    }
    // Partial pivoting over the touched rows no previous position claimed
    // (every untouched row holds zero), scanned in ascending row order so
    // ties go to the lowest row.
    std::sort(touched_.begin(), touched_.end());
    int piv = -1;
    double best = 0.0;
    for (const int r : touched_) {
      if (rowpos_[r] >= 0) continue;
      const double a = std::abs(work_[r]);
      if (a > best) {
        best = a;
        piv = r;
      }
    }
    if (piv < 0 || best <= kSingularTol * std::max(1.0, cmax)) {
      return false;  // singular: keep the previous factorization
    }
    udiag[k] = work_[piv];
    prow[k] = piv;
    rowpos_[piv] = k;
    for (const int r : touched_) {
      if (rowpos_[r] < 0 && work_[r] != 0.0) {
        lcols[k].emplace_back(r, work_[r] / udiag[k]);
      }
      work_[r] = 0.0;
    }
  }

  m_ = m;
  lcols_ = std::move(lcols);
  ucols_ = std::move(ucols);
  udiag_ = std::move(udiag);
  prow_ = std::move(prow);
  etas_.clear();
  ok_ = true;
  return true;
}

void LuFactor::reset_diagonal(const std::vector<double>& diag) {
  m_ = static_cast<int>(diag.size());
  lcols_.assign(m_, {});
  ucols_.assign(m_, {});
  udiag_ = diag;
  prow_.resize(m_);
  for (int k = 0; k < m_; ++k) prow_[k] = k;
  etas_.clear();
  ok_ = true;
}

bool LuFactor::push_eta(const std::vector<double>& d, int r) {
  if (std::abs(d[r]) <= kEtaPivotFloor) return false;
  Eta e;
  e.r = r;
  e.dr = d[r];
  for (int i = 0; i < m_; ++i) {
    if (i != r && d[i] != 0.0) e.d.emplace_back(i, d[i]);
  }
  etas_.push_back(std::move(e));
  return true;
}

void LuFactor::ftran(std::vector<double>& x) const {
  // L solve, in original-row space: position k's partial result lives in
  // the slot of its pivot row.
  for (int k = 0; k < m_; ++k) {
    const double v = x[prow_[k]];
    if (v == 0.0) continue;
    for (const auto& [r, lv] : lcols_[k]) x[r] -= v * lv;
  }
  // U back-substitution (U stored by column: column k's off-diagonal
  // entries update the pivot rows of earlier positions).
  for (int k = m_ - 1; k >= 0; --k) {
    const double t = x[prow_[k]] / udiag_[k];
    x[prow_[k]] = t;
    if (t == 0.0) continue;
    for (const auto& [j, uv] : ucols_[k]) x[prow_[j]] -= t * uv;
  }
  // Permute into basis-position space.
  scratch_.resize(m_);
  for (int k = 0; k < m_; ++k) scratch_[k] = x[prow_[k]];
  x = scratch_;
  // Product-form etas, oldest to newest: x <- E^{-1} x.
  for (const Eta& e : etas_) {
    const double t = x[e.r] / e.dr;
    if (t != 0.0) {
      for (const auto& [i, di] : e.d) x[i] -= di * t;
    }
    x[e.r] = t;
  }
}

void LuFactor::btran(std::vector<double>& x) const {
  // Eta transposes, newest to oldest: solving E^T w = c changes only the
  // pivot component, w_r = (c_r - sum_{i != r} d_i c_i) / d_r.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = 0.0;
    for (const auto& [i, di] : it->d) s += di * x[i];
    x[it->r] = (x[it->r] - s) / it->dr;
  }
  // U^T is lower triangular in position space; its row k is U's column k.
  scratch_.resize(m_);
  for (int k = 0; k < m_; ++k) {
    double s = x[k];
    for (const auto& [j, uv] : ucols_[k]) s -= uv * scratch_[j];
    scratch_[k] = s / udiag_[k];
  }
  // L^T solve back into original-row space: row k of L^T is L's column k,
  // whose off-diagonal rows are pivot rows of later positions (already
  // solved when sweeping downward).
  for (int k = m_ - 1; k >= 0; --k) {
    double s = scratch_[k];
    for (const auto& [r, lv] : lcols_[k]) s -= lv * x[r];
    x[prow_[k]] = s;
  }
}

}  // namespace mmwave::lp
