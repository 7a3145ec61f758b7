// Sparse LU factorization of a simplex basis with product-form updates.
//
// This is how the revised simplex holds its basis: instead of maintaining
// an explicit dense inverse (O(m^2) per pivot, O(m^3) per refactorization),
// the basis B is held as
//
//   B = L U E_1 E_2 ... E_k
//
// where L/U come from a left-looking sparse LU with partial pivoting and
// each eta matrix E_t is the identity except for one column d = B^{-1} a_q
// recorded at pivot t (product-form update).  FTRAN (B x = b) applies
// L, U then the etas oldest-to-newest; BTRAN (B^T y = c) applies the eta
// transposes newest-to-oldest then U^T, L^T.  Work per solve is
// O(nnz(L) + nnz(U) + sum nnz(eta)) instead of O(m^2), and a pivot costs
// O(nnz(d)) instead of an O(m^2) inverse update.  The eta file is cleared
// by the next factorize()/reset_diagonal() — the simplex refactorizes every
// LpOptions::refactor_interval pivots, which bounds eta growth.
//
// factorize() costs O(nnz(B) + nnz(L) + nnz(U)) plus a heap operation per
// U entry and a sort of each column's pattern, never O(m) per column: it
// scatters column k, visits in ascending position order only the earlier
// positions whose pivot row the column can reach (claimed rows of its
// pattern and, transitively, of the L columns applied), and picks the
// pivot among the rows it touched.  Every floating-point operation runs in
// the order of the dense sweep it replaced (all j < k, every row scanned,
// largest |value| with ties to the lowest row), so pivots, factors and
// FTRAN/BTRAN results are bit-identical to that sweep;
// tests/lp/lu_factor_test.cpp keeps it as the reference, and a dense
// explicit inverse with rank-one updates as the reference for the eta file.
//
// Index spaces (matching the simplex's conventions):
//   * FTRAN input is indexed by original row, output by basis position
//     (position k holds the coefficient of the k-th basic variable).
//   * BTRAN input is indexed by basis position (costs of the basic
//     variables), output by original row (the duals y = B^{-T} c_B).
#pragma once

#include <span>
#include <utility>
#include <vector>

namespace mmwave::lp {

class LuFactor {
 public:
  /// One sparse basis column: (original row index, coefficient) pairs.
  using Column = std::vector<std::pair<int, double>>;

  /// Factorizes the m x m basis whose position-k column is columns[k], a
  /// view into the caller's storage (read only during the call).  Clears
  /// the eta file.  Returns false when the matrix is singular to working
  /// precision; the previous factorization (and its etas) is kept intact so
  /// the caller can keep limping on the updated basis.
  bool factorize(int m,
                 const std::vector<std::span<const std::pair<int, double>>>&
                     columns);

  /// Installs the trivial factorization of a diagonal basis (the simplex's
  /// crash start of slacks and signed artificials) in O(m), clearing the
  /// eta file.  Every `diag` entry must be nonzero.
  void reset_diagonal(const std::vector<double>& diag);

  /// Appends the product-form eta of a pivot: d = B^{-1} a_entering
  /// (position-indexed, as FTRAN returned it) with pivot row position r.
  /// Returns false — leaving the factorization unchanged — when |d[r]| is
  /// too small to divide by; the caller must refactorize instead.
  bool push_eta(const std::vector<double>& d, int r);

  /// Solves B x = b in place.  On entry x[row] is the right-hand side by
  /// original row; on exit x[k] is the solution by basis position.
  void ftran(std::vector<double>& x) const;

  /// Solves B^T y = c in place.  On entry x[k] is the cost of the k-th
  /// basic variable (position-indexed); on exit x[row] holds the dual of
  /// that original row.
  void btran(std::vector<double>& x) const;

  bool ok() const { return ok_; }
  int dimension() const { return m_; }
  int eta_count() const { return static_cast<int>(etas_.size()); }

 private:
  struct Eta {
    int r = 0;        ///< pivot position
    double dr = 0.0;  ///< d[r], the pivot element
    /// Off-pivot nonzeros of d, position-indexed.
    std::vector<std::pair<int, double>> d;
  };

  int m_ = 0;
  bool ok_ = false;
  /// L is unit lower triangular in pivot order: lcols_[k] holds the
  /// below-pivot multipliers of elimination step k as (original row, value).
  std::vector<Column> lcols_;
  /// U by column: ucols_[k] holds the above-diagonal entries of column k as
  /// (pivot position j < k, value); the diagonal lives in udiag_.
  std::vector<std::vector<std::pair<int, double>>> ucols_;
  std::vector<double> udiag_;
  /// prow_[k] = original row chosen as the pivot of position k.
  std::vector<int> prow_;
  std::vector<Eta> etas_;
  mutable std::vector<double> scratch_;

  // factorize() scratch, O(m) each and reused across calls.
  std::vector<double> work_;   ///< column being eliminated, by original row
  std::vector<int> rowpos_;    ///< row -> claiming position, -1 if unclaimed
  std::vector<int> seen_;      ///< row -> last column that touched it
  std::vector<int> touched_;   ///< rows touched by the current column
  std::vector<int> heap_;      ///< min-heap of positions left to apply
};

}  // namespace mmwave::lp
