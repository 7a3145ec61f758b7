// lp::LuFactor on its own: the sparse-pattern factorization must build
// exactly the factors of the dense-sweep left-looking loop it replaced, so
// FTRAN/BTRAN results are compared bit for bit against that loop, kept
// below as a test-local reference, over seeded batteries of random sparse,
// slack-heavy near-triangular, duplicate-entry and exact-cancellation
// bases.  The eta file, the one layer the dense-sweep reference does not
// cover, is compared over seeded pivot chains against a dense explicit
// inverse with rank-one updates.  Also pins the failure contracts: a
// singular basis leaves the previous factorization and its etas usable,
// push_eta refuses a tiny pivot, and reset_diagonal solves exactly.
#include "lp/lu_factor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "support/matrix.h"

namespace mmwave::lp {
namespace {

using Column = LuFactor::Column;
using ColumnView = std::span<const std::pair<int, double>>;

/// The O(m^2)-per-column left-looking LU (every earlier position swept,
/// every row scanned for the pivot, the whole work vector cleared), with
/// the solves of the same factor layout.  `cancellations` counts rows a
/// column wrote that reached exactly zero before they were read, so the
/// battery can show it exercised the zero-skip paths.
struct ReferenceLu {
  std::vector<Column> lcols;
  std::vector<std::vector<std::pair<int, double>>> ucols;
  std::vector<double> udiag;
  std::vector<int> prow;
  int cancellations = 0;

  bool factorize(int m, const std::vector<ColumnView>& columns) {
    lcols.assign(m, {});
    ucols.assign(m, {});
    udiag.assign(m, 0.0);
    prow.assign(m, -1);
    std::vector<int> rowpos(m, -1);
    std::vector<double> work(m, 0.0);
    std::vector<char> written(m, 0);
    for (int k = 0; k < m; ++k) {
      double cmax = 0.0;
      for (const auto& [row, coef] : columns[k]) {
        work[row] += coef;
        written[row] = 1;
        cmax = std::max(cmax, std::abs(coef));
      }
      for (int j = 0; j < k; ++j) {
        const double ujk = work[prow[j]];
        if (ujk == 0.0) {
          cancellations += written[prow[j]];
          continue;
        }
        ucols[k].emplace_back(j, ujk);
        for (const auto& [r, lv] : lcols[j]) {
          work[r] -= ujk * lv;
          written[r] = 1;
        }
      }
      int piv = -1;
      double best = 0.0;
      for (int r = 0; r < m; ++r) {
        if (rowpos[r] >= 0) continue;
        const double a = std::abs(work[r]);
        if (a > best) {
          best = a;
          piv = r;
        }
      }
      if (piv < 0 || best <= 1e-11 * std::max(1.0, cmax)) return false;
      udiag[k] = work[piv];
      prow[k] = piv;
      rowpos[piv] = k;
      for (int r = 0; r < m; ++r) {
        if (rowpos[r] >= 0) continue;
        if (work[r] == 0.0) {
          cancellations += written[r];
          continue;
        }
        lcols[k].emplace_back(r, work[r] / udiag[k]);
      }
      std::fill(work.begin(), work.end(), 0.0);
      std::fill(written.begin(), written.end(), 0);
    }
    return true;
  }

  void ftran(std::vector<double>& x) const {
    const int m = static_cast<int>(prow.size());
    for (int k = 0; k < m; ++k) {
      const double v = x[prow[k]];
      if (v == 0.0) continue;
      for (const auto& [r, lv] : lcols[k]) x[r] -= v * lv;
    }
    for (int k = m - 1; k >= 0; --k) {
      const double t = x[prow[k]] / udiag[k];
      x[prow[k]] = t;
      if (t == 0.0) continue;
      for (const auto& [j, uv] : ucols[k]) x[prow[j]] -= t * uv;
    }
    std::vector<double> out(m);
    for (int k = 0; k < m; ++k) out[k] = x[prow[k]];
    x = out;
  }

  void btran(std::vector<double>& x) const {
    const int m = static_cast<int>(prow.size());
    std::vector<double> y(m);
    for (int k = 0; k < m; ++k) {
      double s = x[k];
      for (const auto& [j, uv] : ucols[k]) s -= uv * y[j];
      y[k] = s / udiag[k];
    }
    for (int k = m - 1; k >= 0; --k) {
      double s = y[k];
      for (const auto& [r, lv] : lcols[k]) s -= lv * x[r];
      x[prow[k]] = s;
    }
  }
};

::testing::AssertionResult same_bits(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Views of `cols`, the form factorize() takes.
std::vector<ColumnView> spans(const std::vector<Column>& cols) {
  return {cols.begin(), cols.end()};
}

/// Right-hand sides for the solves: unit vectors, a dense random vector and
/// a sparse one.
std::vector<std::vector<double>> right_hand_sides(common::Rng& rng, int m) {
  std::vector<std::vector<double>> out;
  for (const int i : {0, m / 2, m - 1}) {
    std::vector<double> e(m, 0.0);
    e[i] = 1.0;
    out.push_back(std::move(e));
  }
  std::vector<double> dense(m), sparse(m, 0.0);
  for (int i = 0; i < m; ++i) {
    dense[i] = rng.uniform(-3.0, 3.0);
    if (rng.bernoulli(0.1)) sparse[i] = rng.uniform(-1.0, 1.0);
  }
  out.push_back(std::move(dense));
  out.push_back(std::move(sparse));
  return out;
}

/// Factorizes `cols` with both implementations and compares the verdict
/// and, on success, FTRAN/BTRAN of several right-hand sides bit for bit.
/// Returns whether the basis was nonsingular.  `lu` is reused across
/// calls so stale scratch from an earlier basis would show.
bool expect_matches_reference(LuFactor& lu, ReferenceLu& ref,
                              const std::vector<Column>& cols,
                              common::Rng& rng) {
  const int m = static_cast<int>(cols.size());
  const bool ok = ref.factorize(m, spans(cols));
  EXPECT_EQ(lu.factorize(m, spans(cols)), ok) << "m=" << m;
  if (!ok) return false;
  EXPECT_EQ(lu.dimension(), m);
  EXPECT_EQ(lu.eta_count(), 0);
  for (const std::vector<double>& rhs : right_hand_sides(rng, m)) {
    std::vector<double> x = rhs, x_ref = rhs;
    lu.ftran(x);
    ref.ftran(x_ref);
    EXPECT_TRUE(same_bits(x, x_ref)) << "ftran, m=" << m;
    std::vector<double> y = rhs, y_ref = rhs;
    lu.btran(y);
    ref.btran(y_ref);
    EXPECT_TRUE(same_bits(y, y_ref)) << "btran, m=" << m;
  }
  return true;
}

/// Random sparse basis: column k holds a pivot candidate at row perm[k]
/// (so most draws are nonsingular) plus 0..extra random off-entries.
std::vector<Column> random_basis(common::Rng& rng, int m, int extra) {
  std::vector<int> perm(m);
  for (int i = 0; i < m; ++i) perm[i] = i;
  rng.shuffle(perm);
  std::vector<Column> cols(m);
  for (int k = 0; k < m; ++k) {
    cols[k].emplace_back(perm[k], rng.uniform(0.2, 2.0) *
                                      (rng.bernoulli(0.5) ? 1.0 : -1.0));
    const int n = static_cast<int>(rng.uniform_int(0, extra));
    for (int t = 0; t < n; ++t) {
      cols[k].emplace_back(static_cast<int>(rng.uniform_int(0, m - 1)),
                           rng.uniform(-2.0, 2.0));
    }
  }
  return cols;
}

TEST(LuFactor, RandomSparseBasesMatchReferenceBitForBit) {
  common::Rng rng(20261017);
  LuFactor lu;
  ReferenceLu ref;
  int nonsingular = 0, total = 0;
  for (const int m : {1, 2, 5, 17, 60, 150}) {
    for (int rep = 0; rep < 8; ++rep, ++total) {
      nonsingular += expect_matches_reference(
          lu, ref, random_basis(rng, m, 1 + rep % 5), rng);
    }
  }
  EXPECT_GT(nonsingular, total * 3 / 4);
}

TEST(LuFactor, SlackHeavyNearTriangularBasesMatchReference) {
  // Like the pricing MILP's root basis: mostly +-1 slack columns, a few
  // structural columns with short patterns, one dense coupling row, in a
  // shuffled position order.
  common::Rng rng(837);
  LuFactor lu;
  ReferenceLu ref;
  for (const int m : {40, 120, 400}) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<int> perm(m);
      for (int i = 0; i < m; ++i) perm[i] = i;
      rng.shuffle(perm);
      const int coupling = static_cast<int>(rng.uniform_int(0, m - 1));
      std::vector<Column> cols(m);
      for (int k = 0; k < m; ++k) {
        if (rng.bernoulli(0.85)) {
          cols[k].emplace_back(perm[k], rng.bernoulli(0.5) ? 1.0 : -1.0);
          continue;
        }
        cols[k].emplace_back(perm[k], rng.uniform(1.0, 3.0));
        if (perm[k] != coupling) cols[k].emplace_back(coupling, 1.0);
        const int n = static_cast<int>(rng.uniform_int(1, 4));
        for (int t = 0; t < n; ++t) {
          cols[k].emplace_back(static_cast<int>(rng.uniform_int(0, m - 1)),
                               rng.uniform(0.1, 1.0));
        }
      }
      rng.shuffle(cols);
      EXPECT_TRUE(expect_matches_reference(lu, ref, cols, rng)) << "m=" << m;
    }
  }
}

TEST(LuFactor, DuplicateRowEntriesMatchReference) {
  // Repeated rows are summed in list order; some repeats cancel to an
  // exact zero entry that is written but holds nothing.
  common::Rng rng(4242);
  LuFactor lu;
  ReferenceLu ref;
  int nonsingular = 0;
  for (int rep = 0; rep < 24; ++rep) {
    const int m = static_cast<int>(rng.uniform_int(3, 50));
    std::vector<Column> cols = random_basis(rng, m, 3);
    for (Column& c : cols) {
      const auto [row, coef] = c[rng.uniform_index(c.size())];
      if (rng.bernoulli(0.5)) {
        c.emplace_back(row, rng.uniform(-1.0, 1.0));
      } else if (row != c.front().first) {
        c.emplace_back(row, -coef);  // cancels the earlier entry exactly
      }
    }
    nonsingular += expect_matches_reference(lu, ref, cols, rng);
  }
  EXPECT_GT(nonsingular, 12);
}

TEST(LuFactor, ExactCancellationZerosMatchReference) {
  // Dyadic coefficients on small dense-ish bases make eliminations cancel
  // to exact zeros, both in claimed rows (a skipped U entry) and in
  // unclaimed ones (a dropped L entry).
  common::Rng rng(99);
  LuFactor lu;
  ReferenceLu ref;
  const double values[] = {1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 4.0};
  int cancellations = 0, nonsingular = 0;
  for (int rep = 0; rep < 60; ++rep) {
    const int m = static_cast<int>(rng.uniform_int(3, 12));
    std::vector<Column> cols(m);
    for (int k = 0; k < m; ++k) {
      for (int r = 0; r < m; ++r) {
        if (rng.bernoulli(0.4)) cols[k].emplace_back(r, values[rng.uniform_index(7)]);
      }
    }
    nonsingular += expect_matches_reference(lu, ref, cols, rng);
    cancellations += ref.cancellations;
    ref.cancellations = 0;
  }
  EXPECT_GT(nonsingular, 0);
  EXPECT_GT(cancellations, 0) << "battery never hit an exact cancellation";
}

TEST(LuFactor, SingularBasisKeepsPreviousFactorizationAndEtas) {
  common::Rng rng(7);
  const int m = 20;
  const std::vector<Column> good = random_basis(rng, m, 2);
  LuFactor lu;
  ASSERT_TRUE(lu.factorize(m, spans(good)));
  std::vector<double> d(m, 0.0);
  d[3] = 2.0;
  d[11] = -0.5;
  ASSERT_TRUE(lu.push_eta(d, 3));
  ASSERT_EQ(lu.eta_count(), 1);
  const std::vector<std::vector<double>> rhs = right_hand_sides(rng, m);
  auto solves = [&]() {
    std::vector<std::vector<double>> out;
    for (const std::vector<double>& b : rhs) {
      std::vector<double> x = b, y = b;
      lu.ftran(x);
      lu.btran(y);
      out.push_back(std::move(x));
      out.push_back(std::move(y));
    }
    return out;
  };
  const std::vector<std::vector<double>> before = solves();

  // Structurally empty column, two slacks on one row, and a column that is
  // exactly twice another: the first fails at the empty position, the
  // others only once elimination has already written factors.
  std::vector<std::vector<Column>> singular(3, good);
  singular[0][0].clear();
  singular[1][m - 2] = {{5, 1.0}};
  singular[1][m - 1] = {{5, -1.0}};
  singular[2][m - 1] = {{0, 2.0}, {1, 4.0}};
  singular[2][4] = {{0, 1.0}, {1, 2.0}};
  for (const std::vector<Column>& cols : singular) {
    EXPECT_FALSE(lu.factorize(m, spans(cols)));
    EXPECT_TRUE(lu.ok());
    EXPECT_EQ(lu.dimension(), m);
    EXPECT_EQ(lu.eta_count(), 1);
    const std::vector<std::vector<double>> after = solves();
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_TRUE(same_bits(after[i], before[i])) << "solve " << i;
    }
  }

  // The scratch a failed call left behind must not leak into the next.
  ReferenceLu ref;
  EXPECT_TRUE(expect_matches_reference(lu, ref, random_basis(rng, m, 3), rng));
}

TEST(LuFactor, PushEtaRejectsTinyPivot) {
  common::Rng rng(5);
  const int m = 8;
  LuFactor lu;
  ASSERT_TRUE(lu.factorize(m, spans(random_basis(rng, m, 2))));
  std::vector<double> b(m, 1.0);
  std::vector<double> before = b;
  lu.ftran(before);
  for (const double pivot : {1e-12, -1e-12, 1e-13, 0.0}) {
    std::vector<double> d(m, 0.5);
    d[2] = pivot;
    EXPECT_FALSE(lu.push_eta(d, 2)) << pivot;
    EXPECT_EQ(lu.eta_count(), 0);
  }
  std::vector<double> after = b;
  lu.ftran(after);
  EXPECT_TRUE(same_bits(after, before));
  std::vector<double> d(m, 0.5);
  d[2] = 2e-12;
  EXPECT_TRUE(lu.push_eta(d, 2));
  EXPECT_EQ(lu.eta_count(), 1);
}

/// The basis representation the simplex ran on before the LU: B^{-1} held
/// as a dense matrix, refactorization inverts a dense LU, a pivot applies
/// the explicit rank-one inverse update.  O(m^2) per operation and sharing
/// no code with LuFactor, so it is the reference for the eta file.
class DenseInverse {
 public:
  explicit DenseInverse(int m) : m_(m), binv_(m, m) {}

  bool refactorize(const std::vector<ColumnView>& columns) {
    common::Matrix basis_matrix(m_, m_);
    for (int k = 0; k < m_; ++k) {
      for (const auto& [row, coef] : columns[k]) basis_matrix(row, k) += coef;
    }
    common::LuFactorization lu(std::move(basis_matrix));
    if (!lu.ok()) return false;
    binv_ = lu.inverse();
    return true;
  }

  void reset_diagonal(const std::vector<double>& diag) {
    binv_ = common::Matrix(m_, m_);
    for (int i = 0; i < m_; ++i) binv_(i, i) = 1.0 / diag[i];
  }

  void ftran_dense(const std::vector<double>& rhs,
                   std::vector<double>& x) const {
    x.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const double* row = binv_.row(i);
      double v = 0.0;
      for (int k = 0; k < m_; ++k) v += row[k] * rhs[k];
      x[i] = v;
    }
  }

  void btran_dense(const std::vector<double>& c,
                   std::vector<double>& y) const {
    y.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      if (c[i] == 0.0) continue;
      const double* row = binv_.row(i);
      for (int k = 0; k < m_; ++k) y[k] += c[i] * row[k];
    }
  }

  void btran_unit(int r, std::vector<double>& rho) const {
    rho.assign(m_, 0.0);
    const double* row = binv_.row(r);
    for (int k = 0; k < m_; ++k) rho[k] = row[k];
  }

  bool update(const std::vector<double>& d, int r) {
    const double pivot = d[r];
    if (std::abs(pivot) <= 1e-12) return false;
    double* prow = binv_.row(r);
    const double inv_pivot = 1.0 / pivot;
    for (int k = 0; k < m_; ++k) prow[k] *= inv_pivot;
    for (int i = 0; i < m_; ++i) {
      if (i == r || d[i] == 0.0) continue;
      double* row = binv_.row(i);
      const double factor = d[i];
      for (int k = 0; k < m_; ++k) row[k] -= factor * prow[k];
    }
    return true;
  }

 private:
  int m_;
  common::Matrix binv_;
};

/// max_i |got_i - want_i| / max(1, max_i |want_i|).
double relative_deviation(const std::vector<double>& got,
                          const std::vector<double>& want) {
  double scale = 1.0, dev = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::abs(want[i]));
    dev = std::max(dev, std::abs(got[i] - want[i]));
  }
  return dev / scale;
}

/// FTRAN of a random rhs, BTRAN of a random cost vector and BTRAN of every
/// unit vector, through both representations.  Returns the worst deviation.
double compare_solves(const LuFactor& lu, const DenseInverse& dense, int m,
                      common::Rng& rng) {
  std::vector<double> b(m), c(m);
  for (int i = 0; i < m; ++i) {
    b[i] = rng.uniform(-3.0, 3.0);
    c[i] = rng.bernoulli(0.5) ? rng.uniform(-2.0, 2.0) : 0.0;
  }
  std::vector<double> x = b, x_ref;
  lu.ftran(x);
  dense.ftran_dense(b, x_ref);
  std::vector<double> y = c, y_ref;
  lu.btran(y);
  dense.btran_dense(c, y_ref);
  double worst = std::max(relative_deviation(x, x_ref),
                          relative_deviation(y, y_ref));
  for (int r = 0; r < m; ++r) {
    std::vector<double> rho(m, 0.0), rho_ref;
    rho[r] = 1.0;
    lu.btran(rho);
    dense.btran_unit(r, rho_ref);
    worst = std::max(worst, relative_deviation(rho, rho_ref));
  }
  return worst;
}

TEST(LuFactor, EtaChainMatchesDenseInverse) {
  // Seeded pivot chains as the simplex runs them: start from the crash's
  // diagonal basis or a factorized random one, then let random sparse
  // columns enter at well-conditioned positions, refactorizing at random
  // steps.  Both representations take the same pivots, each with the
  // direction its own FTRAN computed, and every solve must agree to 1e-9.
  // Now and then a tiny pivot is offered first: both must refuse it.
  common::Rng rng(20261020);
  int pivots = 0, refactorizations = 0, refusals = 0;
  double worst = 0.0;
  for (int chain = 0; chain < 60; ++chain) {
    const int m = static_cast<int>(rng.uniform_int(3, 40));
    LuFactor lu;
    DenseInverse dense(m);
    std::vector<Column> cols(m);
    if (chain % 2 == 0) {
      std::vector<double> diag(m);
      for (int i = 0; i < m; ++i) {
        diag[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
        cols[i] = {{i, diag[i]}};
      }
      lu.reset_diagonal(diag);
      dense.reset_diagonal(diag);
    } else {
      do {
        cols = random_basis(rng, m, 2);
      } while (!lu.factorize(m, spans(cols)));
      ASSERT_TRUE(dense.refactorize(spans(cols))) << "chain " << chain;
    }
    const int steps = static_cast<int>(rng.uniform_int(1, 3 * m));
    for (int step = 0; step < steps; ++step) {
      Column a;
      const int nnz = static_cast<int>(rng.uniform_int(1, 4));
      std::vector<double> a_dense(m, 0.0);
      for (int t = 0; t < nnz; ++t) {
        const int row = static_cast<int>(rng.uniform_int(0, m - 1));
        const double v = rng.uniform(0.2, 2.0) * (rng.bernoulli(0.5) ? 1 : -1);
        a.emplace_back(row, v);
        a_dense[row] += v;
      }
      std::vector<double> d = a_dense, d_ref;
      lu.ftran(d);
      dense.ftran_dense(a_dense, d_ref);
      const double dev = relative_deviation(d, d_ref);
      EXPECT_LE(dev, 1e-9) << "chain " << chain << " step " << step;
      worst = std::max(worst, dev);

      // Leave at a random position whose pivot is at least half the
      // largest, so the chain stays well conditioned.
      double dmax = 0.0;
      for (const double v : d) dmax = std::max(dmax, std::abs(v));
      if (dmax < 1e-6) continue;
      std::vector<int> eligible;
      for (int i = 0; i < m; ++i) {
        if (std::abs(d[i]) >= 0.5 * dmax) eligible.push_back(i);
      }
      const int r = eligible[rng.uniform_index(eligible.size())];

      if (rng.bernoulli(0.2)) {
        const double tiny[] = {1e-12, -1e-12, 5e-13, 0.0};
        std::vector<double> t = d, t_ref = d_ref;
        t[r] = t_ref[r] = tiny[rng.uniform_index(4)];
        EXPECT_FALSE(lu.push_eta(t, r)) << t[r];
        EXPECT_FALSE(dense.update(t_ref, r)) << t[r];
        // Just above the floor both accept; tried on copies, since a
        // pivot that small would ruin the chain.
        t[r] = t_ref[r] = 2e-12;
        LuFactor lu_copy = lu;
        DenseInverse dense_copy = dense;
        EXPECT_TRUE(lu_copy.push_eta(t, r));
        EXPECT_TRUE(dense_copy.update(t_ref, r));
        ++refusals;
      }
      ASSERT_TRUE(lu.push_eta(d, r)) << "chain " << chain << " step " << step;
      ASSERT_TRUE(dense.update(d_ref, r));
      cols[r] = a;
      ++pivots;
      if (rng.bernoulli(0.1)) {
        ASSERT_TRUE(lu.factorize(m, spans(cols))) << "chain " << chain;
        ASSERT_TRUE(dense.refactorize(spans(cols))) << "chain " << chain;
        EXPECT_EQ(lu.eta_count(), 0);
        ++refactorizations;
      }
      const double solves = compare_solves(lu, dense, m, rng);
      EXPECT_LE(solves, 1e-9) << "chain " << chain << " step " << step;
      worst = std::max(worst, solves);
    }
  }
  EXPECT_GT(pivots, 1000);
  EXPECT_GT(refactorizations, 50);
  EXPECT_GT(refusals, 100);
  EXPECT_LE(worst, 1e-9);
}

TEST(LuFactor, ResetDiagonalSolvesExactly) {
  LuFactor lu;
  // A stale factorization with an eta, which the reset must discard.
  ASSERT_TRUE(lu.factorize(2, spans({{{0, 1.0}, {1, 3.0}}, {{1, 2.0}}})));
  ASSERT_TRUE(lu.push_eta({1.0, 0.5}, 0));
  const std::vector<double> diag = {2.0, -4.0, 0.5, 3.0, -0.1, 1.0};
  lu.reset_diagonal(diag);
  EXPECT_TRUE(lu.ok());
  EXPECT_EQ(lu.dimension(), 6);
  EXPECT_EQ(lu.eta_count(), 0);
  const std::vector<double> b = {1.0, 3.0, -0.7, 0.0, 2.5, 1e-300};
  std::vector<double> want(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) want[i] = b[i] / diag[i];
  std::vector<double> x = b, y = b;
  lu.ftran(x);
  lu.btran(y);
  EXPECT_TRUE(same_bits(x, want));
  EXPECT_TRUE(same_bits(y, want));
}

}  // namespace
}  // namespace mmwave::lp
