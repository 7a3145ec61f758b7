#include "support/matrix.h"

#include <algorithm>
#include <cmath>

namespace mmwave::common {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    assert(r.size() == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* rrow = rhs.row(k);
      double* orow = out.row(i);
      for (std::size_t j = 0; j < rhs.cols_; ++j) orow[j] += aik * rrow[j];
    }
  }
  return out;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
  assert(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* arow = row(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += arow[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  assert(lu_.rows() == lu_.cols());
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude entry on/below the diagonal.
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      ok_ = false;
      return;
    }
    if (pivot != col) {
      std::swap(piv_[pivot], piv_[col]);
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(pivot, c), lu_(col, c));
    }
    const double inv_diag = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) * inv_diag;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(col, c);
    }
  }
  ok_ = true;
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  assert(ok_);
  const std::size_t n = lu_.rows();
  assert(b.size() == n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv_[i]];
  // Forward substitution with unit-lower L.
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

std::vector<double> LuFactorization::solve_transpose(
    const std::vector<double>& b) const {
  assert(ok_);
  const std::size_t n = lu_.rows();
  assert(b.size() == n);
  // Solve U^T y = b, then L^T z = y, then undo the permutation.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * y[j];
    y[i] = acc / lu_(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * y[j];
    y[ii] = acc;
  }
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[piv_[i]] = y[i];
  return x;
}

Matrix LuFactorization::inverse() const {
  assert(ok_);
  const std::size_t n = lu_.rows();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    std::vector<double> col = solve(e);
    e[c] = 0.0;
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  assert(a.size() == b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace mmwave::common
