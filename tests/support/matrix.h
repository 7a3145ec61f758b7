// Small dense linear-algebra kernel for the tests: the reference the LP
// basis factorization (tests/lp/lu_factor_test.cpp) and the power-control
// kernel (tests/mmwave/power_control_test.cpp) are checked against.
// Row-major, double precision, bounds-checked in debug builds.  This is
// deliberately a minimal kernel: mat-vec, LU solves, and inverses of modest
// matrices.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace mmwave::common {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from a nested initializer list; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw pointer to row r (contiguous, cols() entries).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  Matrix transpose() const;

  Matrix operator*(const Matrix& rhs) const;
  std::vector<double> operator*(const std::vector<double>& v) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Maximum absolute entry; 0 for an empty matrix.
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting.  Factor once, solve many.
class LuFactorization {
 public:
  /// Factors `a` (must be square).  Check ok() before solving.
  explicit LuFactorization(Matrix a);

  /// False if the matrix was numerically singular.
  bool ok() const { return ok_; }

  /// Solves A x = b.  Requires ok().
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves A^T x = b.  Requires ok().
  std::vector<double> solve_transpose(const std::vector<double>& b) const;

  /// Inverse of A (column-by-column solves).  Requires ok().
  Matrix inverse() const;

 private:
  Matrix lu_;                    // packed L (unit diagonal) and U
  std::vector<std::size_t> piv_; // row permutation
  bool ok_ = false;
};

/// Dot product; asserts equal sizes.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double norm2(const std::vector<double>& v);

/// Max |a_i - b_i|.
double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace mmwave::common
