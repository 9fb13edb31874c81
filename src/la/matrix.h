#ifndef UMVSC_LA_MATRIX_H_
#define UMVSC_LA_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "la/vector.h"

namespace umvsc {
class Rng;
}  // namespace umvsc

namespace umvsc::la {

/// Dense double-precision matrix, row-major contiguous storage.
///
/// The workhorse type of the library: spectral embeddings, kernels, and
/// indicator matrices are all Matrix values. Copy is deep; move is O(1).
class Matrix {
 public:
  Matrix() = default;
  /// Zero matrix of shape rows × cols.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// Constant matrix of shape rows × cols.
  Matrix(std::size_t rows, std::size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}
  /// Row-of-rows construction, mainly for tests:
  /// `Matrix m{{1, 2}, {3, 4}};`. All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// n × n identity.
  static Matrix Identity(std::size_t n);
  /// Square matrix with `d` on the diagonal.
  static Matrix Diagonal(const Vector& d);
  /// i.i.d. U(lo, hi) entries drawn from `rng`.
  static Matrix RandomUniform(std::size_t rows, std::size_t cols, Rng& rng,
                              double lo = 0.0, double hi = 1.0);
  /// i.i.d. N(0, 1) entries drawn from `rng`.
  static Matrix RandomGaussian(std::size_t rows, std::size_t cols, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator()(std::size_t i, std::size_t j) const {
    UMVSC_DCHECK(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }
  double& operator()(std::size_t i, std::size_t j) {
    UMVSC_DCHECK(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  /// Pointer to the first element of row i.
  const double* RowPtr(std::size_t i) const { return data_.data() + i * cols_; }
  double* RowPtr(std::size_t i) { return data_.data() + i * cols_; }

  /// Copy of row i as a Vector.
  Vector Row(std::size_t i) const;
  /// Copy of column j as a Vector.
  Vector Col(std::size_t j) const;
  /// Overwrites row i. Requires v.size() == cols().
  void SetRow(std::size_t i, const Vector& v);
  /// Overwrites column j. Requires v.size() == rows().
  void SetCol(std::size_t j, const Vector& v);
  /// Copy of the main diagonal (length min(rows, cols)).
  Vector Diag() const;

  /// Copy of the contiguous block starting at (r0, c0) of shape nr × nc.
  Matrix Block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;
  /// Copy of the first `k` columns.
  Matrix LeftCols(std::size_t k) const { return Block(0, 0, rows_, k); }

  void Fill(double value);
  /// In-place scaling: this *= alpha.
  void Scale(double alpha);
  /// In-place sum: this += alpha * other. Requires matching shapes.
  void Add(const Matrix& other, double alpha = 1.0);
  /// In-place symmetrization: this = (this + thisᵀ)/2. Requires square.
  void Symmetrize();

  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// Largest absolute entry (0 for empty).
  double MaxAbs() const;
  /// Sum of diagonal entries. Requires square.
  double Trace() const;

  bool IsSquare() const { return rows_ == cols_; }
  /// True when ‖A − Aᵀ‖_max <= tol. Requires square.
  bool IsSymmetric(double tol = 1e-12) const;

  /// Multi-line human-readable rendering (for logs and test failures).
  std::string ToString(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The overflow-safe running sum of squares behind Matrix::FrobeniusNorm
/// (LAPACK dnrm2's scaled recurrence). A pass that never materializes a
/// matrix feeds it the entries in row-major order and gets the bits
/// FrobeniusNorm would return for that matrix.
class ScaledSumOfSquares {
 public:
  void Add(double x) {
    if (x == 0.0) return;
    const double ax = std::fabs(x);
    if (scale_ < ax) {
      ssq_ = 1.0 + ssq_ * (scale_ / ax) * (scale_ / ax);
      scale_ = ax;
    } else {
      ssq_ += (ax / scale_) * (ax / scale_);
    }
  }
  /// √(Σ x²) over the entries added so far.
  double Norm() const { return scale_ * std::sqrt(ssq_); }

 private:
  double scale_ = 0.0;
  double ssq_ = 1.0;
};

/// True when shapes match and ‖A − B‖_max <= tol.
bool AlmostEqual(const Matrix& a, const Matrix& b, double tol);

}  // namespace umvsc::la

#endif  // UMVSC_LA_MATRIX_H_
