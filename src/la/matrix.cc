#include "la/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "la/gemm_kernel.h"

namespace umvsc::la {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    UMVSC_CHECK(row.size() == cols_, "ragged initializer list for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::RandomUniform(std::size_t rows, std::size_t cols, Rng& rng,
                             double lo, double hi) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomGaussian(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng.Gaussian();
  return m;
}

Vector Matrix::Row(std::size_t i) const {
  UMVSC_CHECK(i < rows_, "row index out of range");
  Vector v(cols_);
  const double* src = RowPtr(i);
  std::copy(src, src + cols_, v.data());
  return v;
}

Vector Matrix::Col(std::size_t j) const {
  UMVSC_CHECK(j < cols_, "column index out of range");
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

void Matrix::SetRow(std::size_t i, const Vector& v) {
  UMVSC_CHECK(i < rows_, "row index out of range");
  UMVSC_CHECK(v.size() == cols_, "SetRow dimension mismatch");
  std::copy(v.data(), v.data() + cols_, RowPtr(i));
}

void Matrix::SetCol(std::size_t j, const Vector& v) {
  UMVSC_CHECK(j < cols_, "column index out of range");
  UMVSC_CHECK(v.size() == rows_, "SetCol dimension mismatch");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Vector Matrix::Diag() const {
  std::size_t n = std::min(rows_, cols_);
  Vector d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = (*this)(i, i);
  return d;
}

Matrix Matrix::Block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  UMVSC_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_, "block out of range");
  Matrix out(nr, nc);
  for (std::size_t i = 0; i < nr; ++i) {
    const double* src = RowPtr(r0 + i) + c0;
    std::copy(src, src + nc, out.RowPtr(i));
  }
  return out;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Scale(double alpha) {
  for (double& x : data_) x *= alpha;
}

void Matrix::Add(const Matrix& other, double alpha) {
  UMVSC_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
              "Matrix::Add shape mismatch");
  // Flat vectorized axpy; per-element arithmetic is unchanged (one unfused
  // mul/add each), so the parallel spans are value-neutral.
  ParallelFor(0, data_.size(), 4096, [&](std::size_t lo, std::size_t hi) {
    kernel::Axpy(alpha, other.data_.data() + lo, data_.data() + lo, hi - lo);
  });
}

void Matrix::Symmetrize() {
  UMVSC_CHECK(IsSquare(), "Symmetrize requires a square matrix");
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      double avg = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = avg;
      (*this)(j, i) = avg;
    }
  }
}

double Matrix::FrobeniusNorm() const {
  ScaledSumOfSquares sum;
  for (double x : data_) sum.Add(x);
  return sum.Norm();
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Matrix::Trace() const {
  UMVSC_CHECK(IsSquare(), "Trace requires a square matrix");
  double t = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

bool Matrix::IsSymmetric(double tol) const {
  if (!IsSquare()) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::string out = StrFormat("Matrix %zu x %zu\n", rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    out += "  [";
    for (std::size_t j = 0; j < cols_; ++j) {
      out += StrFormat("%s%.*f", j == 0 ? "" : ", ", precision, (*this)(i, j));
    }
    out += "]\n";
  }
  return out;
}

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

}  // namespace umvsc::la
