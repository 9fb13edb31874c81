#ifndef UMVSC_TESTS_TEST_UTIL_H_
#define UMVSC_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "la/qr.h"

namespace umvsc::test {

/// Random symmetric matrix with entries of magnitude ~1.
inline la::Matrix RandomSymmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix a = la::Matrix::RandomGaussian(n, n, rng);
  a.Symmetrize();
  return a;
}

/// Random symmetric positive-definite matrix A = GᵀG + n·ε·I.
inline la::Matrix RandomSpd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix g = la::Matrix::RandomGaussian(n, n, rng);
  la::Matrix a = la::Gram(g);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1e-3 * static_cast<double>(n);
  return a;
}

/// Random matrix with orthonormal columns (rows >= cols).
inline la::Matrix RandomOrthonormal(std::size_t rows, std::size_t cols,
                                    std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix g = la::Matrix::RandomGaussian(rows, cols, rng);
  return la::Orthonormalize(g);
}

/// Symmetric matrix with a prescribed spectrum: V·diag(evals)·Vᵀ for a
/// random orthogonal V. The gold standard for eigensolver tests.
inline la::Matrix SymmetricWithSpectrum(const la::Vector& evals,
                                        std::uint64_t seed) {
  const std::size_t n = evals.size();
  la::Matrix v = RandomOrthonormal(n, n, seed);
  la::Matrix vd = v;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) vd(i, j) *= evals[j];
  }
  return la::MatMulT(vd, v);
}

/// The discrete indicator held as labels is well formed: one label per
/// row, every label in [0, c), and no cluster left empty.
inline void ExpectValidLabels(const std::vector<std::size_t>& labels,
                              std::size_t n, std::size_t c) {
  ASSERT_EQ(labels.size(), n);
  std::vector<std::size_t> counts(c, 0);
  for (std::size_t label : labels) {
    ASSERT_LT(label, c);
    ++counts[label];
  }
  for (std::size_t j = 0; j < c; ++j) {
    EXPECT_GT(counts[j], 0u) << "cluster " << j << " is empty";
  }
}

}  // namespace umvsc::test

#endif  // UMVSC_TESTS_TEST_UTIL_H_
