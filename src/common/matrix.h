/**
 * @file
 * A small dense matrix and the Cholesky solver that ridge-regularized
 * least squares (ml::LinearRegression) needs. Intentionally simple
 * rather than tuned; matrices in this project are tiny (tens of
 * rows/columns).
 */

#ifndef MAPP_COMMON_MATRIX_H
#define MAPP_COMMON_MATRIX_H

#include <cstddef>
#include <vector>

namespace mapp {

/** A dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** A rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Element access (unchecked in release builds). */
    double& operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

namespace linalg {

/**
 * Cholesky factorization of a symmetric positive-definite matrix;
 * returns the lower-triangular factor L with A = L L^T.
 *
 * @throws std::runtime_error if A is not positive definite.
 */
Matrix cholesky(const Matrix& a);

/** Solve A x = b given A SPD, via Cholesky. */
std::vector<double> solveSpd(const Matrix& a, const std::vector<double>& b);

}  // namespace linalg

}  // namespace mapp

#endif  // MAPP_COMMON_MATRIX_H
