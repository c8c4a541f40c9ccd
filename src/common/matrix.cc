#include "common/matrix.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mapp {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

double&
Matrix::operator()(std::size_t r, std::size_t c)
{
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
}

namespace linalg {

Matrix
cholesky(const Matrix& a)
{
    const std::size_t n = a.rows();
    if (a.cols() != n)
        throw std::invalid_argument("cholesky: need square matrix");
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l(i, k) * l(j, k);
            if (i == j) {
                if (acc <= 0.0)
                    throw std::runtime_error(
                        "cholesky: matrix not positive definite");
                l(i, j) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }
    return l;
}

std::vector<double>
solveSpd(const Matrix& a, const std::vector<double>& b)
{
    const Matrix l = cholesky(a);
    const std::size_t n = a.rows();
    // Forward substitution: L y = b.
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= l(i, k) * y[k];
        y[i] = acc / l(i, i);
    }
    // Back substitution: L^T x = y.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = y[i];
        for (std::size_t k = i + 1; k < n; ++k)
            acc -= l(k, i) * x[k];
        x[i] = acc / l(i, i);
    }
    return x;
}

}  // namespace linalg

}  // namespace mapp
