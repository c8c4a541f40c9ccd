/** @file Unit tests for the dense matrix and the Cholesky solver. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/matrix.h"

namespace {

using mapp::Matrix;
namespace linalg = mapp::linalg;

Matrix
fromRows(const std::vector<std::vector<double>>& rows)
{
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (std::size_t c = 0; c < rows[r].size(); ++c)
            m(r, c) = rows[r][c];
    return m;
}

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(Matrix(1, 1)(0, 0), 0.0);
}

TEST(Linalg, CholeskyFactorReconstructs)
{
    const Matrix a = fromRows({{4.0, 2.0}, {2.0, 3.0}});
    const Matrix l = linalg::cholesky(a);
    EXPECT_DOUBLE_EQ(l(0, 1), 0.0);  // lower triangular
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j) {
            double llt = 0.0;
            for (std::size_t k = 0; k < 2; ++k)
                llt += l(i, k) * l(j, k);
            EXPECT_NEAR(llt, a(i, j), 1e-12);
        }
}

TEST(Linalg, CholeskyRejectsIndefinite)
{
    // Eigenvalues 3 and -1.
    const Matrix a = fromRows({{1.0, 2.0}, {2.0, 1.0}});
    EXPECT_THROW(linalg::cholesky(a), std::runtime_error);
}

TEST(Linalg, CholeskyRejectsNonSquare)
{
    EXPECT_THROW(linalg::cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Linalg, SolveSpdSatisfiesTheSystem)
{
    const Matrix a = fromRows(
        {{5.0, 2.0, 1.0}, {2.0, 6.0, 2.0}, {1.0, 2.0, 7.0}});
    const std::vector<double> b{1.0, 2.0, 3.0};
    const auto x = linalg::solveSpd(a, b);
    ASSERT_EQ(x.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        double ax = 0.0;
        for (std::size_t j = 0; j < 3; ++j)
            ax += a(i, j) * x[j];
        EXPECT_NEAR(ax, b[i], 1e-12);
    }
}

}  // namespace
