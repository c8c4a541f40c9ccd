/** @file Tests for linear regression, kernels, SVR and random forest. */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/log.h"
#include "common/rng.h"
#include "ml/kernels.h"
#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/svr.h"

namespace {

using namespace mapp;
using namespace mapp::ml;

Dataset
linearData(std::uint64_t seed, double noise = 0.0, int n = 40)
{
    // y = 2 x0 - 3 x1 + 1
    Rng rng(seed);
    Dataset d({"x0", "x1"});
    for (int i = 0; i < n; ++i) {
        const double a = rng.uniform(-1.0, 1.0);
        const double b = rng.uniform(-1.0, 1.0);
        d.addRow({a, b},
                 2.0 * a - 3.0 * b + 1.0 + noise * rng.normal(), "g");
    }
    return d;
}

TEST(LinearRegression, RecoversExactCoefficients)
{
    LinearRegression lr;
    lr.fit(linearData(1));
    ASSERT_EQ(lr.weights().size(), 2u);
    EXPECT_NEAR(lr.weights()[0], 2.0, 1e-6);
    EXPECT_NEAR(lr.weights()[1], -3.0, 1e-6);
    EXPECT_NEAR(lr.intercept(), 1.0, 1e-6);
}

TEST(LinearRegression, PredictMatchesModel)
{
    LinearRegression lr;
    lr.fit(linearData(2));
    EXPECT_NEAR(lr.predict(std::vector<double>{0.5, -0.5}),
                2.0 * 0.5 + 3.0 * 0.5 + 1.0, 1e-6);
}

TEST(LinearRegression, RobustToNoise)
{
    LinearRegression lr;
    lr.fit(linearData(3, 0.05, 200));
    EXPECT_NEAR(lr.weights()[0], 2.0, 0.05);
}

TEST(LinearRegression, EmptyFitIsFatal)
{
    LinearRegression lr;
    EXPECT_THROW(lr.fit(Dataset({"x"})), FatalError);
}

TEST(LinearRegression, PredictBeforeFitIsFatal)
{
    LinearRegression lr;
    EXPECT_THROW(lr.predict(std::vector<double>{1.0}), FatalError);
}

TEST(Kernels, LinearIsDotProduct)
{
    KernelParams k;
    k.type = KernelType::Linear;
    const std::vector<double> a{1.0, 2.0};
    const std::vector<double> b{3.0, 4.0};
    EXPECT_DOUBLE_EQ(kernel(a, b, k), 11.0);
}

TEST(Kernels, RbfSelfSimilarityIsOne)
{
    KernelParams k;
    k.type = KernelType::Rbf;
    const std::vector<double> a{1.0, -2.0, 0.5};
    EXPECT_DOUBLE_EQ(kernel(a, a, k), 1.0);
}

TEST(Kernels, RbfDecaysWithDistance)
{
    KernelParams k;
    k.type = KernelType::Rbf;
    k.gamma = 1.0;
    const std::vector<double> a{0.0};
    EXPECT_GT(kernel(a, std::vector<double>{0.5}, k),
              kernel(a, std::vector<double>{2.0}, k));
}

TEST(Kernels, PolynomialKnownValue)
{
    KernelParams k;
    k.type = KernelType::Polynomial;
    k.gamma = 1.0;
    k.coef0 = 1.0;
    k.degree = 2;
    const std::vector<double> a{1.0};
    const std::vector<double> b{2.0};
    EXPECT_DOUBLE_EQ(kernel(a, b, k), 9.0);  // (2 + 1)^2
}

TEST(Svr, FitsSmoothFunctionInRange)
{
    Rng rng(5);
    Dataset d({"x"});
    for (int i = 0; i < 60; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        d.addRow({x}, std::sin(2.0 * x), "g");
    }
    SvrParams params;
    params.kernel.gamma = 2.0;
    SvrRegressor svr(params);
    svr.fit(d);
    EXPECT_TRUE(svr.trained());
    double err = 0.0;
    for (double x : {-0.8, -0.3, 0.0, 0.4, 0.9})
        err += std::abs(svr.predict(std::vector<double>{x}) -
                        std::sin(2.0 * x));
    EXPECT_LT(err / 5.0, 0.08);
}

TEST(Svr, EpsilonTubeToleratesSmallResiduals)
{
    // With a wide tube, a constant-ish fit suffices and few SVs appear.
    Dataset d({"x"});
    for (int i = 0; i < 20; ++i)
        d.addRow({static_cast<double>(i)}, 5.0 + 0.001 * i, "g");
    SvrParams params;
    params.epsilon = 1.0;
    SvrRegressor svr(params);
    svr.fit(d);
    EXPECT_NEAR(svr.predict(std::vector<double>{10.0}), 5.0, 1.2);
}

TEST(Svr, EmptyFitIsFatal)
{
    SvrRegressor svr;
    EXPECT_THROW(svr.fit(Dataset({"x"})), FatalError);
}

TEST(Svr, PredictBeforeFitIsFatal)
{
    SvrRegressor svr;
    EXPECT_THROW(svr.predict(std::vector<double>{0.0}), FatalError);
}

TEST(RandomForest, AveragesTreesAndFitsSignal)
{
    Rng rng(9);
    Dataset d({"x"});
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        d.addRow({x}, x > 0.5 ? 2.0 : -2.0, "g");
    }
    RandomForestRegressor forest;
    forest.fit(d);
    EXPECT_EQ(forest.treeCount(), 30u);
    EXPECT_GT(forest.predict(std::vector<double>{0.9}), 1.0);
    EXPECT_LT(forest.predict(std::vector<double>{0.1}), -1.0);
}

TEST(RandomForest, DeterministicGivenSeed)
{
    const auto d = linearData(11);
    RandomForestParams params;
    params.seed = 123;
    RandomForestRegressor f1(params);
    RandomForestRegressor f2(params);
    f1.fit(d);
    f2.fit(d);
    const std::vector<double> x{0.3, -0.2};
    EXPECT_DOUBLE_EQ(f1.predict(x), f2.predict(x));
}

TEST(RandomForest, EmptyFitIsFatal)
{
    RandomForestRegressor forest;
    EXPECT_THROW(forest.fit(Dataset({"x"})), FatalError);
}

/** Parameterized: SVR beats a mean-only baseline across kernels. */
class SvrKernelProperty : public ::testing::TestWithParam<KernelType>
{
};

TEST_P(SvrKernelProperty, BeatsMeanBaseline)
{
    Rng rng(13);
    Dataset d({"x"});
    std::vector<double> targets;
    for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        const double y = 2.0 * x + 0.5;
        d.addRow({x}, y, "g");
        targets.push_back(y);
    }
    SvrParams params;
    params.kernel.type = GetParam();
    params.kernel.gamma = 1.0;
    SvrRegressor svr(params);
    svr.fit(d);

    const double meanTarget =
        std::accumulate(targets.begin(), targets.end(), 0.0) /
        static_cast<double>(targets.size());
    double svrErr = 0.0;
    double baseErr = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        svrErr += std::abs(svr.predict(d.row(i)) - d.target(i));
        baseErr += std::abs(meanTarget - d.target(i));
    }
    EXPECT_LT(svrErr, baseErr);
}

INSTANTIATE_TEST_SUITE_P(Kernels, SvrKernelProperty,
                         ::testing::Values(KernelType::Linear,
                                           KernelType::Rbf,
                                           KernelType::Polynomial));

}  // namespace
