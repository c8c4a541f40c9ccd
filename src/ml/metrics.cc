#include "ml/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/stats.h"

namespace mapp::ml {

namespace {

void
requireFinite(std::span<const double> truth,
              std::span<const double> predicted, std::size_t n,
              const char* where)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (!std::isfinite(truth[i]) || !std::isfinite(predicted[i]))
            fatal(std::string(where) + ": non-finite value at index " +
                  std::to_string(i));
    }
}

/** Sum of (t[i]-p[i])^2 over the first @p n elements, in order. */
double
sumSquaredDiff(std::span<const double> truth,
               std::span<const double> predicted, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = truth[i] - predicted[i];
        acc += d * d;
    }
    return acc;
}

}  // namespace

double
meanSquaredError(std::span<const double> truth,
                 std::span<const double> predicted)
{
    const std::size_t n = std::min(truth.size(), predicted.size());
    if (n == 0)
        return 0.0;
    requireFinite(truth, predicted, n, "ml::meanSquaredError");
    return sumSquaredDiff(truth, predicted, n) / static_cast<double>(n);
}

double
relativeErrorPercent(double truth, double predicted)
{
    if (!std::isfinite(truth) || !std::isfinite(predicted))
        fatal("ml::relativeErrorPercent: non-finite input");
    const double denom = std::abs(truth) > 1e-300 ? std::abs(truth) : 1e-300;
    return std::abs(truth - predicted) / denom * 100.0;
}

double
meanRelativeErrorPercent(std::span<const double> truth,
                         std::span<const double> predicted)
{
    const std::size_t n = std::min(truth.size(), predicted.size());
    if (n == 0)
        return 0.0;
    requireFinite(truth, predicted, n, "ml::meanRelativeErrorPercent");
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += relativeErrorPercent(truth[i], predicted[i]);
    return acc / static_cast<double>(n);
}

double
r2Score(std::span<const double> truth, std::span<const double> predicted)
{
    const std::size_t n = std::min(truth.size(), predicted.size());
    if (n == 0)
        return 0.0;
    requireFinite(truth, predicted, n, "ml::r2Score");
    const double mean = stats::mean(truth.subspan(0, n));
    const double ssRes = sumSquaredDiff(truth, predicted, n);
    double ssTot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = truth[i] - mean;
        ssTot += d * d;
    }
    if (ssTot <= 0.0)
        return ssRes <= 0.0 ? 1.0 : 0.0;
    return 1.0 - ssRes / ssTot;
}

}  // namespace mapp::ml
