#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace mapp::stats {

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
}

double
minimum(std::span<const double> xs)
{
    double best = std::numeric_limits<double>::infinity();
    for (double x : xs)
        best = std::min(best, x);
    return best;
}

double
maximum(std::span<const double> xs)
{
    double best = -std::numeric_limits<double>::infinity();
    for (double x : xs)
        best = std::max(best, x);
    return best;
}

double
pearson(std::span<const double> xs, std::span<const double> ys)
{
    const std::size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return 0.0;
    const double mx = mean(xs.subspan(0, n));
    const double my = mean(ys.subspan(0, n));
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

std::vector<double>
ranks(std::span<const double> xs)
{
    const std::size_t n = xs.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

    std::vector<double> out(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && xs[order[j + 1]] == xs[order[i]])
            ++j;
        // Average rank for the tie group [i, j].
        const double avg = (static_cast<double>(i) +
                            static_cast<double>(j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            out[order[k]] = avg;
        i = j + 1;
    }
    return out;
}

double
spearman(std::span<const double> xs, std::span<const double> ys)
{
    const std::size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return 0.0;
    const auto rx = ranks(xs.subspan(0, n));
    const auto ry = ranks(ys.subspan(0, n));
    return pearson(rx, ry);
}

}  // namespace mapp::stats
