#include "ml/svr.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace mapp::ml {

double
SvrRegressor::kernelPlusOne(std::span<const double> a,
                            std::span<const double> b) const
{
    // +1 folds the bias term into the kernel expansion.
    return kernel(a, b, params_.kernel) + 1.0;
}

void
SvrRegressor::fit(const Dataset& data)
{
    if (data.empty())
        fatal("SvrRegressor::fit: empty dataset");
    const std::size_t n = data.size();
    x_ = data.rows();
    beta_.assign(n, 0.0);

    // Precompute the (small) kernel matrix.
    std::vector<double> k(n * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j <= i; ++j) {
            const double v = kernelPlusOne(x_[i], x_[j]);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }

    // f_i = sum_j beta_j k_ij, maintained incrementally.
    std::vector<double> f(n, 0.0);

    for (int iter = 0; iter < params_.maxIterations; ++iter) {
        double maxDelta = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double kii = std::max(k[i * n + i], 1e-12);
            // Residual excluding beta_i's own contribution.
            const double r = data.target(i) - (f[i] - beta_[i] * kii);
            // Soft-threshold by epsilon, clip to the box.
            double next = 0.0;
            if (r > params_.epsilon)
                next = (r - params_.epsilon) / kii;
            else if (r < -params_.epsilon)
                next = (r + params_.epsilon) / kii;
            next = std::clamp(next, -params_.c, params_.c);

            const double delta = next - beta_[i];
            if (delta != 0.0) {
                for (std::size_t j = 0; j < n; ++j)
                    f[j] += delta * k[i * n + j];
                beta_[i] = next;
            }
            maxDelta = std::max(maxDelta, std::abs(delta));
        }
        if (maxDelta < params_.tol)
            break;
    }
}

double
SvrRegressor::predict(std::span<const double> x) const
{
    if (x_.empty())
        fatal("SvrRegressor::predict: model not trained");
    double acc = 0.0;
    for (std::size_t i = 0; i < x_.size(); ++i) {
        if (beta_[i] == 0.0)
            continue;
        acc += beta_[i] * kernelPlusOne(x_[i], x);
    }
    return acc;
}

std::vector<double>
SvrRegressor::predict(const Dataset& data) const
{
    std::vector<double> out;
    out.reserve(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        out.push_back(predict(data.row(i)));
    return out;
}

}  // namespace mapp::ml
