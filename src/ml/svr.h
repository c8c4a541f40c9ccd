/**
 * @file
 * Epsilon-insensitive support vector regression, solved by cyclic
 * coordinate descent on the dual difference variables beta_i =
 * alpha_i - alpha*_i in [-C, C], with the bias folded into the kernel
 * (k' = k + 1). Predictions are kernel expansions over the support
 * vectors. This is the competing regressor the paper found ~10x less
 * accurate than the decision tree on its sparse dataset (Section V-D).
 */

#ifndef MAPP_ML_SVR_H
#define MAPP_ML_SVR_H

#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/kernels.h"

namespace mapp::ml {

/** SVR hyper-parameters. */
struct SvrParams
{
    double c = 10.0;         ///< box constraint
    double epsilon = 0.01;   ///< insensitive-tube half width
    int maxIterations = 500; ///< coordinate-descent sweeps
    double tol = 1e-5;       ///< max coordinate change to stop
    KernelParams kernel;
};

/** Epsilon-SVR regressor. */
class SvrRegressor
{
  public:
    explicit SvrRegressor(SvrParams params = {}) : params_(params) {}

    /** Fit to a dataset. @throws FatalError on empty data. */
    void fit(const Dataset& data);

    /** Predict one sample. */
    double predict(std::span<const double> x) const;

    /** Predict all rows. */
    std::vector<double> predict(const Dataset& data) const;

    bool trained() const { return !x_.empty(); }

  private:
    double kernelPlusOne(std::span<const double> a,
                         std::span<const double> b) const;

    SvrParams params_;
    std::vector<std::vector<double>> x_;  ///< training samples
    std::vector<double> beta_;            ///< dual coefficients
};

}  // namespace mapp::ml

#endif  // MAPP_ML_SVR_H
