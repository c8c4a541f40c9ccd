/**
 * @file
 * Cross-validation result types. The paper's LOOCV (Figure 4, Section
 * V-D.1) holds out every bag that involves the left-out benchmark; its
 * one driver is predictor::MultiAppPredictor::looBenchmarkCv, which
 * returns one FoldResult per benchmark.
 */

#ifndef MAPP_ML_CROSS_VALIDATION_H
#define MAPP_ML_CROSS_VALIDATION_H

#include <cstddef>
#include <string>
#include <vector>

namespace mapp::ml {

/** Errors of one cross-validation fold. */
struct FoldResult
{
    std::string label;          ///< the left-out benchmark
    double meanRelativeError = 0.0;  ///< percent
    double mse = 0.0;
    std::size_t testPoints = 0;
};

/** Aggregate cross-validation outcome. */
struct CrossValidationResult
{
    std::vector<FoldResult> folds;

    /** Unweighted mean of the folds' relative errors (percent). */
    double meanRelativeError() const;
};

}  // namespace mapp::ml

#endif  // MAPP_ML_CROSS_VALIDATION_H
