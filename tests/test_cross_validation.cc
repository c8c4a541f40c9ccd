/**
 * @file Tests for the cross-validation result aggregate. The LOOCV
 * driver itself (predictor::MultiAppPredictor::looBenchmarkCv) is
 * tested in test_predictor and pinned by test_golden.
 */

#include <gtest/gtest.h>

#include "ml/cross_validation.h"

namespace {

using namespace mapp::ml;

TEST(CrossValidation, MeanAggregatesFolds)
{
    CrossValidationResult r;
    r.folds.push_back({"a", 10.0, 0.0, 1});
    r.folds.push_back({"b", 30.0, 0.0, 1});
    EXPECT_DOUBLE_EQ(r.meanRelativeError(), 20.0);
}

TEST(CrossValidation, EmptyResultMeanIsZero)
{
    CrossValidationResult r;
    EXPECT_DOUBLE_EQ(r.meanRelativeError(), 0.0);
}

}  // namespace
