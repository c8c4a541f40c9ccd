#include "ml/cross_validation.h"

namespace mapp::ml {

double
CrossValidationResult::meanRelativeError() const
{
    if (folds.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto& fold : folds)
        acc += fold.meanRelativeError;
    return acc / static_cast<double>(folds.size());
}

}  // namespace mapp::ml
