#include "predictor/features.h"

#include <algorithm>

#include "common/log.h"

namespace mapp::predictor {

std::vector<std::string>
baseFeatureNames()
{
    std::vector<std::string> names{"cpu_time", "gpu_time"};
    for (isa::InstClass c : isa::kAllInstClasses)
        names.push_back(isa::instClassName(c));
    return names;
}

std::vector<std::string>
bagFeatureNames()
{
    std::vector<std::string> names;
    for (int slot = 0; slot < kBagSize; ++slot)
        for (const auto& base : baseFeatureNames())
            names.push_back("a" + std::to_string(slot) + "_" + base);
    names.push_back("fairness");
    return names;
}

std::string
baseNameOf(const std::string& bag_feature)
{
    if (bag_feature.size() > 3 && bag_feature[0] == 'a' &&
        bag_feature[2] == '_' && bag_feature[1] >= '0' &&
        bag_feature[1] <= '9') {
        return bag_feature.substr(3);
    }
    return bag_feature;
}

std::vector<double>
buildBagVector(const AppFeatures& a, const AppFeatures& b, double fairness)
{
    auto appendBlock = [](std::vector<double>& out, const AppFeatures& f) {
        out.push_back(f.cpuTime);
        out.push_back(f.gpuTime);
        for (isa::InstClass c : isa::kAllInstClasses)
            out.push_back(f.mixPercent[static_cast<std::size_t>(c)]);
    };
    std::vector<double> out;
    out.reserve(bagFeatureNames().size());
    appendBlock(out, a);
    appendBlock(out, b);
    out.push_back(fairness);
    return out;
}

bool
RangeNormalizer::isTimeFeature(const std::string& name)
{
    const std::string base = baseNameOf(name);
    return base == "cpu_time" || base == "gpu_time";
}

void
RangeNormalizer::fit(const ml::Dataset& train)
{
    double lo = 0.0;
    double hi = 0.0;
    bool seen = false;
    for (std::size_t f = 0; f < train.numFeatures(); ++f) {
        if (baseNameOf(train.featureNames()[f]) != "cpu_time")
            continue;
        for (double v : train.column(f)) {
            if (!seen) {
                lo = v;
                hi = v;
                seen = true;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        }
    }
    scale_ = (seen && hi > lo) ? hi - lo : 1.0;
}

ml::Dataset
RangeNormalizer::apply(const ml::Dataset& data) const
{
    ml::Dataset out(data.featureNames());
    for (std::size_t r = 0; r < data.size(); ++r) {
        std::vector<double> row = data.row(r);
        for (std::size_t f = 0; f < row.size(); ++f)
            if (isTimeFeature(data.featureNames()[f]))
                row[f] /= scale_;
        out.addRow(std::move(row), data.target(r) / scale_, data.group(r));
    }
    return out;
}

std::vector<char>
RangeNormalizer::timeFeatureMask(const std::vector<std::string>& names)
{
    std::vector<char> mask(names.size(), 0);
    for (std::size_t f = 0; f < names.size(); ++f)
        mask[f] = isTimeFeature(names[f]) ? 1 : 0;
    return mask;
}

void
RangeNormalizer::applyBatchInPlace(std::span<double> rowMajor,
                                   const std::vector<char>& time_mask) const
{
    const std::size_t nFeatures = time_mask.size();
    if (nFeatures == 0) {
        if (!rowMajor.empty())
            fatal("RangeNormalizer::applyBatchInPlace: non-empty batch "
                  "with an empty layout");
        return;
    }
    if (rowMajor.size() % nFeatures != 0)
        fatal("RangeNormalizer::applyBatchInPlace: buffer is not a "
              "whole number of rows");
    // Expand the mask into a per-feature divisor vector: `scale` for
    // time features, exactly 1.0 for the rest. IEEE division by 1.0 is
    // the identity, so the branch-free divide matches the masked
    // divide bit for bit.
    std::vector<double> divisors(nFeatures, 1.0);
    for (std::size_t f = 0; f < nFeatures; ++f)
        if (time_mask[f])
            divisors[f] = scale_;
    for (std::size_t base = 0; base < rowMajor.size(); base += nFeatures)
        for (std::size_t f = 0; f < nFeatures; ++f)
            rowMajor[base + f] /= divisors[f];
}

void
RangeNormalizer::denormalizeInPlace(std::span<double> values) const
{
    for (double& v : values)
        v *= scale_;
}

}  // namespace mapp::predictor
