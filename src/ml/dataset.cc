#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.h"

namespace mapp::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : names_(std::move(feature_names))
{
}

void
Dataset::addRow(std::vector<double> features, double target,
                std::string group)
{
    if (features.size() != names_.size())
        fatal("Dataset::addRow: feature count mismatch");
    for (std::size_t f = 0; f < features.size(); ++f) {
        if (!std::isfinite(features[f]))
            fatal("Dataset::addRow: non-finite value for feature '" +
                  names_[f] + "'");
    }
    if (!std::isfinite(target))
        fatal("Dataset::addRow: non-finite target");
    rows_.push_back(std::move(features));
    targets_.push_back(target);
    groups_.push_back(std::move(group));
}

std::vector<double>
Dataset::toRowMajor() const
{
    std::vector<double> flat;
    flat.reserve(rows_.size() * names_.size());
    for (const auto& row : rows_)
        flat.insert(flat.end(), row.begin(), row.end());
    return flat;
}

int
Dataset::featureIndex(const std::string& name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<int>(i);
    return -1;
}

std::vector<double>
Dataset::column(std::size_t feature) const
{
    std::vector<double> out;
    out.reserve(rows_.size());
    for (const auto& row : rows_)
        out.push_back(row[feature]);
    return out;
}

Dataset
Dataset::selectFeatures(const std::vector<std::string>& names) const
{
    std::vector<std::size_t> cols;
    cols.reserve(names.size());
    for (const auto& name : names) {
        const int idx = featureIndex(name);
        if (idx < 0)
            fatal("Dataset::selectFeatures: unknown feature " + name);
        cols.push_back(static_cast<std::size_t>(idx));
    }

    Dataset out(names);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        std::vector<double> row;
        row.reserve(cols.size());
        for (std::size_t c : cols)
            row.push_back(rows_[r][c]);
        out.addRow(std::move(row), targets_[r], groups_[r]);
    }
    return out;
}

Dataset
Dataset::subset(const std::vector<std::size_t>& indices) const
{
    Dataset out(names_);
    for (std::size_t i : indices) {
        if (i >= size())
            fatal("Dataset::subset: index out of range");
        out.addRow(rows_[i], targets_[i], groups_[i]);
    }
    return out;
}

}  // namespace mapp::ml
