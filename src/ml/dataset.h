/**
 * @file
 * The regression dataset abstraction: named feature columns, one target
 * column, and a group label per row (the benchmark bag that produced the
 * data point) used for group-aware leave-one-out cross-validation.
 */

#ifndef MAPP_ML_DATASET_H
#define MAPP_ML_DATASET_H

#include <string>
#include <vector>

#include "common/rng.h"

namespace mapp::ml {

/** A feature matrix + target vector + per-row group labels. */
class Dataset
{
  public:
    Dataset() = default;

    /** Create with the given feature column names. */
    explicit Dataset(std::vector<std::string> feature_names);

    const std::vector<std::string>& featureNames() const { return names_; }
    std::size_t numFeatures() const { return names_.size(); }
    std::size_t size() const { return targets_.size(); }
    bool empty() const { return targets_.empty(); }

    /**
     * Append a row.
     * @param features must match numFeatures(); every value finite
     * @param target regression target; must be finite
     * @param group group label (e.g. the benchmark whose bag this is)
     * @throws FatalError on a count mismatch or a NaN/Inf value, so a
     *         corrupt cell can never reach a trained model
     */
    void addRow(std::vector<double> features, double target,
                std::string group = "");

    const std::vector<double>& row(std::size_t i) const { return rows_[i]; }
    double target(std::size_t i) const { return targets_[i]; }
    const std::string& group(std::size_t i) const { return groups_[i]; }

    const std::vector<std::vector<double>>& rows() const { return rows_; }
    const std::vector<double>& targets() const { return targets_; }

    /**
     * Flatten the feature matrix into one contiguous row-major buffer
     * (row r at [r*numFeatures(), (r+1)*numFeatures())) — the layout
     * DecisionTreeRegressor::predictBatch consumes.
     */
    std::vector<double> toRowMajor() const;

    /** Index of a named feature, or -1. */
    int featureIndex(const std::string& name) const;

    /** One feature column as a vector. */
    std::vector<double> column(std::size_t feature) const;

    /** Distinct group labels in first-appearance order. */
    std::vector<std::string> distinctGroups() const;

    /** A new dataset keeping only the named features (same rows). */
    Dataset selectFeatures(const std::vector<std::string>& names) const;

    /** A new dataset with only the rows at @p indices. */
    Dataset subset(const std::vector<std::size_t>& indices) const;

    /**
     * Split into (train, test) with @p test_fraction of rows held out,
     * shuffled deterministically by @p rng.
     */
    std::pair<Dataset, Dataset> trainTestSplit(double test_fraction,
                                               Rng& rng) const;

    /**
     * Split by group: rows whose group equals @p group go to the second
     * (test) dataset.
     */
    std::pair<Dataset, Dataset> splitOutGroup(
        const std::string& group) const;

  private:
    std::vector<std::string> names_;
    std::vector<std::vector<double>> rows_;
    std::vector<double> targets_;
    std::vector<std::string> groups_;
};

}  // namespace mapp::ml

#endif  // MAPP_ML_DATASET_H
