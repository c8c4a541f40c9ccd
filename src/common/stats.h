/**
 * @file
 * Descriptive statistics for the feature/target correlation tables
 * (Section VI-A of the paper).
 */

#ifndef MAPP_COMMON_STATS_H
#define MAPP_COMMON_STATS_H

#include <span>
#include <vector>

namespace mapp::stats {

/** Arithmetic mean; 0 for an empty span. */
double mean(std::span<const double> xs);

/** Minimum; +inf for an empty span. */
double minimum(std::span<const double> xs);

/** Maximum; -inf for an empty span. */
double maximum(std::span<const double> xs);

/** Pearson correlation coefficient; 0 if either side has zero variance. */
double pearson(std::span<const double> xs, std::span<const double> ys);

/** Spearman rank correlation (ties broken by average rank). */
double spearman(std::span<const double> xs, std::span<const double> ys);

/** Ranks with average-rank tie handling (1-based ranks). */
std::vector<double> ranks(std::span<const double> xs);

}  // namespace mapp::stats

#endif  // MAPP_COMMON_STATS_H
