/**
 * @file
 * Content hashing of an ml::Dataset: the cache-key step for artifacts
 * derived from a dataset, and the golden pin's campaign digest. The
 * artifact cache stores a collected campaign as the "MCMP" record of
 * predictor/data_collection.cc, not as a dataset.
 */

#ifndef MAPP_ML_DATASET_BINARY_H
#define MAPP_ML_DATASET_BINARY_H

#include "cache/hash.h"
#include "ml/dataset.h"

namespace mapp::ml {

/**
 * Fold a dataset's full content (names, rows, targets, groups) into a
 * cache-key hasher — the content-addressing step for artifacts derived
 * from a dataset (e.g. models trained on it).
 */
void hashDataset(cache::Hasher& hasher, const Dataset& data);

}  // namespace mapp::ml

#endif  // MAPP_ML_DATASET_BINARY_H
