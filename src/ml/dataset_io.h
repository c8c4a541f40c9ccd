/**
 * @file
 * Dataset CSV export (feature columns + "target" + "group"), written by
 * `mapp_cli collect` so a collected campaign can be analyzed with
 * external tools (pandas, R, ...). Nothing reads it back; the artifact
 * cache stores the campaign as its own binary record.
 */

#ifndef MAPP_ML_DATASET_IO_H
#define MAPP_ML_DATASET_IO_H

#include <string>

#include "ml/dataset.h"

namespace mapp::ml {

/** Serialize a dataset to CSV text. */
std::string datasetToCsv(const Dataset& data);

/** Write a dataset to a file. @throws InputError on I/O failure. */
void writeDatasetFile(const Dataset& data, const std::string& path);

}  // namespace mapp::ml

#endif  // MAPP_ML_DATASET_IO_H
