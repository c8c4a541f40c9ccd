/**
 * @file
 * Minimal CSV writing for exported datasets, traces and experiment
 * outputs. Values containing commas, quotes or newlines are quoted per
 * RFC 4180.
 */

#ifndef MAPP_COMMON_CSV_H
#define MAPP_COMMON_CSV_H

#include <iosfwd>
#include <string>
#include <vector>

namespace mapp {

/** Incremental CSV writer. */
class CsvWriter
{
  public:
    /** Write to the given stream; the stream must outlive the writer. */
    explicit CsvWriter(std::ostream& os) : os_(os) {}

    /** Emit the header row. */
    void writeHeader(const std::vector<std::string>& names);

    /** Emit one row of string cells. */
    void writeRow(const std::vector<std::string>& cells);

  private:
    std::ostream& os_;
};

/** Quote a single cell if needed. */
std::string csvEscape(const std::string& cell);

}  // namespace mapp

#endif  // MAPP_COMMON_CSV_H
