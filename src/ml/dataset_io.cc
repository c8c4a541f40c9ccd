#include "ml/dataset_io.h"

#include <sstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/file_io.h"

namespace mapp::ml {

std::string
datasetToCsv(const Dataset& data)
{
    std::ostringstream os;
    CsvWriter writer(os);

    std::vector<std::string> headerRow = data.featureNames();
    headerRow.emplace_back("target");
    headerRow.emplace_back("group");
    writer.writeHeader(headerRow);

    for (std::size_t r = 0; r < data.size(); ++r) {
        std::vector<std::string> row;
        row.reserve(headerRow.size());
        for (double v : data.row(r)) {
            std::ostringstream cell;
            cell.precision(17);
            cell << v;
            row.push_back(cell.str());
        }
        std::ostringstream target;
        target.precision(17);
        target << data.target(r);
        row.push_back(target.str());
        row.push_back(data.group(r));
        writer.writeRow(row);
    }
    return os.str();
}

void
writeDatasetFile(const Dataset& data, const std::string& path)
{
    if (!writeFileAtomic(path, datasetToCsv(data)))
        raise({ErrorCode::Io, "cannot write file", {path, 0, ""}});
}

}  // namespace mapp::ml
