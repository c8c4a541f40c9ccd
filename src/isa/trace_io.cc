#include "isa/trace_io.h"

#include <sstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/file_io.h"

namespace mapp::isa {

namespace {

std::vector<std::string>
header()
{
    std::vector<std::string> cols{"app", "batch", "phase"};
    for (InstClass c : kAllInstClasses)
        cols.push_back(instClassName(c));
    for (const char* extra :
         {"bytes_read", "bytes_written", "footprint", "parallel",
          "work_items", "locality", "divergence", "launches",
          "host_staged"}) {
        cols.emplace_back(extra);
    }
    return cols;
}

}  // namespace

std::string
traceToCsv(const WorkloadTrace& trace)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader(header());
    for (const auto& p : trace.phases()) {
        std::vector<std::string> row{trace.app(),
                                     std::to_string(trace.batchSize()),
                                     p.name};
        for (InstClass c : kAllInstClasses)
            row.push_back(std::to_string(p.mix.count(c)));
        row.push_back(std::to_string(p.bytesRead));
        row.push_back(std::to_string(p.bytesWritten));
        row.push_back(std::to_string(p.footprint));
        row.push_back(std::to_string(p.parallelFraction));
        row.push_back(std::to_string(p.workItems));
        row.push_back(std::to_string(p.locality));
        row.push_back(std::to_string(p.branchDivergence));
        row.push_back(std::to_string(p.launches));
        row.push_back(p.hostStaged ? "1" : "0");
        writer.writeRow(row);
    }
    return os.str();
}

void
writeTraceFile(const WorkloadTrace& trace, const std::string& path)
{
    if (!writeFileAtomic(path, traceToCsv(trace)))
        raise({ErrorCode::Io, "cannot write file", {path, 0, ""}});
}

}  // namespace mapp::isa
