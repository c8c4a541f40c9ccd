#include "common/csv.h"

#include <ostream>

namespace mapp {

std::string
csvEscape(const std::string& cell)
{
    const bool needsQuote =
        cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needsQuote)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
CsvWriter::writeHeader(const std::vector<std::string>& names)
{
    writeRow(names);
}

void
CsvWriter::writeRow(const std::vector<std::string>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os_ << ',';
        os_ << csvEscape(cells[i]);
    }
    os_ << '\n';
}

}  // namespace mapp
