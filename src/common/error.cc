#include "common/error.h"

namespace mapp {

const char*
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Io:
        return "io";
      case ErrorCode::Parse:
        return "parse";
      case ErrorCode::Range:
        return "range";
      case ErrorCode::Schema:
        return "schema";
      case ErrorCode::InvalidArgument:
        return "invalid-argument";
    }
    return "unknown";
}

std::string
SourceContext::describe() const
{
    std::string out;
    if (!file.empty())
        out += file;
    if (row != 0) {
        if (!out.empty())
            out += ", ";
        out += "row " + std::to_string(row);
    }
    if (!column.empty()) {
        if (!out.empty())
            out += ", ";
        out += "column '" + column + "'";
    }
    return out;
}

std::string
Error::toString() const
{
    std::string out = errorCodeName(code_);
    out += " error";
    if (!context_.empty())
        out += " at " + context_.describe();
    out += ": ";
    out += message_;
    return out;
}

void
raise(Error error)
{
    throw InputError(std::move(error));
}

}  // namespace mapp
