#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <string>

namespace mapp {

namespace {

std::string_view
trim(std::string_view text)
{
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
        text.remove_prefix(1);
    while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
        text.remove_suffix(1);
    return text;
}

std::string
quoted(std::string_view text)
{
    // Cap the echoed input so a pathological cell can't bloat the log.
    constexpr std::size_t kMaxEcho = 64;
    std::string out = "'";
    out.append(text.substr(0, kMaxEcho));
    if (text.size() > kMaxEcho)
        out += "...";
    out += "'";
    return out;
}

Error
emptyError()
{
    return {ErrorCode::Parse, "empty value where a number was expected"};
}

}  // namespace

Result<double>
parseDouble(std::string_view text)
{
    const std::string_view token = trim(text);
    if (token.empty())
        return emptyError();
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::invalid_argument)
        return Error{ErrorCode::Parse, quoted(token) + " is not a number"};
    if (ptr != token.data() + token.size())
        return Error{ErrorCode::Parse,
                     "trailing characters after number in " + quoted(token)};
    if (ec == std::errc::result_out_of_range)
        return Error{ErrorCode::Range,
                     quoted(token) + " overflows a double"};
    // from_chars accepts textual "nan"/"inf"; a dataset cell holding
    // either would poison every model statistic downstream, so the
    // strict boundary rejects non-finite values outright.
    if (!std::isfinite(value))
        return Error{ErrorCode::Range,
                     "non-finite value " + quoted(token) + " is not allowed"};
    return value;
}

Result<int>
parseBoundedInt(std::string_view text, int min, int max)
{
    const std::string_view token = trim(text);
    if (token.empty())
        return emptyError();
    int value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::invalid_argument)
        return Error{ErrorCode::Parse, quoted(token) + " is not an integer"};
    if (ptr != token.data() + token.size())
        return Error{ErrorCode::Parse,
                     "trailing characters after number in " + quoted(token)};
    if (ec == std::errc::result_out_of_range || value < min || value > max)
        return Error{ErrorCode::Range,
                     quoted(token) + " is out of range [" +
                         std::to_string(min) + ", " + std::to_string(max) +
                         "]"};
    return value;
}

}  // namespace mapp
