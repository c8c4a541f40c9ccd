/**
 * @file
 * Strict numeric parsing for untrusted text (CLI flags, request fields).
 * Unlike std::stod/std::stoi these helpers consume the whole token:
 * trailing garbage ("1.5abc"), empty cells, NaN/Inf, and out-of-range
 * values are all rejected with a structured Error instead of being
 * silently truncated or thrown as a context-free std::exception.
 * Surrounding ASCII spaces/tabs are tolerated; nothing else is.
 */

#ifndef MAPP_COMMON_PARSE_H
#define MAPP_COMMON_PARSE_H

#include <string_view>

#include "common/error.h"

namespace mapp {

/** A finite double from the whole of @p text. */
Result<double> parseDouble(std::string_view text);

/** A signed integer from the whole of @p text, within [min, max]. */
Result<int> parseBoundedInt(std::string_view text, int min, int max);

}  // namespace mapp

#endif  // MAPP_COMMON_PARSE_H
