/**
 * @file
 * Structured errors for the input boundaries: every loader (CSV, trace,
 * dataset) and the CLI report failures as a mapp::Error carrying an
 * error code, a human message, and the source location (file, row,
 * column) where the bad input was found. Helpers return Result<T> so
 * callers can branch without exceptions; throwing boundaries convert a
 * Result into an InputError (a FatalError subclass) so existing
 * handlers and tests keep working unchanged.
 */

#ifndef MAPP_COMMON_ERROR_H
#define MAPP_COMMON_ERROR_H

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "common/log.h"

namespace mapp {

/** Machine-readable category of a boundary failure. */
enum class ErrorCode {
    Io,               ///< file missing, unreadable, or short write
    Parse,            ///< text does not encode a value of the type
    Range,            ///< parsed fine but outside the permitted interval
    Schema,           ///< structural mismatch: wrong header, short row
    InvalidArgument,  ///< bad CLI flag or API argument
};

/** Stable lower-case name of a code ("io", "parse", "range", ...). */
const char* errorCodeName(ErrorCode code);

/**
 * Where in an input an error was detected. @c row is 1-based over data
 * rows (0 = not applicable) and @c column is a header name, not an
 * index, so the message points at something the user can grep for.
 */
struct SourceContext
{
    std::string file;     ///< path or input label; empty = unknown
    std::size_t row = 0;  ///< 1-based data row; 0 = not applicable
    std::string column;   ///< column name; empty = not applicable

    bool empty() const
    {
        return file.empty() && row == 0 && column.empty();
    }

    /** "bags.csv, row 3, column 'batch'" — only the known parts. */
    std::string describe() const;
};

/** A structured boundary error: code + message + source location. */
class Error
{
  public:
    Error(ErrorCode code, std::string message, SourceContext context = {})
        : code_(code), message_(std::move(message)),
          context_(std::move(context))
    {
    }

    ErrorCode code() const { return code_; }
    const std::string& message() const { return message_; }
    const SourceContext& context() const { return context_; }

    /** "parse error at bags.csv, row 3, column 'x': bad number '1x'" */
    std::string toString() const;

  private:
    ErrorCode code_;
    std::string message_;
    SourceContext context_;
};

/**
 * Exception form of Error, thrown by the throwing loader boundaries.
 * Derives from FatalError so every existing `catch (const FatalError&)`
 * and EXPECT_THROW(..., FatalError) observes it; what() is the full
 * located toString().
 */
class InputError : public FatalError
{
  public:
    explicit InputError(Error error)
        : FatalError(error.toString()), error_(std::move(error))
    {
    }

    const Error& error() const { return error_; }

  private:
    Error error_;
};

/** Throw @p error as an InputError. */
[[noreturn]] void raise(Error error);

/**
 * Value-or-Error return used by the strict parsing helpers. Exactly one
 * of value()/error() is populated; accessing the absent side is a
 * panic (an internal bug, not an input error).
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Error error) : error_(std::move(error)) {}

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    const T& value() const&
    {
        requireOk();
        return *value_;
    }
    T&& value() &&
    {
        requireOk();
        return std::move(*value_);
    }

    const Error& error() const
    {
        if (ok())
            panic("Result::error() called on a success value");
        return *error_;
    }

  private:
    void requireOk() const
    {
        if (!ok())
            panic("Result::value() called on an error: " +
                  error_->toString());
    }

    std::optional<T> value_;
    std::optional<Error> error_;
};

}  // namespace mapp

#endif  // MAPP_COMMON_ERROR_H
