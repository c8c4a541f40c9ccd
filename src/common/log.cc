#include "common/log.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mapp {

namespace {

/** Startup level: $MAPP_LOG_LEVEL if set and valid, else Normal. */
LogLevel
initialLogLevel()
{
    const char* env = std::getenv("MAPP_LOG_LEVEL");
    if (env == nullptr)
        return LogLevel::Normal;
    return parseLogLevel(env).value_or(LogLevel::Normal);
}

std::atomic<LogLevel>&
globalLevel()
{
    static std::atomic<LogLevel> level{initialLogLevel()};
    return level;
}

/**
 * Emit one fully formatted line with a single stdio write so messages
 * from concurrent threads never interleave (POSIX stdio locks the
 * stream per call).
 */
void
writeLine(const char* prefix, const std::string& msg)
{
    std::string line;
    line.reserve(msg.size() + 16);
    line += prefix;
    line += msg;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel().store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return globalLevel().load(std::memory_order_relaxed);
}

std::optional<LogLevel>
parseLogLevel(std::string_view name)
{
    std::string lowered;
    lowered.reserve(name.size());
    for (const char c : name)
        lowered += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lowered == "quiet")
        return LogLevel::Quiet;
    if (lowered == "normal")
        return LogLevel::Normal;
    if (lowered == "verbose")
        return LogLevel::Verbose;
    if (lowered == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

void
inform(const std::string& msg)
{
    if (logLevel() >= LogLevel::Normal)
        writeLine("info: ", msg);
}

void
verbose(const std::string& msg)
{
    if (logLevel() >= LogLevel::Verbose)
        writeLine("verbose: ", msg);
}

void
debug(const std::string& msg)
{
    if (logLevel() >= LogLevel::Debug)
        writeLine("debug: ", msg);
}

void
warn(const std::string& msg)
{
    writeLine("warn: ", msg);
}

void
fatal(const std::string& msg)
{
    throw FatalError(msg);
}

void
panic(const std::string& msg)
{
    writeLine("panic: ", msg);
    std::abort();
}

}  // namespace mapp

