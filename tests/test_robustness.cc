/**
 * @file
 * Graceful shutdown under a real signal (run under ASan via
 * `ctest -L robustness`). The binary frame readers' fault injection
 * lives in test_cache, the request parser's in test_serve.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "common/shutdown.h"

namespace {

using namespace mapp;

// ---------------------------------------------------------------------------
// Graceful-shutdown plumbing. One real SIGINT travels the whole path:
// sigaction handler -> self-pipe -> watcher thread -> callback. Only
// one signal may be raised in this process — the handler hard-exits on
// the second delivery by design.

TEST(Shutdown, RealSignalReachesTheInstalledCallback)
{
    std::atomic<int> fired{0};
    std::atomic<int> delivered{0};
    installShutdownHandler([&fired, &delivered](int signo) {
        delivered.store(signo);
        fired.fetch_add(1);
    });
    ASSERT_FALSE(shutdownRequested());

    ASSERT_EQ(::raise(SIGINT), 0);
    for (int i = 0; i < 500 && fired.load() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));

    EXPECT_EQ(fired.load(), 1);
    EXPECT_EQ(delivered.load(), SIGINT);
    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGINT);

    // A later synthetic request must not double-deliver: the first
    // delivery already claimed the process's shutdown.
    requestShutdown(SIGTERM);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(fired.load(), 1);
    EXPECT_EQ(shutdownSignal(), SIGINT);

    // Drop the dangling captures before the locals die.
    installShutdownHandler([](int) {});
}

}  // namespace
