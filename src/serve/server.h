/**
 * @file
 * Transports and request dispatch for the resident prediction service.
 *
 * A Server owns a PredictionService and a DataCollector and speaks the
 * JSONL protocol (protocol.h) over one of two transports:
 *  - stdio: one client on stdin/stdout (`mapp_cli serve --stdin`);
 *    EOF or a shutdown request drains and returns.
 *  - Unix-domain socket: many concurrent clients (`--socket=PATH`);
 *    one reader thread per connection, responses serialized per
 *    connection by a write mutex (micro-batched answers complete out
 *    of order across connections, never within one).
 *
 * requestStop() is safe from any thread — including the async-signal
 * watcher installed by installShutdownHandler — and triggers the same
 * graceful drain as a shutdown request: stop accepting, answer every
 * queued job, flush, return.
 */

#ifndef MAPP_SERVE_SERVER_H
#define MAPP_SERVE_SERVER_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "predictor/data_collection.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace mapp::serve {

/** Why the serve loop returned. */
enum class StopCause {
    Eof,       ///< stdio client closed its end
    Shutdown,  ///< a client sent {"op":"shutdown"}
    Signal,    ///< requestStop() (SIGINT/SIGTERM watcher)
};

/** JSONL front-end over a PredictionService. */
class Server
{
  public:
    /**
     * @param service   the micro-batching service to expose (borrowed;
     *                  must outlive the server)
     * @param collector resolves member-form queries ("SIFT@40") to
     *                  features and measured fairness (borrowed)
     */
    Server(PredictionService& service,
           predictor::DataCollector& collector);

    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Serve one client on stdin/stdout until EOF, a shutdown request,
     * or requestStop(). Drains the service before returning.
     */
    StopCause serveStdio();

    /**
     * Bind @p path, accept clients until a shutdown request or
     * requestStop(), then close connections, drain and unlink the
     * socket. @throws FatalError when the socket cannot be bound.
     */
    StopCause serveSocket(const std::string& path);

    /**
     * Ask the serve loop to stop and drain. Callable from any thread;
     * returns immediately. Idempotent.
     */
    void requestStop();

    /**
     * Dispatch one request line and return the response line(s) via
     * @p respond (thread-safe callable; invoked once per response,
     * possibly from the batch worker thread after this returns).
     * Exposed for in-process tests and benchmarks.
     */
    void handleLine(std::string_view line,
                    const std::function<void(std::string)>& respond);

  private:
    struct Connection;

    /** Member-form specs -> concrete BagQuery rows. */
    Result<std::vector<predictor::BagQuery>> resolveQueries(
        const std::vector<QuerySpec>& specs);

    std::string handleQuality(const Request& request);
    std::string handleStats(const Request& request);
    std::string handleMetrics(const Request& request);
    std::string handleReload(const Request& request);

    void connectionLoop(std::shared_ptr<Connection> connection);

    /** Join and drop the connections whose client hung up. */
    void reapFinishedConnections();

    PredictionService& service_;
    predictor::DataCollector& collector_;

    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> sawShutdownOp_{false};
    int stopPipe_[2] = {-1, -1};  ///< wakes poll() on requestStop()

    std::mutex connectionsMutex_;
    std::vector<std::shared_ptr<Connection>> connections_;
};

}  // namespace mapp::serve

#endif  // MAPP_SERVE_SERVER_H
