// ServeClient: speaks the line-delimited JSON protocol over either transport.
//
// * In-process: constructed on a RequestDispatcher — request lines are
//   rendered, dispatched and parsed exactly as over the wire, with no socket.
//   Used by the quickstart --serve smoke path and the protocol tests.
// * TCP: Connect() to a running dfp_serve. Used by the server tests and the
//   bench_serving closed-loop load generator.
//
// Self-healing (DESIGN.md §15): with a RetryPolicy of max_attempts > 1, the
// idempotent read-path ops (Predict, PredictBatch, Health, Ready) retry on
// transport failure or a kUnavailable response, reconnecting as needed, with
// exponential backoff + decorrelated jitter bounded by the policy deadline.
// A retry is refused the moment any byte of a response has been received
// (LineReader::buffered_bytes() != 0): resending after a partial response
// could double-execute. Mutating ops (Reload) never retry. Any transport
// failure, retried or not, drops the connection and the next call dials a
// fresh one, so a late reply to a failed request is never read as the answer
// to the next.
//
// Every request carries a per-client "id" that the server echoes. A reply
// whose id differs from the request's (or a success reply without one) is
// someone else's answer: the client counts it in
// dfp.serve.client.stale_replies, drops the connection and fails the call
// as a transport failure before any byte of its own reply arrived, so its
// label is never returned.
//
// Not thread-safe; use one client per thread (connections are cheap).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/socket.hpp"
#include "common/status.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

namespace dfp::serve {

/// Retry policy for idempotent ops. Defaults are retry-off (max_attempts 1).
struct RetryPolicy {
    /// Total attempts, including the first; 1 disables retries.
    int max_attempts = 1;
    /// Decorrelated-jitter backoff: sleep_n = Uniform(initial, 3 * sleep_{n-1})
    /// capped at max_backoff_ms (AWS architecture-blog variant — spreads
    /// synchronized retry storms without the full-jitter cold-start penalty).
    double initial_backoff_ms = 2.0;
    double max_backoff_ms = 100.0;
    /// Wall-clock budget across ALL attempts and backoffs; < 0 = unbounded.
    /// Backoff sleeps are clamped so the final attempt fits the budget.
    double deadline_ms = -1.0;
    /// Seed for the jitter stream (deterministic retries in tests).
    std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
};

class ServeClient {
  public:
    /// In-process transport (dispatcher is borrowed).
    explicit ServeClient(RequestDispatcher& dispatcher,
                         RetryPolicy retry = RetryPolicy{})
        : dispatcher_(&dispatcher), retry_(retry), jitter_(retry.jitter_seed) {}

    /// TCP transport.
    static Result<ServeClient> Connect(const std::string& host,
                                       std::uint16_t port,
                                       RetryPolicy retry = RetryPolicy{});

    ServeClient(ServeClient&&) = default;
    ServeClient& operator=(ServeClient&&) = default;

    Result<Prediction> Predict(const std::vector<ItemId>& items,
                               double deadline_ms = -1.0);
    Result<std::vector<Prediction>> PredictBatch(
        const std::vector<std::vector<ItemId>>& batch);
    /// Current model version after a successful reload.
    Result<std::uint64_t> Reload(const std::string& path = "");
    Result<obs::JsonValue> Stats();
    Result<obs::JsonValue> Health();
    /// True iff the server has a model installed and is not draining.
    Result<bool> Ready();
    /// Prometheus text exposition, exactly as `GET /metrics` would serve it.
    Result<std::string> Metrics();
    /// Chrome trace-event document of the server's recent request traces.
    Result<obs::JsonValue> TraceDump();

    /// Raw line round-trip (the protocol golden tests use this directly). The
    /// line is sent as is: no id is added or checked.
    Result<std::string> RoundTrip(const std::string& line);

  private:
    // Socket lives on the heap so ServeClient stays movable while the
    // LineReader keeps a stable reference to it.
    ServeClient(std::unique_ptr<Socket> socket, std::string host,
                std::uint16_t port, RetryPolicy retry)
        : socket_(std::move(socket)),
          reader_(std::make_unique<LineReader>(*socket_)),
          host_(std::move(host)),
          port_(port),
          retry_(retry),
          jitter_(retry.jitter_seed) {}

    /// How a request fared at the socket layer.
    enum class Transport {
        kOk,                ///< a full response line arrived (or in-process)
        kFailed,            ///< failed before any byte of the response
        kFailedMidResponse  ///< failed after part of the response arrived
    };

    /// One send + read of a line. Re-dials first if an earlier failure
    /// dropped the connection; drops it again on any transport failure.
    Result<std::string> Exchange(const std::string& line, Transport* transport);

    /// Tags `line` (a JSON object) with the next request id, then Exchange +
    /// parse + id check + "ok" check; protocol errors come back as the
    /// Status carried in the error response. One attempt, no retries;
    /// `*transport` (optional) says whether and where the socket layer failed.
    Result<obs::JsonValue> Call(const std::string& line,
                                Transport* transport = nullptr);

    /// Call with the retry loop — idempotent ops only.
    Result<obs::JsonValue> CallIdempotent(const std::string& line);

    /// Dials a fresh TCP connection (no-op in-process).
    Status Reconnect();

    /// Drops the TCP connection; the next call re-dials.
    void Disconnect();

    RequestDispatcher* dispatcher_ = nullptr;
    std::unique_ptr<Socket> socket_;
    std::unique_ptr<LineReader> reader_;
    std::string host_;
    std::uint16_t port_ = 0;
    RetryPolicy retry_;
    Rng jitter_;
    std::uint64_t last_id_ = 0;  ///< id of the latest request sent
};

}  // namespace dfp::serve
