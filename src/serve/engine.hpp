// Scoring engine: answers each predict inline on the calling thread.
//
// A predict is one inverted-index match plus one learner evaluation, a few
// microseconds of work, so the engine scores it on the thread that asked
// (a TCP connection handler, the in-process client, a test) instead of
// handing it to another thread. Concurrency is the number of callers; over
// TCP, ServerConfig::max_connections bounds it. Predictions are
// bit-identical to LoadedModel::Predict whatever the number of concurrent
// callers or PredictBatch threads.
//
// Admission (DESIGN.md §13):
//  * Per-request deadlines reuse the budget primitives (DeadlineTimer
//    anchored when Predict is called, optional CancelToken): a request whose
//    deadline has passed or whose token fired is answered kCancelled without
//    being scored.
//  * Graceful drain. Stop() refuses new calls with kUnavailable (counted in
//    dfp.serve.shed) and returns only once every call already in flight has
//    returned, so an accepted request is never dropped.
//
// PredictBatch fans a whole batch out over the work-stealing ThreadPool
// (num_threads). Every call publishes dfp.serve.* metrics and a RequestTrace
// (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/budget.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "obs/hdr.hpp"
#include "obs/reqtrace.hpp"
#include "serve/registry.hpp"

namespace dfp::serve {

/// Live-serving telemetry knobs (DESIGN.md §14).
struct TelemetryConfig {
    /// Completed request traces retained for {"op":"trace_dump"} and
    /// `dfp_serve --trace-out` (bounded ring; oldest overwritten).
    std::size_t trace_ring_capacity = 4096;
    /// Requests slower than this many milliseconds end to end are logged
    /// with their per-stage breakdown (rate-limited); < 0 disables.
    double slow_request_ms = -1.0;
    /// Trailing-window geometry of the dfp.serve.latency.* quantiles: a ring
    /// of `window_epochs` HDR shards, one rotated out every
    /// `window_epoch_seconds` (defaults: 10 s trailing window).
    std::size_t window_epochs = 8;
    double window_epoch_seconds = 1.25;
    /// Spawn the background window flusher that rotates the windows on
    /// time. Tests that count window samples turn it off for determinism.
    bool background_flush = true;
};

struct EngineConfig {
    /// PredictBatch workers (0 = hardware_concurrency, 1 = score the batch on
    /// the calling thread). Single predicts always score on the caller.
    std::size_t num_threads = 1;
    /// Deadline applied to requests that don't carry their own (< 0 = none).
    double default_deadline_ms = -1.0;
    TelemetryConfig telemetry;
};

/// One scored request: the label plus the model version that produced it.
struct Prediction {
    ClassLabel label = 0;
    std::uint64_t model_version = 0;
};

class ScoringEngine {
  public:
    ScoringEngine(ModelRegistry& registry, EngineConfig config);
    ScoringEngine(const ScoringEngine&) = delete;
    ScoringEngine& operator=(const ScoringEngine&) = delete;
    /// Stops and drains (see Stop()).
    ~ScoringEngine();

    /// Scores one transaction on the calling thread. `items` need not be
    /// sorted — the engine canonicalizes (sort + dedup). Then, in order:
    /// kUnavailable once Stop() has begun, kCancelled when `cancel` fired or
    /// the deadline passed (`deadline_ms` < 0 = the configured default),
    /// kFailedPrecondition with no model installed; otherwise the prediction
    /// of the current model snapshot.
    ///
    /// `trace`, when non-null, is stamped with the submit/score/match stages
    /// and left to the caller to commit (CommitTrace) after it adds its
    /// serialize timestamps; calls without one are traced and committed
    /// internally.
    Result<Prediction> Predict(std::vector<ItemId> items,
                               double deadline_ms = -1.0,
                               CancelToken* cancel = nullptr,
                               obs::RequestTrace* trace = nullptr);

    /// Scores a whole batch against one snapshot, fanned out over the
    /// num_threads pool (the predict_batch protocol op and offline eval).
    Result<std::vector<Prediction>> PredictBatch(
        std::vector<std::vector<ItemId>> batch) const;

    /// Graceful drain: new Predict calls are refused with kUnavailable, and
    /// Stop() returns once every call already in flight has returned.
    /// Idempotent.
    void Stop();

    bool stopped() const;

    const EngineConfig& config() const { return config_; }

    /// Completed request traces (bounded; see TelemetryConfig).
    const obs::TraceRing& trace_ring() const { return trace_ring_; }

    /// Pushes a finished trace into the ring, samples it for slow-request
    /// logging, and records its serialize stage (if stamped) into
    /// dfp.serve.latency.serialize. Called internally for engine-traced
    /// requests and by RequestDispatcher for protocol requests.
    void CommitTrace(const obs::RequestTrace& trace);

  private:
    /// The checks and scoring of Predict, once the call is admitted.
    Result<Prediction> Score(const std::vector<ItemId>& items,
                             const DeadlineTimer& deadline, CancelToken* cancel,
                             obs::RequestTrace* trace);

    /// Records one scored request's stage durations into the windowed
    /// latency histograms.
    void RecordStageLatencies(const obs::RequestTrace& trace);

    ModelRegistry& registry_;
    EngineConfig config_;
    std::unique_ptr<ThreadPool> pool_;  ///< PredictBatch workers; null = serial

    // Telemetry. The windowed histograms are registry-owned (immortal);
    // the engine only resolves them once and drives rotation.
    obs::TraceRing trace_ring_;
    obs::SlowRequestSampler slow_sampler_;
    obs::WindowedHdrHistogram* win_total_ = nullptr;
    obs::WindowedHdrHistogram* win_admit_ = nullptr;
    obs::WindowedHdrHistogram* win_match_ = nullptr;
    obs::WindowedHdrHistogram* win_eval_ = nullptr;
    obs::WindowedHdrHistogram* win_serialize_ = nullptr;
    std::unique_ptr<obs::WindowFlusher> flusher_;

    mutable std::mutex mu_;
    bool stopping_ = false;
    std::size_t in_flight_ = 0;  ///< admitted Predict calls not yet returned
};

}  // namespace dfp::serve
