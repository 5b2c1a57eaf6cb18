// Cross-thread request tracing for the serving path.
//
// A RequestTrace is a tiny plain struct carried WITH a request from the
// thread that accepted it (a connection handler, the in-process client) to
// the code that scores and answers it: each stage stamps its steady-clock
// timestamp (microseconds since process start) and the thread that ran it.
// The thread-local obs::Span tree is per-thread and nests by scope, while a
// request trace is one flat record that outlives the call that filled it.
//
// Completed traces land in a bounded TraceRing (per-slot seqlock: a writer
// waits only for another writer that lapped onto the same slot, a reader
// never waits and skips slots it catches mid-write) and can be
// dumped as Chrome trace-event JSON — load the file in chrome://tracing or
// https://ui.perfetto.dev to see per-request stage bars grouped by the
// thread that executed them.
//
// Stage model (all values microseconds since process start, 0 = not reached):
//   submit ......... ScoringEngine::Predict was called
//   score_start .... the call passed its admission checks (drain, cancel,
//                    deadline, model) and began scoring
//   match_end ...... the pattern match (PatternMatchIndex::EncodeInto) is done
//   score_end ...... the learner evaluated the encoding; prediction ready
//   serialize_* .... the dispatcher rendered the response line (only for
//                    requests that came through RequestDispatcher)
//
// Derived stage durations (see engine.cpp):
//   admit      = score_start - submit      (canonicalize + admission checks)
//   match      = match_end - score_start
//   eval       = score_end - match_end
//   serialize  = serialize_end - serialize_start
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dfp::obs {

/// Microseconds since an arbitrary process-wide steady-clock origin.
double NowMicros();

struct RequestTrace {
    std::uint64_t id = 0;
    /// Compressed thread ids (small integers, stable per thread).
    std::uint64_t submit_tid = 0;
    std::uint64_t score_tid = 0;
    double submit_us = 0.0;
    double score_start_us = 0.0;
    double match_end_us = 0.0;
    double score_end_us = 0.0;
    double serialize_start_us = 0.0;
    double serialize_end_us = 0.0;
    /// StatusCode of the outcome (0 = Ok).
    std::uint16_t outcome = 0;

    /// Process-unique trace id.
    static std::uint64_t NextId();

    /// End-to-end latency in milliseconds as observable so far (serialize end
    /// if stamped, else score end, else 0).
    double TotalMs() const {
        const double end =
            serialize_end_us > 0.0 ? serialize_end_us : score_end_us;
        return end > submit_us ? (end - submit_us) / 1000.0 : 0.0;
    }
};

/// Small stable integer id for the calling thread (first call assigns).
std::uint64_t CompressedThreadId();

/// Bounded ring of completed request traces. Push() overwrites the oldest
/// entries once full; Dump() returns surviving traces oldest-first, skipping
/// any slot caught mid-write (per-slot seqlock, no reader lock).
class TraceRing {
  public:
    /// `capacity` is rounded up to a power of two (minimum 2).
    explicit TraceRing(std::size_t capacity);

    void Push(const RequestTrace& trace);
    std::vector<RequestTrace> Dump() const;

    std::uint64_t total_pushed() const {
        return next_.load(std::memory_order_relaxed);
    }
    std::size_t capacity() const { return mask_ + 1; }

  private:
    static constexpr std::size_t kWords =
        (sizeof(RequestTrace) + sizeof(std::uint64_t) - 1) /
        sizeof(std::uint64_t);

    struct Slot {
        /// Seqlock: odd while a writer owns the slot, even when stable. A
        /// writer claims it by CAS from even to odd, so writers that lap onto
        /// one slot take turns.
        std::atomic<std::uint64_t> seq{0};
        /// Payload stored as atomic words (copied via memcpy on both sides):
        /// a writer and in-flight readers may touch a slot concurrently, and
        /// the seqlock only discards the *values* — the accesses themselves
        /// must be data-race-free for TSan/the memory model.
        std::array<std::atomic<std::uint64_t>, kWords> words{};
    };

    static void StoreTrace(Slot& slot, const RequestTrace& trace);
    static RequestTrace LoadTrace(const Slot& slot);

    std::unique_ptr<Slot[]> slots_;
    std::size_t mask_ = 0;
    std::atomic<std::uint64_t> next_{0};
};

/// Renders traces as a Chrome trace-event JSON document:
///   {"traceEvents":[{"name":"admit","ph":"X","ts":...,"dur":...,
///                    "pid":1,"tid":...,"args":{"req":...,"outcome":...}},...]}
/// One complete ("X") event per recorded stage; timestamps/durations are in
/// microseconds as the format requires. Zero-length stages are kept (dur 0)
/// so every request shows its full path.
std::string RenderChromeTrace(const std::vector<RequestTrace>& traces);

/// Logs requests slower than `threshold_ms` (total latency) with their
/// per-stage breakdown, rate-limited to one log line per `min_interval_ms`
/// so a latency storm cannot drown the log. Always counts into the
/// `dfp.serve.slow_requests` counter regardless of rate limiting.
class SlowRequestSampler {
  public:
    explicit SlowRequestSampler(double threshold_ms,
                                double min_interval_ms = 100.0)
        : threshold_ms_(threshold_ms), min_interval_ms_(min_interval_ms) {}

    bool enabled() const { return threshold_ms_ >= 0.0; }
    /// Returns true when the trace was over threshold (logged or not).
    bool Sample(const RequestTrace& trace);

  private:
    double threshold_ms_;
    double min_interval_ms_;
    std::atomic<double> last_log_us_{-1e18};
};

}  // namespace dfp::obs
