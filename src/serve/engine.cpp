#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>
#include <thread>

#include "common/failpoint.hpp"
#include "obs/metrics.hpp"

namespace dfp::serve {

namespace {

/// Scores one transaction against the snapshot, converting anything thrown
/// into a Status: scoring one poisoned request must fail that request alone,
/// never the caller's thread or the process. The `serve.engine.score`
/// failpoint injects exactly those escapes (and, as a delay, holds a call in
/// flight). `trace`, when non-null, gets match_end_us stamped between the
/// pattern match and the learner.
Result<Prediction> ScoreOne(const ServableModel& servable,
                            const std::vector<ItemId>& items,
                            PatternMatchIndex::Scratch* scratch,
                            obs::RequestTrace* trace = nullptr) {
    try {
        if (const auto fp = DFP_FAILPOINT("serve.engine.score"); fp) {
            fp.Sleep();
            switch (fp.kind) {
                case FailpointKind::kAllocFail:
                    throw std::bad_alloc();
                case FailpointKind::kDelay:
                    break;
                default:
                    return Status::Internal("injected scoring failure");
            }
        }
        servable.index.EncodeInto(items, scratch);
        if (trace != nullptr) trace->match_end_us = obs::NowMicros();
        return Prediction{servable.model.learner().Predict(scratch->encoded),
                          servable.version};
    } catch (const std::bad_alloc&) {
        return Status::ResourceExhausted("out of memory while scoring");
    } catch (const std::exception& e) {
        return Status::Internal(std::string("scoring failed: ") + e.what());
    }
}

/// HDR geometry for serve latencies: 1 µs .. 60 s in milliseconds, 64
/// sub-buckets per octave (quantile error <= 0.79%), 8 recording shards.
obs::HdrConfig ServeHdrConfig() {
    obs::HdrConfig config;
    config.min_value = 1e-3;
    config.max_value = 6e4;
    config.subbuckets_per_octave = 64;
    config.shards = 8;
    return config;
}

double StageMs(double begin_us, double end_us) {
    return end_us > begin_us ? (end_us - begin_us) / 1000.0 : 0.0;
}

void Canonicalize(std::vector<ItemId>* items) {
    std::sort(items->begin(), items->end());
    items->erase(std::unique(items->begin(), items->end()), items->end());
}

}  // namespace

ScoringEngine::ScoringEngine(ModelRegistry& registry, EngineConfig config)
    : registry_(registry),
      config_(config),
      trace_ring_(config.telemetry.trace_ring_capacity),
      slow_sampler_(config.telemetry.slow_request_ms) {
    const std::size_t threads = ResolveNumThreads(config_.num_threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);

    auto& reg = obs::Registry::Get();
    const obs::HdrConfig hdr = ServeHdrConfig();
    const std::size_t epochs = std::max<std::size_t>(2, config_.telemetry.window_epochs);
    const double epoch_s = std::max(0.05, config_.telemetry.window_epoch_seconds);
    win_total_ = &reg.GetWindowedHdr("dfp.serve.latency.total", hdr, epochs, epoch_s);
    win_admit_ = &reg.GetWindowedHdr("dfp.serve.latency.admit", hdr, epochs, epoch_s);
    win_match_ = &reg.GetWindowedHdr("dfp.serve.latency.match", hdr, epochs, epoch_s);
    win_eval_ = &reg.GetWindowedHdr("dfp.serve.latency.eval", hdr, epochs, epoch_s);
    win_serialize_ =
        &reg.GetWindowedHdr("dfp.serve.latency.serialize", hdr, epochs, epoch_s);

    if (config_.telemetry.background_flush) {
        flusher_ = std::make_unique<obs::WindowFlusher>(
            std::vector<obs::WindowedHdrHistogram*>{win_total_, win_admit_, win_match_,
                                                    win_eval_, win_serialize_},
            /*period_seconds=*/epoch_s / 4.0);
    }
}

ScoringEngine::~ScoringEngine() { Stop(); }

Result<Prediction> ScoringEngine::Predict(std::vector<ItemId> items,
                                          double deadline_ms,
                                          CancelToken* cancel,
                                          obs::RequestTrace* trace) {
    auto& registry = obs::Registry::Get();
    registry.GetCounter("dfp.serve.requests").Inc();
    const DeadlineTimer deadline(deadline_ms < 0.0 ? config_.default_deadline_ms
                                                   : deadline_ms);
    obs::RequestTrace internal;
    obs::RequestTrace* t = trace != nullptr ? trace : &internal;
    if (t->id == 0) t->id = obs::RequestTrace::NextId();
    t->submit_tid = obs::CompressedThreadId();
    t->submit_us = obs::NowMicros();
    Canonicalize(&items);

    bool admitted = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        admitted = !stopping_;
        if (admitted) ++in_flight_;
    }
    Result<Prediction> result =
        admitted ? Score(items, deadline, cancel, t)
                 : Result<Prediction>(Status::Unavailable("scoring engine is draining"));
    if (admitted) {
        std::lock_guard<std::mutex> lock(mu_);
        --in_flight_;
    } else {
        registry.GetCounter("dfp.serve.shed").Inc();
    }
    t->outcome = static_cast<std::uint16_t>(result.status().code());
    // A caller's trace is committed by the caller, after it stamps its
    // serialize times.
    if (trace == nullptr) CommitTrace(internal);
    return result;
}

Result<Prediction> ScoringEngine::Score(const std::vector<ItemId>& items,
                                        const DeadlineTimer& deadline,
                                        CancelToken* cancel,
                                        obs::RequestTrace* trace) {
    auto& registry = obs::Registry::Get();
    if (cancel != nullptr && cancel->Poll()) {
        registry.GetCounter("dfp.serve.cancelled").Inc();
        return Status::Cancelled("request cancelled");
    }
    if (deadline.expired()) {
        registry.GetCounter("dfp.serve.deadline_expired").Inc();
        return Status::Cancelled("deadline expired before scoring");
    }
    const ServablePtr snapshot = registry_.Snapshot();
    if (snapshot == nullptr) {
        registry.GetCounter("dfp.serve.no_model").Inc();
        return Status::FailedPrecondition("no model installed");
    }
    // One scratch per calling thread, reused across calls: EncodeInto
    // re-sizes it when a reload changes the model's shape.
    thread_local PatternMatchIndex::Scratch scratch;
    trace->score_tid = obs::CompressedThreadId();
    trace->score_start_us = obs::NowMicros();
    Result<Prediction> result = ScoreOne(*snapshot, items, &scratch, trace);
    trace->score_end_us = obs::NowMicros();
    // A call that failed inside the match spent its whole score in match.
    if (trace->match_end_us == 0.0) trace->match_end_us = trace->score_end_us;
    if (result.ok()) {
        registry.GetCounter("dfp.serve.predictions").Inc();
    } else {
        registry.GetCounter("dfp.serve.score_errors").Inc();
    }
    RecordStageLatencies(*trace);
    return result;
}

Result<std::vector<Prediction>> ScoringEngine::PredictBatch(
    std::vector<std::vector<ItemId>> batch) const {
    const ServablePtr snapshot = registry_.Snapshot();
    if (snapshot == nullptr) {
        obs::Registry::Get().GetCounter("dfp.serve.no_model").Inc();
        return Status::FailedPrecondition("no model installed");
    }
    for (auto& items : batch) Canonicalize(&items);

    std::vector<Prediction> out(batch.size());
    std::vector<Status> errors(batch.size(), Status::Ok());
    const auto score_range = [&](std::size_t begin, std::size_t end) {
        PatternMatchIndex::Scratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
            Result<Prediction> result = ScoreOne(*snapshot, batch[i], &scratch);
            if (result.ok()) {
                out[i] = std::move(*result);
            } else {
                errors[i] = result.status();
            }
        }
    };
    ParallelFor(pool_.get(), batch.size(), score_range, /*min_grain=*/8);
    // Batch semantics are all-or-nothing: the response frame carries either
    // every prediction or one error, so the first failure fails the call.
    for (const Status& st : errors) {
        if (!st.ok()) return st;
    }
    obs::Registry::Get().GetCounter("dfp.serve.predictions").Inc(batch.size());
    return out;
}

void ScoringEngine::Stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    // Drain: wait for the admitted calls to return. Each is one scoring pass
    // of a few microseconds, and Stop() is a shutdown path, so a short poll
    // keeps the per-call path free of any wake-up signalling.
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (in_flight_ == 0) break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (flusher_ != nullptr) flusher_->Stop();
}

bool ScoringEngine::stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopping_;
}

void ScoringEngine::CommitTrace(const obs::RequestTrace& trace) {
    trace_ring_.Push(trace);
    if (slow_sampler_.enabled()) slow_sampler_.Sample(trace);
    const double serialize_ms =
        StageMs(trace.serialize_start_us, trace.serialize_end_us);
    if (serialize_ms > 0.0) win_serialize_->Record(serialize_ms);
}

void ScoringEngine::RecordStageLatencies(const obs::RequestTrace& trace) {
    win_admit_->Record(StageMs(trace.submit_us, trace.score_start_us));
    win_match_->Record(StageMs(trace.score_start_us, trace.match_end_us));
    win_eval_->Record(StageMs(trace.match_end_us, trace.score_end_us));
    win_total_->Record(StageMs(trace.submit_us, trace.score_end_us));
}

}  // namespace dfp::serve
