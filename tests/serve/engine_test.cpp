// ScoringEngine unit tests: deadline/cancel handling via the budget
// primitives, the no-model answer, the order of those checks, all-or-nothing
// PredictBatch, graceful drain (Stop() refuses new calls
// and waits for the ones in flight), and the dfp.serve.* metrics contract.
// Every Predict scores on the calling thread, so these are direct calls with
// no timing assumptions beyond the failpoint that holds a call in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"

namespace dfp::serve {
namespace {

TransactionDatabase Db(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 120;
    spec.classes = 2;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

LoadedModel TrainModel(const TransactionDatabase& db) {
    PipelineConfig config;
    config.miner.min_sup_rel = 0.10;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(
        pipeline.Train(db, std::make_unique<NaiveBayesClassifier>()).ok());
    std::stringstream stream;
    EXPECT_TRUE(SavePipelineModel(pipeline, stream).ok());
    auto loaded = LoadPipelineModel(stream);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return std::move(*loaded);
}

class ScoringEngineTest : public ::testing::Test {
  protected:
    void SetUp() override {
        FailpointRegistry::Get().DisableAll();
        obs::Registry::Get().ResetValues();
        db_ = std::make_unique<TransactionDatabase>(Db(77));
        registry_.Install(TrainModel(*db_));
    }
    void TearDown() override { FailpointRegistry::Get().DisableAll(); }

    double Counter(const std::string& name) {
        return static_cast<double>(obs::Registry::Get().GetCounter(name).value());
    }

    std::unique_ptr<TransactionDatabase> db_;
    ModelRegistry registry_;
};

TEST_F(ScoringEngineTest, ExpiredDeadlineAnsweredWithoutScoring) {
    ScoringEngine engine(registry_, EngineConfig{});
    // A zero budget has expired by the time the call checks it.
    const auto doomed = engine.Predict(db_->transaction(0), /*deadline_ms=*/0.0);
    ASSERT_FALSE(doomed.ok());
    EXPECT_EQ(doomed.status().code(), StatusCode::kCancelled);
    EXPECT_TRUE(engine.Predict(db_->transaction(1)).ok());
    EXPECT_EQ(Counter("dfp.serve.deadline_expired"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.predictions"), 1.0);
}

TEST_F(ScoringEngineTest, CancelTokenHonoured) {
    ScoringEngine engine(registry_, EngineConfig{});
    CancelToken cancel;
    cancel.Cancel();
    const auto cancelled = engine.Predict(db_->transaction(0), -1.0, &cancel);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    EXPECT_TRUE(engine.Predict(db_->transaction(1)).ok());
    EXPECT_EQ(Counter("dfp.serve.cancelled"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.predictions"), 1.0);
}

TEST_F(ScoringEngineTest, NoModelIsFailedPrecondition) {
    ModelRegistry empty;
    ScoringEngine engine(empty, EngineConfig{});
    const auto result = engine.Predict({1, 2, 3});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(Counter("dfp.serve.no_model"), 1.0);

    auto batch = engine.PredictBatch({{1, 2}});
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ScoringEngineTest, RefusalsCheckDrainThenCancelThenDeadlineThenModel) {
    // Each call below fails more than one check; the answer and the counter
    // it bumps name the first check in drain -> cancel -> deadline -> model.
    ModelRegistry empty;
    ScoringEngine engine(empty, EngineConfig{});
    CancelToken cancel;
    cancel.Cancel();

    const auto cancelled = engine.Predict({1, 2}, /*deadline_ms=*/0.0, &cancel);
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(Counter("dfp.serve.cancelled"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.deadline_expired"), 0.0);

    const auto expired = engine.Predict({1, 2}, /*deadline_ms=*/0.0);
    EXPECT_EQ(expired.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(Counter("dfp.serve.deadline_expired"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.no_model"), 0.0);

    const auto no_model = engine.Predict({1, 2});
    EXPECT_EQ(no_model.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(Counter("dfp.serve.no_model"), 1.0);

    engine.Stop();
    const auto refused = engine.Predict({1, 2}, /*deadline_ms=*/0.0, &cancel);
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(Counter("dfp.serve.shed"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.cancelled"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.deadline_expired"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.no_model"), 1.0);
    EXPECT_EQ(Counter("dfp.serve.requests"), 4.0);
}

TEST_F(ScoringEngineTest, PredictBatchFailsWholeOnOneScoringError) {
    // Batch answers are all-or-nothing: one failed row fails the call, and
    // none of its rows counts as a prediction.
    EngineConfig config;
    config.num_threads = 2;
    ScoringEngine engine(registry_, config);
    std::vector<std::vector<ItemId>> batch;
    for (std::size_t t = 0; t < 24; ++t) batch.push_back(db_->transaction(t));
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.engine.score=nth(5):error", 1)
                    .ok());
    const auto failed = engine.PredictBatch(batch);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    EXPECT_EQ(Counter("dfp.serve.predictions"), 0.0);

    // The failpoint fired once; the same batch now scores in full.
    const ServablePtr snapshot = registry_.Snapshot();
    const auto scored = engine.PredictBatch(batch);
    ASSERT_TRUE(scored.ok()) << scored.status();
    ASSERT_EQ(scored->size(), batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
        EXPECT_EQ((*scored)[t].label, snapshot->model.Predict(batch[t]));
    }
    EXPECT_EQ(Counter("dfp.serve.predictions"), static_cast<double>(batch.size()));
}

TEST_F(ScoringEngineTest, StopDrainsEverythingAdmitted) {
    // Callers keep predicting while Stop() lands: every call is either
    // answered with the model's own label or refused with kUnavailable, and
    // none is dropped or answered wrongly.
    const ServablePtr snapshot = registry_.Snapshot();
    std::vector<ClassLabel> expected(db_->num_transactions());
    for (std::size_t t = 0; t < expected.size(); ++t) {
        expected[t] = snapshot->model.Predict(db_->transaction(t));
    }
    auto engine = std::make_unique<ScoringEngine>(registry_, EngineConfig{});
    constexpr std::size_t kCallers = 4;
    std::atomic<std::size_t> answered{0};
    std::atomic<std::size_t> wrong{0};
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (std::size_t r = 0;; ++r) {
                const std::size_t t = (c * 31 + r) % db_->num_transactions();
                const auto result = engine->Predict(db_->transaction(t));
                if (!result.ok()) {
                    if (result.status().code() != StatusCode::kUnavailable) ++wrong;
                    return;
                }
                if (result->label != expected[t]) ++wrong;
                ++answered;
            }
        });
    }
    while (answered.load() < 200) std::this_thread::yield();
    engine->Stop();
    for (auto& caller : callers) caller.join();
    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_TRUE(engine->stopped());
    EXPECT_EQ(Counter("dfp.serve.predictions"), static_cast<double>(answered.load()));

    // Post-stop calls are refused with kUnavailable.
    const auto late = engine->Predict(db_->transaction(0));
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(Counter("dfp.serve.shed"), static_cast<double>(kCallers + 1));
}

TEST_F(ScoringEngineTest, StopWaitsForInFlightCalls) {
    const ClassLabel expected =
        registry_.Snapshot()->model.Predict(db_->transaction(0));
    ScoringEngine engine(registry_, EngineConfig{});
    // The first scoring call sleeps inside the engine, in flight.
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Configure("serve.engine.score=nth(1):delay(150)", 1)
                    .ok());
    obs::RequestTrace trace;
    Result<Prediction> held = Status::Internal("not yet");
    std::thread caller([&] {
        held = engine.Predict(db_->transaction(0), -1.0, nullptr, &trace);
    });
    while (FailpointRegistry::Get().TotalTrips() == 0) std::this_thread::yield();

    engine.Stop();  // from this thread, while the call sleeps in scoring
    const double stop_returned_us = obs::NowMicros();
    caller.join();

    ASSERT_TRUE(held.ok()) << held.status();
    EXPECT_EQ(held->label, expected);
    // The label was ready before Stop() returned.
    EXPECT_GT(trace.score_end_us, 0.0);
    EXPECT_LE(trace.score_end_us, stop_returned_us);

    const auto late = engine.Predict(db_->transaction(0));
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST_F(ScoringEngineTest, DefaultDeadlineApplied) {
    EngineConfig config;
    config.default_deadline_ms = 0.0;  // everything expires immediately
    ScoringEngine engine(registry_, config);
    const auto result = engine.Predict(db_->transaction(0));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    // A request's own deadline overrides the default.
    EXPECT_TRUE(engine.Predict(db_->transaction(0), /*deadline_ms=*/60000.0).ok());
}

}  // namespace
}  // namespace dfp::serve
