// Live serving telemetry (DESIGN.md §14): request traces carry monotone
// stage timestamps through the engine; per-stage windowed latency
// histograms are registered and populated; the protocol {"op":"metrics"} verb
// and the HTTP side-port GET /metrics return byte-identical Prometheus
// payloads; trace_dump round-trips as valid Chrome trace-event JSON; calls
// refused during drain are traced with a kUnavailable outcome.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

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

/// No background window rotation: the tests count window samples.
EngineConfig NoFlushConfig() {
    EngineConfig config;
    config.telemetry.background_flush = false;
    return config;
}

class TelemetryTest : public ::testing::Test {
  protected:
    void SetUp() override {
        obs::Registry::Get().ResetValues();
        db_ = std::make_unique<TransactionDatabase>(Db(91));
        registry_.Install(TrainModel(*db_));
    }

    std::unique_ptr<TransactionDatabase> db_;
    ModelRegistry registry_;
};

TEST_F(TelemetryTest, TraceStagesAreMonotoneAcrossThreadHops) {
    ScoringEngine engine(registry_, NoFlushConfig());
    obs::RequestTrace trace;
    ASSERT_TRUE(engine
                    .Predict(db_->transaction(0), /*deadline_ms=*/-1.0,
                             /*cancel=*/nullptr, &trace)
                    .ok());
    trace.serialize_start_us = obs::NowMicros();
    trace.serialize_end_us = obs::NowMicros();
    engine.CommitTrace(trace);

    EXPECT_GT(trace.id, 0u);
    EXPECT_GT(trace.submit_us, 0.0);
    EXPECT_GE(trace.score_start_us, trace.submit_us);
    EXPECT_GE(trace.match_end_us, trace.score_start_us);
    EXPECT_GE(trace.score_end_us, trace.match_end_us);
    EXPECT_GE(trace.serialize_start_us, trace.score_end_us);
    EXPECT_GE(trace.serialize_end_us, trace.serialize_start_us);
    EXPECT_EQ(trace.outcome, 0u);  // kOk
    EXPECT_NE(trace.submit_tid, 0u);
    // Scored inline: the thread that submitted is the one that scored.
    EXPECT_EQ(trace.score_tid, trace.submit_tid);

    // The committed trace is in the ring.
    const auto dumped = engine.trace_ring().Dump();
    ASSERT_EQ(dumped.size(), 1u);
    EXPECT_EQ(dumped.front().id, trace.id);
    engine.Stop();
}

TEST_F(TelemetryTest, InternalTracesCommitThemselves) {
    ScoringEngine engine(registry_, NoFlushConfig());
    EXPECT_TRUE(engine.Predict(db_->transaction(0)).ok());
    EXPECT_TRUE(engine.Predict(db_->transaction(1)).ok());
    const auto dumped = engine.trace_ring().Dump();
    ASSERT_EQ(dumped.size(), 2u);
    for (const auto& trace : dumped) {
        EXPECT_GT(trace.match_end_us, 0.0);
        EXPECT_EQ(trace.outcome, 0u);
    }
    engine.Stop();
}

TEST_F(TelemetryTest, RefusedDuringDrainIsTracedWithUnavailableOutcome) {
    ScoringEngine engine(registry_, NoFlushConfig());
    engine.Stop();
    EXPECT_EQ(engine.Predict(db_->transaction(0)).status().code(),
              StatusCode::kUnavailable);
    const auto dumped = engine.trace_ring().Dump();
    ASSERT_EQ(dumped.size(), 1u);
    EXPECT_EQ(dumped.front().outcome,
              static_cast<std::uint16_t>(StatusCode::kUnavailable));
    EXPECT_EQ(dumped.front().score_start_us, 0.0);  // never scored
}

TEST_F(TelemetryTest, StageLatencyWindowsArePopulated) {
    ScoringEngine engine(registry_, NoFlushConfig());
    for (std::size_t t = 0; t < 6; ++t) {
        EXPECT_TRUE(engine.Predict(db_->transaction(t)).ok());
    }

    const auto snap = obs::Registry::Get().Snapshot();
    for (const char* name :
         {"dfp.serve.latency.total", "dfp.serve.latency.admit",
          "dfp.serve.latency.match", "dfp.serve.latency.eval"}) {
        const auto it = snap.windows.find(name);
        ASSERT_NE(it, snap.windows.end()) << name;
        EXPECT_EQ(it->second.count, 6u) << name;
    }
    engine.Stop();
}

TEST_F(TelemetryTest, MetricsOpAndHttpPortServeIdenticalPayloads) {
    ScoringEngine engine(registry_, EngineConfig{});
    ServerConfig server_config;
    server_config.port = 0;
    server_config.metrics_port = 0;
    PredictionServer server(registry_, engine, server_config);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.metrics_port(), 0);

    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->Predict(db_->transaction(0)).ok());

    // Freeze the registry between the two reads: no serve traffic in
    // between, and both reads happen back to back. Byte-identical is the
    // contract (same pure renderer over the same snapshot source).
    auto via_op = client->Metrics();
    ASSERT_TRUE(via_op.ok()) << via_op.status();

    auto http = TcpConnect("127.0.0.1", server.metrics_port());
    ASSERT_TRUE(http.ok());
    ASSERT_TRUE(http->SendAll("GET /metrics HTTP/1.1\r\n\r\n").ok());
    std::string response;
    char chunk[65536];
    for (;;) {
        auto n = http->Recv(chunk, sizeof(chunk));
        if (!n.ok() || *n == 0) break;
        response.append(chunk, *n);
    }
    const std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = response.substr(body_at + 4);
    EXPECT_EQ(body, *via_op);
    EXPECT_NE(body.find("dfp_serve_requests"), std::string::npos);

    server.Stop();
    engine.Stop();
}

TEST_F(TelemetryTest, TraceDumpOpReturnsChromeTraceJson) {
    ScoringEngine engine(registry_, EngineConfig{});
    ServerConfig server_config;
    server_config.port = 0;
    PredictionServer server(registry_, engine, server_config);
    ASSERT_TRUE(server.Start().ok());

    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(client->Predict(db_->transaction(i)).ok());
    }
    auto dump = client->TraceDump();
    ASSERT_TRUE(dump.ok()) << dump.status();
    const obs::JsonValue* events = dump->Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    // 3 requests x 4 stages (predict goes through the dispatcher, so
    // serialize is stamped too).
    EXPECT_EQ(events->array().size(), 12u);

    server.Stop();
    engine.Stop();
}

TEST_F(TelemetryTest, SubMillisecondBucketsInFixedLatencyHistogram) {
    // The total-latency window resolves sub-millisecond quantiles: a
    // microseconds-scale predict does not collapse into a coarse bucket.
    ScoringEngine engine(registry_, NoFlushConfig());
    for (std::size_t t = 0; t < 20; ++t) {
        ASSERT_TRUE(engine.Predict(db_->transaction(t)).ok());
    }
    const auto snap = obs::Registry::Get().Snapshot();
    const auto it = snap.windows.find("dfp.serve.latency.total");
    ASSERT_NE(it, snap.windows.end());
    EXPECT_EQ(it->second.count, 20u);
    const double p50 = it->second.ValueAtQuantile(0.5);
    EXPECT_GT(p50, 0.0);
    EXPECT_LT(p50, 1.0);
    EXPECT_LE(p50, it->second.ValueAtQuantile(0.99));
    // No fixed-bucket duplicate of the same latency is recorded.
    EXPECT_EQ(snap.histograms.count("dfp.serve.latency_ms"), 0u);
    engine.Stop();
}

}  // namespace
}  // namespace dfp::serve
