// obs/reqtrace: trace-ring push/overwrite/dump semantics, Chrome trace-event
// JSON schema, and the slow-request sampler's threshold/counting behavior.
#include "obs/reqtrace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dfp::obs {
namespace {

RequestTrace MakeTrace(std::uint64_t id, double base_us) {
    RequestTrace trace;
    trace.id = id;
    trace.submit_tid = 1;
    trace.score_tid = 2;
    trace.submit_us = base_us;
    trace.score_start_us = base_us + 15;
    trace.match_end_us = base_us + 30;
    trace.score_end_us = base_us + 40;
    trace.serialize_start_us = base_us + 42;
    trace.serialize_end_us = base_us + 45;
    return trace;
}

TEST(RequestTraceTest, NextIdIsUniqueAndMonotonic) {
    const std::uint64_t a = RequestTrace::NextId();
    const std::uint64_t b = RequestTrace::NextId();
    EXPECT_LT(a, b);
}

TEST(RequestTraceTest, TotalMsPrefersSerializeEnd) {
    RequestTrace trace = MakeTrace(1, 1000.0);
    EXPECT_NEAR(trace.TotalMs(), 0.045, 1e-9);
    trace.serialize_end_us = 0.0;  // dispatcher never stamped it
    EXPECT_NEAR(trace.TotalMs(), 0.040, 1e-9);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(TraceRing(5).capacity(), 8u);
    EXPECT_EQ(TraceRing(8).capacity(), 8u);
    EXPECT_EQ(TraceRing(0).capacity(), 2u);
}

TEST(TraceRingTest, DumpReturnsPushedTracesOldestFirst) {
    TraceRing ring(8);
    for (std::uint64_t i = 1; i <= 5; ++i) ring.Push(MakeTrace(i, 1000.0 * i));
    const auto dumped = ring.Dump();
    ASSERT_EQ(dumped.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(dumped[i].id, i + 1);
}

TEST(TraceRingTest, OverwritesOldestWhenFull) {
    TraceRing ring(4);
    for (std::uint64_t i = 1; i <= 10; ++i) ring.Push(MakeTrace(i, 100.0 * i));
    EXPECT_EQ(ring.total_pushed(), 10u);
    const auto dumped = ring.Dump();
    ASSERT_EQ(dumped.size(), 4u);
    EXPECT_EQ(dumped.front().id, 7u);
    EXPECT_EQ(dumped.back().id, 10u);
}

TEST(TraceRingTest, ConcurrentPushersNeverProduceTornDumps) {
    // Writers stamp every field of a trace with its id; a torn read would
    // surface as a dumped trace with mixed ids. The seqlock must prevent it.
    TraceRing ring(64);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&ring, &stop, w] {
            std::uint64_t i = 1;
            while (!stop.load(std::memory_order_relaxed)) {
                const std::uint64_t id =
                    static_cast<std::uint64_t>(w + 1) * 1000000 + i++;
                RequestTrace trace;
                trace.id = id;
                trace.submit_us = static_cast<double>(id);
                trace.score_end_us = static_cast<double>(id);
                trace.outcome = static_cast<std::uint16_t>(id % 97);
                ring.Push(trace);
            }
        });
    }
    for (int round = 0; round < 200; ++round) {
        for (const RequestTrace& trace : ring.Dump()) {
            EXPECT_EQ(trace.submit_us, static_cast<double>(trace.id));
            EXPECT_EQ(trace.score_end_us, static_cast<double>(trace.id));
            EXPECT_EQ(trace.outcome,
                      static_cast<std::uint16_t>(trace.id % 97));
        }
    }
    stop.store(true);
    for (auto& writer : writers) writer.join();
}

// A trace whose every field is derived from its id.
RequestTrace StampedTrace(std::uint64_t id) {
    const double base = static_cast<double>(id);
    RequestTrace trace;
    trace.id = id;
    trace.submit_tid = id;
    trace.score_tid = id + 1;
    trace.submit_us = base;
    trace.score_start_us = base + 1.0;
    trace.match_end_us = base + 2.0;
    trace.score_end_us = base + 3.0;
    trace.serialize_start_us = base + 4.0;
    trace.serialize_end_us = base + 5.0;
    trace.outcome = static_cast<std::uint16_t>(id % 1009);
    return trace;
}

bool IsStamped(const RequestTrace& t) {
    const RequestTrace want = StampedTrace(t.id);
    return t.submit_tid == want.submit_tid && t.score_tid == want.score_tid &&
           t.submit_us == want.submit_us &&
           t.score_start_us == want.score_start_us &&
           t.match_end_us == want.match_end_us &&
           t.score_end_us == want.score_end_us &&
           t.serialize_start_us == want.serialize_start_us &&
           t.serialize_end_us == want.serialize_end_us && t.outcome == want.outcome;
}

TEST(TraceRingTest, WritersLappingOneSlotNeverTearADump) {
    // Two slots and six pushers: writers lap onto the same slot all the
    // time. A dump that mixes two writers' traces shows up as a trace whose
    // fields disagree with its id.
    TraceRing ring(2);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (std::uint64_t w = 1; w <= 6; ++w) {
        writers.emplace_back([&ring, &stop, w] {
            for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
                ring.Push(StampedTrace(w * 1000000000 + i));
            }
        });
    }
    while (ring.total_pushed() < 10000) std::this_thread::yield();
    // Tearing needs two writers inside one slot while a dump copies it. A
    // ring whose writers both bump the sequence without claiming the slot
    // tore in 10 of 10 runs of this length on a 4-core host.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
    std::size_t checked = 0;
    std::size_t torn = 0;
    while (std::chrono::steady_clock::now() < until) {
        for (const RequestTrace& trace : ring.Dump()) {
            ++checked;
            if (!IsStamped(trace)) ++torn;
        }
    }
    stop.store(true);
    for (auto& writer : writers) writer.join();
    EXPECT_GT(checked, 0u);
    EXPECT_EQ(torn, 0u) << "of " << checked << " dumped traces";
}

TEST(RenderChromeTraceTest, SchemaAndStageEvents) {
    std::vector<RequestTrace> traces = {MakeTrace(7, 5000.0)};
    const std::string json = RenderChromeTrace(traces);
    auto parsed = ParseJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const JsonValue* events = parsed->Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    // One complete event per stamped stage: admit, match, eval, serialize.
    std::set<std::string> names;
    for (const JsonValue& event : events->array()) {
        ASSERT_TRUE(event.is_object());
        const JsonValue* name = event.Find("name");
        const JsonValue* ph = event.Find("ph");
        const JsonValue* ts = event.Find("ts");
        const JsonValue* dur = event.Find("dur");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(dur, nullptr);
        EXPECT_EQ(ph->string(), "X");
        EXPECT_GE(dur->number(), 0.0);
        ASSERT_NE(event.Find("pid"), nullptr);
        ASSERT_NE(event.Find("tid"), nullptr);
        const JsonValue* args = event.Find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->Find("req")->number(), 7.0);
        names.insert(name->string());
    }
    EXPECT_EQ(names, (std::set<std::string>{"admit", "match", "eval", "serialize"}));
}

TEST(RenderChromeTraceTest, EmptyDumpIsValidDocument) {
    auto parsed = ParseJson(RenderChromeTrace({}));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_TRUE(parsed->Find("traceEvents")->array().empty());
}

TEST(SlowRequestSamplerTest, ThresholdGatesAndCounterCounts) {
    Registry::Get().ResetValues();
    SlowRequestSampler sampler(/*threshold_ms=*/0.042 * 0.5);
    ASSERT_TRUE(sampler.enabled());
    EXPECT_TRUE(sampler.Sample(MakeTrace(1, 100.0)));  // 0.045 ms total
    RequestTrace fast = MakeTrace(2, 100.0);
    fast.serialize_end_us = fast.submit_us + 1.0;  // 0.001 ms total
    EXPECT_FALSE(sampler.Sample(fast));
    EXPECT_EQ(Registry::Get()
                  .GetCounter("dfp.serve.slow_requests")
                  .value(),
              1u);
}

TEST(SlowRequestSamplerTest, NegativeThresholdDisables) {
    SlowRequestSampler sampler(-1.0);
    EXPECT_FALSE(sampler.enabled());
}

}  // namespace
}  // namespace dfp::obs
