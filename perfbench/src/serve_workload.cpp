// serve: the TCP serving stack (registry → engine → server) on a loopback
// ephemeral port, driven by ServeClient connections, with a model trained in
// set-up on the planted-pattern corpus.
//
// The served model is the same for every --seed: it is trained on one fixed
// fold of the planted corpus, so the served labels and their accuracy are
// exactly comparable between runs. --seed draws the order in which the
// held-out rows are requested.
//
// An open loop of single `predict` requests over kServeConnections
// connections at a fixed total rate, beside a hot ModelRegistry::Reload of
// the bundle every kReloadIntervalS. Each request is timed from its due time,
// so a stall shows up in the requests queued behind it. A single request
// spends most of its time in the engine's admission queue and batch wait, so
// this workload exercises the batcher and the registry's write path.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "corpus.hpp"
#include "harness.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using dfp::ClassLabel;
using dfp::ItemId;
namespace serve = dfp::serve;

// Offered load of the serve workload: about a third of what these
// connections sustain closed-loop on a 4-core x86 host (~1.4k requests/s
// each), so the queue stays short and latency, not capacity, is measured.
constexpr std::size_t kServeConnections = 4;
constexpr double kServeRatePerConnection = 500.0;
constexpr double kReloadIntervalS = 0.25;
// Rows per ScoringEngine::PredictBatch call in the traced run.
constexpr std::size_t kBatchRows = 64;
// A request sent later than one inter-arrival gap after its due time counts
// as late. A run whose connections end that late (median of their last
// tenth of requests), or leave requests unsent, has a growing backlog: its
// latencies are not valid, and its late requests count as failed.
constexpr double kLateMs = 1e3 / kServeRatePerConnection;
// How long an open-loop connection may keep draining requests that fell
// due inside the window before the rest count as unsent.
constexpr double kDrainGraceS = 1.0;
constexpr std::size_t kMicroSamples = 4000;
// Partition of the planted corpus whose first fold trains the served model.
constexpr std::uint64_t kServeSplitSeed = 1;
constexpr double kRoundS = 2.0;

std::string PredictLine(const std::vector<ItemId>& items) {
    std::string out = "{\"op\":\"predict\",\"items\":[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(items[i]);
    }
    return out + "]}";
}

/// Label out of a predict response line (nullopt when it has none).
std::optional<ClassLabel> LabelOf(const std::string& response) {
    auto parsed = dfp::obs::ParseJson(response);
    if (!parsed.ok()) return std::nullopt;
    const auto* label = parsed->Find("label");
    if (label == nullptr || !label->is_number()) return std::nullopt;
    return static_cast<ClassLabel>(label->number());
}

/// Registry, engine, server and client connections over one saved bundle,
/// plus the offline labels every served answer must equal.
class ServeStack {
  public:
    ServeStack() = default;
    ServeStack(const ServeStack&) = delete;
    ServeStack& operator=(const ServeStack&) = delete;
    ~ServeStack() { Teardown(); }

    void Build(const Args& args) {
        Teardown();
        corpus_ = std::move(MakePlantedFolds(kServeSplitSeed).front());
        dfp::PatternClassifierPipeline pipeline(PlantedPipelineConfig());
        const dfp::Status st = pipeline.Train(
            corpus_.train, std::make_unique<dfp::NaiveBayesClassifier>());
        Require(st.ok(), "Train: " + st.ToString());
        model_path_ = args.workdir + "/" + args.workload + "_" +
                      std::to_string(::getpid()) + ".dfp";
        const dfp::Status saved = dfp::SavePipelineModelToFile(pipeline, model_path_);
        Require(saved.ok(), "SavePipelineModelToFile: " + saved.ToString());

        auto loaded = dfp::LoadPipelineModelFromFile(model_path_);
        Require(loaded.ok(), "LoadPipelineModelFromFile: " + loaded.status().ToString());
        const dfp::TransactionDatabase& test = corpus_.test;
        offline_.resize(test.num_transactions());
        lines_.resize(test.num_transactions());
        for (std::size_t r = 0; r < test.num_transactions(); ++r) {
            offline_[r] = loaded->Predict(test.transaction(r));
            lines_[r] = PredictLine(test.transaction(r));
        }
        order_.resize(test.num_transactions());
        for (std::size_t r = 0; r < order_.size(); ++r) order_[r] = r;
        dfp::Rng rng(args.seed ^ 0x5eedf00dull);
        std::shuffle(order_.begin(), order_.end(), rng);

        registry_ = std::make_unique<serve::ModelRegistry>();
        auto published = registry_->Reload(model_path_);
        Require(published.ok(), "Reload: " + published.status().ToString());
        engine_ = std::make_unique<serve::ScoringEngine>(*registry_, serve::EngineConfig{});
        serve::ServerConfig server_config;
        server_config.port = 0;
        server_ = std::make_unique<serve::PredictionServer>(*registry_, *engine_,
                                                            server_config, model_path_);
        const dfp::Status started = server_->Start();
        Require(started.ok(), "server Start: " + started.ToString());
        for (std::size_t c = 0; c < kServeConnections; ++c) {
            auto client = serve::ServeClient::Connect("127.0.0.1", server_->port());
            Require(client.ok(), "Connect: " + client.status().ToString());
            clients_.push_back(std::move(client).value());
        }
        // Warm-up: every connection answers a few requests.
        for (auto& client : clients_) {
            for (std::size_t i = 0; i < 64; ++i) {
                const std::size_t row = order_[i % order_.size()];
                auto p = client.Predict(test.transaction(row));
                Require(p.ok(), "warm-up predict: " + p.status().ToString());
                if (p->label != offline_[row]) CheckFailed("warm-up label differs from offline");
            }
        }
    }

    void Teardown() {
        clients_.clear();
        if (server_ != nullptr) server_->Stop();
        server_.reset();
        engine_.reset();
        registry_.reset();
        if (!model_path_.empty()) ::unlink(model_path_.c_str());
    }

    /// Test row of connection `c`'s i-th request.
    std::size_t RowOf(std::size_t c, std::uint64_t i) const {
        const std::size_t n = order_.size();
        return order_[(c * n / kServeConnections + i) % n];
    }

    /// Test rows of the k-th kBatchRows-row batch.
    std::vector<std::size_t> BatchRows(std::uint64_t k) const {
        std::vector<std::size_t> rows;
        for (std::size_t j = 0; j < kBatchRows; ++j) {
            rows.push_back(order_[(k * kBatchRows + j) % order_.size()]);
        }
        return rows;
    }

    std::vector<std::vector<ItemId>> Transactions(const std::vector<std::size_t>& rows) const {
        std::vector<std::vector<ItemId>> out;
        for (std::size_t row : rows) out.push_back(corpus_.test.transaction(row));
        return out;
    }

    const dfp::TransactionDatabase& test() const { return corpus_.test; }
    const std::vector<ClassLabel>& offline() const { return offline_; }
    const std::string& line(std::size_t row) const { return lines_[row]; }
    const std::string& model_path() const { return model_path_; }
    serve::ModelRegistry& registry() { return *registry_; }
    serve::ScoringEngine& engine() { return *engine_; }
    serve::RequestDispatcher& dispatcher() { return server_->dispatcher(); }
    serve::ServeClient& client(std::size_t c) { return clients_[c]; }

  private:
    PlantedCorpus corpus_;
    std::string model_path_;
    std::vector<ClassLabel> offline_;
    std::vector<std::string> lines_;
    std::vector<std::size_t> order_;
    std::unique_ptr<serve::ModelRegistry> registry_;
    std::unique_ptr<serve::ScoringEngine> engine_;
    std::unique_ptr<serve::PredictionServer> server_;
    std::vector<serve::ServeClient> clients_;
};

/// Which public call the open loop drives.
enum class Path {
    kTcp,       ///< ServeClient over the loopback connection
    kDispatch,  ///< RequestDispatcher::HandleLine, in process
    kEngine,    ///< ScoringEngine::Predict, in process
};

/// Per-request samples are floats in vectors reserved before the loop, so
/// the benchmark's own bookkeeping adds 8-16 bytes per request to the peak
/// RSS and no reallocation copies.
struct LoopResult {
    std::vector<float> op_ms;         ///< per request: from due time to answer
    std::vector<float> done_s;        ///< per request: completion, from loop start
    std::vector<float> lag_ms;        ///< per request: send time − due time
    std::vector<float> from_send_us;  ///< per request: from send to answer
    std::vector<double> reload_ms;
    std::uint64_t offered = 0;    ///< requests due inside the window
    std::uint64_t completed = 0;  ///< answered successfully
    std::uint64_t errors = 0;     ///< answered with an error
    std::uint64_t unsent = 0;     ///< fell due but never sent (backlog)
    std::uint64_t late = 0;       ///< sent more than kLateMs after due
    /// The largest, over connections, median lateness of a connection's
    /// last tenth of requests. A backlog that grows leaves
    /// this above kLateMs; stalls that the loop recovers from do not.
    double final_lag_ms = 0.0;
    std::uint64_t mismatches = 0;  ///< served label != offline label
    std::uint64_t reload_failures = 0;
    std::uint64_t batches = 0;     ///< engine micro-batches (dfp.serve.batch_size)
    double batched_rows = 0.0;     ///< rows in those micro-batches
    std::vector<int> served;       ///< label served per test row (-1 = never)
};

std::vector<double> Doubles(const std::vector<float>& v) {
    return std::vector<double>(v.begin(), v.end());
}

double MedianOf(const std::vector<float>& v) { return Median(Doubles(v)); }

/// Reserves room for `n` requests in every per-request vector.
void Reserve(LoopResult* r, std::size_t n) {
    r->op_ms.reserve(n);
    r->done_s.reserve(n);
    r->lag_ms.reserve(n);
    r->from_send_us.reserve(n);
}

/// Folds `parts` into the first one (vectors appended into its reserved
/// room, counters summed).
LoopResult MergeParts(std::vector<LoopResult>& parts) {
    LoopResult into = std::move(parts[0]);
    auto append = [](auto* a, const auto& b) { a->insert(a->end(), b.begin(), b.end()); };
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const LoopResult& part = parts[i];
        append(&into.op_ms, part.op_ms);
        append(&into.done_s, part.done_s);
        append(&into.lag_ms, part.lag_ms);
        append(&into.from_send_us, part.from_send_us);
        append(&into.reload_ms, part.reload_ms);
        into.offered += part.offered;
        into.completed += part.completed;
        into.errors += part.errors;
        into.unsent += part.unsent;
        into.late += part.late;
        into.final_lag_ms = std::max(into.final_lag_ms, part.final_lag_ms);
        into.mismatches += part.mismatches;
        into.reload_failures += part.reload_failures;
        into.batches += part.batches;
        into.batched_rows += part.batched_rows;
        for (std::size_t r = 0; r < part.served.size(); ++r) {
            if (part.served[r] >= 0) into.served[r] = part.served[r];
        }
    }
    return into;
}

std::pair<std::uint64_t, double> BatchHistogram() {
    const auto snap = dfp::obs::Registry::Get().Snapshot();
    const auto it = snap.histograms.find("dfp.serve.batch_size");
    if (it == snap.histograms.end()) return {0, 0.0};
    return {it->second.count, it->second.sum};
}

/// Records one answered request's label into `out`.
void Record(const ServeStack& stack, std::size_t row, std::optional<ClassLabel> label,
            LoopResult* out) {
    if (!label) {
        ++out->errors;
        return;
    }
    ++out->completed;
    if (*label != stack.offline()[row]) ++out->mismatches;
    out->served[row] = static_cast<int>(*label);
}

/// Sends test row `row` along `path` on connection `c`. `done` is stamped
/// when the call returns, before an in-process response line is decoded.
/// Returns the served label (nullopt on error).
std::optional<ClassLabel> Send(ServeStack& stack, Path path, std::size_t c, std::size_t row,
                               std::vector<ItemId> items, Clock::time_point* done) {
    std::optional<ClassLabel> label;
    auto take = [&](const auto& result) {
        *done = Clock::now();
        if (result.ok()) label = result->label;
    };
    switch (path) {
        case Path::kTcp:
            take(stack.client(c).Predict(items));
            break;
        case Path::kDispatch: {
            const std::string response = stack.dispatcher().HandleLine(stack.line(row));
            *done = Clock::now();
            label = LabelOf(response);
            break;
        }
        case Path::kEngine:
            take(stack.engine().Predict(std::move(items)));
            break;
    }
    return label;
}

/// Open loop at kServeRatePerConnection per connection for `seconds`, with a
/// reload every kReloadIntervalS when `reloads` is set.
LoopResult OpenLoop(ServeStack& stack, double seconds, Path path, bool reloads) {
    const auto [batches_before, batch_rows_before] = BatchHistogram();
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto end = start + std::chrono::duration<double>(seconds);
    const auto give_up = end + std::chrono::duration<double>(kDrainGraceS);
    const std::size_t n = stack.test().num_transactions();
    std::vector<LoopResult> parts(kServeConnections);
    const auto per_connection =
        static_cast<std::size_t>(std::ceil(seconds * kServeRatePerConnection)) + 1;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kServeConnections; ++c) {
        threads.emplace_back([&, c] {
            LoopResult& out = parts[c];
            out.served.assign(n, -1);
            Reserve(&out, per_connection * (c == 0 ? kServeConnections : 1));
            const double phase = static_cast<double>(c) / kServeConnections;
            for (std::uint64_t i = 0;; ++i) {
                const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(
                                                 (static_cast<double>(i) + phase) /
                                                 kServeRatePerConnection));
                if (due >= end) break;
                ++out.offered;
                if (Clock::now() > give_up) {
                    ++out.unsent;
                    continue;
                }
                const std::size_t row = stack.RowOf(c, i);
                std::vector<ItemId> items = stack.test().transaction(row);
                std::this_thread::sleep_until(due);
                const auto sent = Clock::now();
                Clock::time_point done;
                const std::optional<ClassLabel> label =
                    Send(stack, path, c, row, std::move(items), &done);
                Record(stack, row, label, &out);
                if (!label) continue;
                const double lag = SecondsBetween(due, sent) * 1e3;
                out.op_ms.push_back(static_cast<float>(SecondsBetween(due, done) * 1e3));
                out.done_s.push_back(static_cast<float>(SecondsBetween(start, done)));
                out.lag_ms.push_back(static_cast<float>(lag));
                out.from_send_us.push_back(static_cast<float>(SecondsBetween(sent, done) * 1e6));
                if (lag > kLateMs) ++out.late;
            }
            const std::size_t last = out.lag_ms.size() / 10;
            out.final_lag_ms = Median(std::vector<double>(out.lag_ms.end() - last, out.lag_ms.end()));
        });
    }
    if (reloads) {
        LoopResult& out = parts[0];
        for (int k = 1;; ++k) {
            const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(k * kReloadIntervalS));
            if (at >= end) break;
            std::this_thread::sleep_until(at);
            const auto t0 = Clock::now();
            const auto reloaded = stack.registry().Reload(stack.model_path());
            out.reload_ms.push_back(MsSince(t0));
            if (!reloaded.ok()) ++out.reload_failures;
        }
    }
    for (auto& t : threads) t.join();
    const auto [batches_after, batch_rows_after] = BatchHistogram();
    parts[0].batches = batches_after - batches_before;
    parts[0].batched_rows = batch_rows_after - batch_rows_before;
    return MergeParts(parts);
}

/// Output checks shared by every phase: a served label must equal the
/// offline LoadedModel::Predict label, and nothing may fail.
void CheckServed(const LoopResult& r, const char* phase) {
    if (r.mismatches > 0) {
        CheckFailed(std::string(phase) + ": " + std::to_string(r.mismatches) +
                    " served labels differ from offline LoadedModel::Predict");
    }
    if (r.reload_failures > 0) CheckFailed(std::string(phase) + ": a hot reload failed");
}

/// Accuracy of the served labels over the whole test set (every row must
/// have been served at least once).
double ServedAccuracy(const ServeStack& stack, const LoopResult& r) {
    std::size_t correct = 0;
    for (std::size_t row = 0; row < stack.test().num_transactions(); ++row) {
        Require(r.served[row] >= 0, "run too short to serve every test row");
        if (static_cast<ClassLabel>(r.served[row]) == stack.test().label(row)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(stack.test().num_transactions());
}

template <typename Fn>
double MedianUs(std::size_t samples, Fn&& fn) {
    std::vector<double> us;
    us.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) us.push_back(fn(i));
    return Median(us);
}

/// ParseServeRequest, RenderPredictResponse and PatternMatchIndex::EncodeInto
/// timed one call at a time on the workload's own request lines.
struct ProtocolTimes {
    double parse_us, render_us, encode_us;
};
ProtocolTimes TimeProtocol(ServeStack& stack) {
    const std::size_t n = stack.test().num_transactions();
    std::vector<serve::ServeRequest> requests;
    ProtocolTimes t{};
    t.parse_us = MedianUs(kMicroSamples, [&](std::size_t i) {
        const auto start = Clock::now();
        auto parsed = serve::ParseServeRequest(stack.line(i % n));
        const double us = UsSince(start);
        Require(parsed.ok(), "ParseServeRequest: " + parsed.status().ToString());
        if (requests.size() < n) requests.push_back(std::move(parsed).value());
        return us;
    });
    const std::uint64_t version = stack.registry().current_version();
    t.render_us = MedianUs(kMicroSamples, [&](std::size_t i) {
        const std::size_t row = i % n;
        const serve::Prediction prediction{stack.offline()[row], version};
        const auto start = Clock::now();
        const std::string out = serve::RenderPredictResponse(requests[row], prediction, 0.25);
        const double us = UsSince(start);
        if (LabelOf(out) != prediction.label) CheckFailed("rendered response unreadable");
        return us;
    });
    const serve::ServablePtr servable = stack.registry().Snapshot();
    serve::PatternMatchIndex::Scratch scratch;
    t.encode_us = MedianUs(kMicroSamples, [&](std::size_t i) {
        const auto& txn = stack.test().transaction(i % n);
        const auto start = Clock::now();
        servable->index.InitScratch(&scratch);
        servable->index.EncodeInto(txn, &scratch);
        const double us = UsSince(start);
        if (servable->model.learner().Predict(scratch.encoded) != stack.offline()[i % n]) {
            CheckFailed("EncodeInto + learner label differs from offline");
        }
        return us;
    });
    return t;
}

/// Predictions over the span from the loop's start to its last answer.
double OverallRate(const LoopResult& r) {
    if (r.done_s.empty()) return 0.0;
    return static_cast<double>(r.completed) /
           *std::max_element(r.done_s.begin(), r.done_s.end());
}

/// The phases of a traced run: the gated TCP loop as is, with its reloads,
/// and the same load driven straight into RequestDispatcher::HandleLine and
/// into ScoringEngine::Predict. They run interleaved in rounds of about
/// kRoundS so all three see the same host conditions.
struct TracedPhases {
    LoopResult tcp, dispatch, engine;
};

TracedPhases RunTracedPhases(ServeStack& stack, double seconds) {
    const int rounds = std::max(1, static_cast<int>(std::lround(seconds / kRoundS)));
    const double slice = seconds / rounds;
    std::vector<LoopResult> tcp, dispatch, engine;
    for (int r = 0; r < rounds; ++r) {
        tcp.push_back(OpenLoop(stack, slice * 0.6, Path::kTcp, true));
        dispatch.push_back(OpenLoop(stack, slice * 0.2, Path::kDispatch, false));
        engine.push_back(OpenLoop(stack, slice * 0.2, Path::kEngine, false));
    }
    TracedPhases phases{MergeParts(tcp), MergeParts(dispatch), MergeParts(engine)};
    for (const auto* p : {&phases.tcp, &phases.dispatch, &phases.engine}) {
        CheckServed(*p, "traced run");
    }
    return phases;
}

/// ScoringEngine::PredictBatch on kBatchRows-row batches, one call at a
/// time: the scoring path that bypasses the admission queue.
double TimePredictBatchUs(ServeStack& stack) {
    const std::size_t batches = stack.test().num_transactions() / kBatchRows;
    return MedianUs(kMicroSamples / 8, [&](std::size_t i) {
        const std::vector<std::size_t> rows = stack.BatchRows(i % batches);
        std::vector<std::vector<ItemId>> transactions = stack.Transactions(rows);
        const auto start = Clock::now();
        auto predictions = stack.engine().PredictBatch(std::move(transactions));
        const double us = UsSince(start);
        Require(predictions.ok(), "PredictBatch: " + predictions.status().ToString());
        for (std::size_t j = 0; j < rows.size(); ++j) {
            if ((*predictions)[j].label != stack.offline()[rows[j]]) {
                CheckFailed("PredictBatch label differs from offline");
            }
        }
        return us;
    });
}

/// Whether the loop kept up with its schedule (see kLateMs).
bool LatencyValid(const LoopResult& r) { return r.unsent == 0 && r.final_lag_ms <= kLateMs; }

/// Requests that count as failed: errors and unsent ones, plus, when the
/// backlog grew, every request sent late, so an invalid run shows in the
/// result line and not only in the detail line.
std::uint64_t FailedRequests(const LoopResult& r) {
    return r.errors + r.unsent + (LatencyValid(r) ? 0 : r.late);
}

void AddLoopDetail(Report* report, const LoopResult& r) {
    const Tail lag_tail = TailOf(Doubles(r.lag_ms));
    const bool valid = LatencyValid(r);
    std::ostringstream out;
    out << "{\"offered\":" << r.offered << ",\"completed\":" << r.completed
        << ",\"errors\":" << r.errors
        << ",\"offered_per_s\":" << kServeRatePerConnection * kServeConnections
        << ",\"unsent\":" << r.unsent << ",\"late\":" << r.late
        << ",\"final_lag_ms\":" << r.final_lag_ms
        << ",\"gen_lag_p50_ms\":" << Median(Doubles(r.lag_ms))
        << ",\"gen_lag_tail_ms\":" << lag_tail.value
        << ",\"gen_lag_tail_percentile\":" << lag_tail.percentile
        << ",\"reloads\":" << r.reload_ms.size()
        << ",\"latency_valid\":" << (valid ? "true" : "false") << "}";
    report->Detail("load", out.str());
    if (!valid) {
        std::fprintf(stderr,
                     "perfbench: serve backlog grew (unsent %llu of %llu, final lateness "
                     "%.3f ms): latencies are not valid for the offered rate; the %llu late "
                     "requests count as failed\n",
                     static_cast<unsigned long long>(r.unsent),
                     static_cast<unsigned long long>(r.offered), r.final_lag_ms,
                     static_cast<unsigned long long>(r.late));
    }
}

}  // namespace

int RunServe(const Args& args, Report* report) {
    ServeStack stack;
    const double setup_s = SetupSeconds(report, [&] { stack.Build(args); });

    if (!args.trace) {
        const LoopResult r = OpenLoop(stack, args.seconds, Path::kTcp, true);
        // Read before the summaries below allocate.
        const double peak_rss_mb = PeakRssMb();
        CheckServed(r, "serve");
        AddLoopDetail(report, r);
        report->attempted = r.offered;
        report->failed = FailedRequests(r);
        report->Metric("setup_s", setup_s, "s");
        report->Metric("peak_rss_mb", peak_rss_mb, "MB");
        // Latency here is set by the engine's batch timer and the loopback
        // more than by CPU speed, so it is not host-corrected: one window.
        AddOpLatency(report, {OpWindow{Doubles(r.op_ms), {}}});
        // Completed predictions over the loop's span, which is the offered
        // rate unless the backlog grows.
        report->Metric("throughput_per_s", OverallRate(r), "1/s");
        report->Metric("accuracy", ServedAccuracy(stack, r), "ratio");
        return 0;
    }

    const auto [tcp, dispatch, engine] = RunTracedPhases(stack, args.seconds);
    const ProtocolTimes proto = TimeProtocol(stack);
    const double predict_batch_us = TimePredictBatchUs(stack);
    AddLoopDetail(report, tcp);

    const double op_p50 = MedianOf(tcp.op_ms);
    const double gen_lag_ms = MedianOf(tcp.lag_ms);
    const double dispatch_us = MedianOf(dispatch.from_send_us);
    const double predict_us = MedianOf(engine.from_send_us);
    const double transport_us = MedianOf(tcp.from_send_us) - dispatch_us;
    report->attempted = tcp.offered + dispatch.offered + engine.offered;
    report->failed = FailedRequests(tcp) + FailedRequests(dispatch) + FailedRequests(engine);
    report->Metric("serve.index.encode_us", proto.encode_us, "us");
    report->Metric("serve.engine.predict_us", predict_us, "us");
    report->Metric("serve.engine.predict_batch_us", predict_batch_us, "us");
    report->Metric("serve.engine.batch_size",
                   tcp.batches > 0 ? tcp.batched_rows / static_cast<double>(tcp.batches) : 0.0,
                   "count");
    report->Metric("serve.protocol.parse_us", proto.parse_us, "us");
    report->Metric("serve.protocol.render_us", proto.render_us, "us");
    report->Metric("serve.dispatch_us", dispatch_us, "us");
    report->Metric("serve.transport_us", transport_us, "us");
    report->Metric("serve.registry.reload_ms", Median(tcp.reload_ms), "ms");
    report->Metric("serve.gen_lag_ms", gen_lag_ms, "ms");
    report->Metric("serve.unattributed_us",
                   op_p50 * 1e3 - (gen_lag_ms * 1e3 + transport_us + proto.parse_us +
                                   predict_us + proto.render_us),
                   "us");
    report->Metric("trace.op_p50_ms", op_p50, "ms");
    // The TCP loop of a traced run is the gated loop unchanged: every
    // per-layer figure comes from the separate HandleLine and engine phases
    // and the one-call-at-a-time timings after them. Tracing adds nothing to
    // the measured requests, so the overhead is zero by construction.
    report->Metric("trace.overhead_ms", 0.0, "ms");
    return 0;
}

}  // namespace perfbench
