// stream: stream::ContinuousTrainer over a four-phase drifting stream
// (testutil::DriftSource), window kWindow rows, retrain every kRetrainEvery
// rows, pipeline at kThreads threads. Ingest and MaybeRetrain run inline on
// one thread, so the retrain schedule and the prequential accuracy are the
// same on every pass of a seed. An op is one retrain: from the Ingest that
// armed it to the published model. The significance test is off, so this
// workload bypasses the stats layer; it exercises the stream layer, model
// save, registry reload and the parallel layer's fan-out on small jobs.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "serve/registry.hpp"
#include "stream/streaming_db.hpp"
#include "stream/trainer.hpp"
#include "stream/window_miner.hpp"
#include "testutil/drift_source.hpp"

namespace perfbench {

namespace {

using dfp::ClassLabel;
namespace stream = dfp::stream;
namespace serve = dfp::serve;

constexpr std::size_t kPhases = 4;
constexpr std::size_t kRowsPerPhase = 8192;
constexpr std::size_t kWindow = 2048;
constexpr std::size_t kRetrainEvery = 1024;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kThreads = 2;
// A reference-kernel sample is taken before every kHostSampleEvery-th
// Ingest, outside the timed calls: 8 samples per pass.
constexpr std::size_t kHostSampleEvery = 16;

// The drift source's concepts and their order stay fixed; --seed shuffles
// the rows within each phase, so every seed streams the same four concepts
// and does comparable work.
constexpr std::uint64_t kSourceSeed = 7;

struct StreamState {
    /// The whole stream, cut into kBatch-row Ingest calls.
    std::vector<stream::TransactionBatch> batches;
    stream::StreamConfig stream_config;
    stream::ContinuousTrainerConfig trainer_config;
};

/// One full pass over the stream with a fresh database, registry and
/// trainer.
struct PassResult {
    std::vector<double> op_ms;      ///< per retrain
    std::vector<double> ingest_us;  ///< per Ingest call
    std::vector<double> ref_ms;     ///< reference-kernel samples
    double busy_s = 0.0;            ///< inside Ingest + MaybeRetrain
    std::uint64_t rows = 0;
    std::uint64_t retrains = 0;
    std::uint64_t scored = 0;   ///< rows predicted before they trained
    std::uint64_t correct = 0;  ///< ... and predicted right
    // Traced passes: the retrain rebuilt from public calls, per retrain.
    std::vector<double> mine_ms, train_ms, train_t1_ms, save_ms, reload_ms, tasks;
};

std::vector<dfp::Itemset> ItemsetsOf(const dfp::FeatureSpace& space) {
    std::vector<dfp::Itemset> out;
    for (const dfp::Pattern& p : space.patterns()) out.push_back(p.items);
    return out;
}

/// Rebuilds the retrain that just published from public calls, timing each
/// stage: WindowMiner::MineWindow over SnapshotWindow(), TrainWithCandidates
/// at kThreads and at 1 thread, SavePipelineModelToFile and
/// ModelRegistry::Reload (into a scratch registry). Both trained selections
/// must equal the model the trainer published.
void TimeRetrainStages(const StreamState& s, const stream::StreamingDatabase& db,
                       const serve::ModelRegistry& published, const std::string& path,
                       PassResult* out) {
    const std::shared_ptr<const dfp::TransactionDatabase> window = db.SnapshotWindow();
    dfp::MinerConfig mc = s.trainer_config.pipeline.miner;
    mc.include_singletons = false;

    auto start = Clock::now();
    auto miner = stream::MakeWindowMiner(s.trainer_config.window_miner, window->num_items());
    for (std::size_t t = 0; t < window->num_transactions(); ++t) {
        miner->Insert(window->transaction(t));
    }
    auto mined = miner->MineWindow(mc);
    out->mine_ms.push_back(MsSince(start));
    Require(mined.ok(), "MineWindow: " + mined.status().ToString());

    auto train_at = [&](std::size_t threads, std::vector<double>* ms) {
        dfp::PipelineConfig config = s.trainer_config.pipeline;
        config.num_threads = threads;
        auto learner = dfp::MakeLearnerByTypeId(s.trainer_config.learner_type);
        Require(learner.ok(), "MakeLearnerByTypeId");
        auto pipeline = std::make_unique<dfp::PatternClassifierPipeline>(config);
        const auto t0 = Clock::now();
        const dfp::Status st =
            pipeline->TrainWithCandidates(*window, *mined, std::move(learner).value());
        ms->push_back(MsSince(t0));
        Require(st.ok(), "TrainWithCandidates: " + st.ToString());
        return pipeline;
    };
    const std::uint64_t tasks_before = CounterValue("dfp.parallel.tasks_spawned");
    const auto threaded = train_at(kThreads, &out->train_ms);
    out->tasks.push_back(
        static_cast<double>(CounterValue("dfp.parallel.tasks_spawned") - tasks_before));
    const auto serial = train_at(1, &out->train_t1_ms);

    const auto expected = ItemsetsOf(published.Snapshot()->model.feature_space());
    if (ItemsetsOf(threaded->feature_space()) != expected ||
        ItemsetsOf(serial->feature_space()) != expected) {
        CheckFailed("stream: retrain rebuilt from public calls differs from the published model");
    }

    start = Clock::now();
    const dfp::Status saved = dfp::SavePipelineModelToFile(*threaded, path);
    out->save_ms.push_back(MsSince(start));
    Require(saved.ok(), "SavePipelineModelToFile: " + saved.ToString());

    serve::ModelRegistry scratch;
    start = Clock::now();
    const auto reloaded = scratch.Reload(path);
    out->reload_ms.push_back(MsSince(start));
    Require(reloaded.ok(), "Reload: " + reloaded.status().ToString());
}

/// The source's rows with each phase's rows shuffled by `seed`, cut into
/// kBatch-row batches.
std::vector<stream::TransactionBatch> SeededStream(dfp::testutil::DriftSource* source,
                                                   std::uint64_t seed) {
    dfp::Rng rng(seed);
    std::vector<stream::TransactionBatch> phases;
    for (std::size_t p = 0; p < source->num_phases(); ++p) {
        phases.push_back(source->NextBatch(kRowsPerPhase));
    }
    std::vector<stream::TransactionBatch> batches;
    for (const stream::TransactionBatch& phase : phases) {
        std::vector<std::size_t> order(phase.size());
        for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t begin = 0; begin < order.size(); begin += kBatch) {
            stream::TransactionBatch batch;
            for (std::size_t r = begin; r < std::min(begin + kBatch, order.size()); ++r) {
                batch.transactions.push_back(phase.transactions[order[r]]);
                batch.labels.push_back(phase.labels[order[r]]);
            }
            batches.push_back(std::move(batch));
        }
    }
    return batches;
}

PassResult RunPass(const StreamState& s, const std::string& model_dir, bool traced) {
    PassResult out;
    auto db = stream::StreamingDatabase::Create(s.stream_config);
    Require(db.ok(), "StreamingDatabase: " + db.status().ToString());
    serve::ModelRegistry registry;
    stream::ContinuousTrainerConfig config = s.trainer_config;
    config.model_dir = model_dir;
    auto trainer = stream::ContinuousTrainer::Create(config, db->get(), &registry);
    Require(trainer.ok(), "ContinuousTrainer: " + trainer.status().ToString());
    const std::string replica_path = model_dir + "/replica.dfp";

    for (std::size_t b = 0; b < s.batches.size(); ++b) {
        stream::TransactionBatch batch = s.batches[b];
        if (b % kHostSampleEvery == 0) out.ref_ms.push_back(ReferenceKernelMs());
        out.rows += batch.size();
        // Prequential (test-then-train) accuracy of the served model.
        if (const serve::ServablePtr snap = registry.Snapshot()) {
            for (std::size_t t = 0; t < batch.size(); ++t) {
                ++out.scored;
                if (snap->model.Predict(batch.transactions[t]) == batch.labels[t]) ++out.correct;
            }
        }
        const auto start = Clock::now();
        const auto ingested = (*trainer)->Ingest(std::move(batch));
        const auto ingested_at = Clock::now();
        Require(ingested.ok(), "Ingest: " + ingested.status().ToString());
        const auto retrained = (*trainer)->MaybeRetrain();
        const auto done = Clock::now();
        Require(retrained.ok(), "MaybeRetrain: " + retrained.status().ToString());
        out.ingest_us.push_back(SecondsBetween(start, ingested_at) * 1e6);
        out.busy_s += SecondsBetween(start, done);
        if (*retrained) {
            out.op_ms.push_back(SecondsBetween(start, done) * 1e3);
            if (traced) TimeRetrainStages(s, **db, registry, replica_path, &out);
        }
    }
    const stream::TrainerStats stats = (*trainer)->stats();
    Require(stats.retrain_failures == 0, "a retrain failed");
    out.retrains = stats.retrains;
    return out;
}

}  // namespace

int RunStream(const Args& args, Report* report) {
    const std::string model_dir =
        args.workdir + "/stream_" + std::to_string(::getpid());
    StreamState state;
    PassResult reference;
    const double setup_s = SetupSeconds(report, [&] {
        state = StreamState{};
        dfp::testutil::DriftSourceConfig source_config;
        source_config.num_phases = kPhases;
        source_config.rows_per_phase = kRowsPerPhase;
        source_config.eval_rows = 16;
        source_config.attributes = 10;
        source_config.seed = kSourceSeed;
        dfp::testutil::DriftSource source(source_config);
        state.batches = SeededStream(&source, args.seed);

        state.stream_config.num_items = source.num_items();
        state.stream_config.num_classes = source.num_classes();
        state.stream_config.window_capacity = kWindow;

        dfp::PipelineConfig& pipeline = state.trainer_config.pipeline;
        pipeline.miner.min_sup_rel = 0.10;
        pipeline.miner.max_pattern_len = 4;
        pipeline.mmrfs.coverage_delta = 2;
        pipeline.num_threads = kThreads;
        state.trainer_config.learner_type = "nb";
        state.trainer_config.retrain_every = kRetrainEvery;
        state.trainer_config.min_window = kRetrainEvery;
        state.trainer_config.drift_trigger = false;
        // Warm-up pass: also the reference every measured pass must match.
        reference = RunPass(state, model_dir, false);
    });

    // The retrain schedule and prequential accuracy are deterministic: every
    // pass must reproduce the warm-up pass exactly.
    auto check = [&](const PassResult& p) {
        if (p.retrains != reference.retrains || p.op_ms.size() != reference.op_ms.size()) {
            CheckFailed("stream: retrain count differs between passes of one seed");
        }
        if (p.correct != reference.correct || p.scored != reference.scored) {
            CheckFailed("stream: prequential accuracy differs between passes of one seed");
        }
    };
    const double accuracy =
        static_cast<double>(reference.correct) / static_cast<double>(reference.scored);
    report->DetailNumber("rows_per_pass", static_cast<double>(reference.rows));
    report->DetailNumber("retrains_per_pass", static_cast<double>(reference.retrains));

    const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
    std::vector<PassResult> passes;
    std::vector<PassResult> traced_passes;
    while (passes.empty() || Clock::now() < deadline) {
        passes.push_back(RunPass(state, model_dir, false));
        check(passes.back());
        if (args.trace) {
            traced_passes.push_back(RunPass(state, model_dir, true));
            check(traced_passes.back());
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(model_dir, ec);

    auto gather = [](const std::vector<PassResult>& ps, std::vector<double> PassResult::*field) {
        std::vector<double> all;
        for (const PassResult& p : ps) {
            all.insert(all.end(), (p.*field).begin(), (p.*field).end());
        }
        return all;
    };
    report->attempted = 0;
    for (const auto* ps : {&passes, &traced_passes}) {
        for (const PassResult& p : *ps) report->attempted += p.op_ms.size();
    }

    if (!args.trace) {
        // A window is one pass. Rows per second of the median pass, scaled
        // to the reference speed like the op latency; the uncorrected
        // overall rate goes to the detail line.
        double busy_s = 0.0;
        std::uint64_t rows = 0;
        std::vector<double> pass_rates;
        std::vector<OpWindow> windows;
        for (const PassResult& p : passes) {
            busy_s += p.busy_s;
            rows += p.rows;
            OpWindow window{p.op_ms, p.ref_ms};
            pass_rates.push_back(static_cast<double>(p.rows) / (p.busy_s * window.HostFactor()));
            windows.push_back(std::move(window));
        }
        report->DetailNumber("passes", static_cast<double>(passes.size()));
        report->DetailNumber("rows_per_s_overall", static_cast<double>(rows) / busy_s);
        report->Metric("setup_s", setup_s, "s");
        report->Metric("peak_rss_mb", PeakRssMb(), "MB");
        AddOpLatency(report, windows);
        report->Metric("throughput_per_s", Median(pass_rates), "1/s");
        report->Metric("accuracy", accuracy, "ratio");
        return 0;
    }

    const double op_p50 = Median(gather(traced_passes, &PassResult::op_ms));
    const double untraced_p50 = Median(gather(passes, &PassResult::op_ms));
    const double ingest_us = Median(gather(traced_passes, &PassResult::ingest_us));
    const double mine = Median(gather(traced_passes, &PassResult::mine_ms));
    const double train = Median(gather(traced_passes, &PassResult::train_ms));
    const double train_t1 = Median(gather(traced_passes, &PassResult::train_t1_ms));
    const double save = Median(gather(traced_passes, &PassResult::save_ms));
    const double reload = Median(gather(traced_passes, &PassResult::reload_ms));
    report->Metric("stream.ingest_us", ingest_us, "us");
    report->Metric("stream.window.mine_ms", mine, "ms");
    report->Metric("stream.train_ms", train, "ms");
    report->Metric("stream.train_t1_ms", train_t1, "ms");
    report->Metric("parallel.speedup", train_t1 / train, "ratio");
    report->Metric("parallel.tasks_spawned", Median(gather(traced_passes, &PassResult::tasks)),
                   "count");
    report->Metric("core.model_io.save_ms", save, "ms");
    report->Metric("serve.registry.reload_ms", reload, "ms");
    report->Metric("stream.retrain.unattributed_ms",
                   op_p50 - (ingest_us / 1e3 + mine + train + save + reload), "ms");
    report->Metric("trace.op_p50_ms", op_p50, "ms");
    report->Metric("trace.overhead_ms", op_p50 - untraced_p50, "ms");
    report->DetailNumber("untraced_op_p50_ms", untraced_p50);
    return 0;
}

}  // namespace perfbench
