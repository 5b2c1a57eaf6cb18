// train: a closed loop of back-to-back PatternClassifierPipeline::Train calls
// at one thread on the planted-pattern corpus, rotating through the folds of
// a seed-drawn five-fold cross-validation. Mining, the significance filter,
// MMRFS, transform and learning are the whole op, so an algorithmic change
// in fpm, stats, core or ml shows here; serial runs keep it steady on a
// shared host.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/feature_space.hpp"
#include "core/mmrfs.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "corpus.hpp"
#include "harness.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "stats/significance.hpp"

namespace perfbench {

namespace {

struct Fold {
    PlantedCorpus corpus;
    /// Selected patterns and held-out accuracy of the fold's warm-up Train:
    /// every measured op on the fold must reproduce both exactly.
    std::vector<dfp::Itemset> selected;
    double accuracy = 0.0;
};

struct TrainState {
    std::vector<Fold> folds;
    dfp::PipelineConfig config;
};

std::vector<dfp::Itemset> ItemsetsOf(const dfp::FeatureSpace& space) {
    std::vector<dfp::Itemset> out;
    out.reserve(space.patterns().size());
    for (const dfp::Pattern& p : space.patterns()) out.push_back(p.items);
    return out;
}

/// One Train op on `fold`; returns its wall milliseconds after checking its
/// outputs.
double TimedTrain(const dfp::PipelineConfig& config, const Fold& fold) {
    dfp::PatternClassifierPipeline pipeline(config);
    const auto start = Clock::now();
    const dfp::Status st = pipeline.Train(
        fold.corpus.train, std::make_unique<dfp::NaiveBayesClassifier>());
    const double ms = MsSince(start);
    Require(st.ok(), "Train: " + st.ToString());
    if (ItemsetsOf(pipeline.feature_space()) != fold.selected) {
        CheckFailed("train: selected patterns differ from the warm-up Train");
    }
    if (pipeline.Accuracy(fold.corpus.test) != fold.accuracy) {
        CheckFailed("train: held-out accuracy differs from the warm-up Train");
    }
    return ms;
}

struct StageTimes {
    double mine_ms, filter_ms, mmrfs_ms, transform_ms, learn_ms;
    double candidates, rejected, redundancy_evals;
    double Total() const {
        return mine_ms + filter_ms + mmrfs_ms + transform_ms + learn_ms;
    }
};

/// The same op rebuilt from each layer's public call, timed stage by stage.
/// It must select the same patterns and reach the same accuracy as Train.
StageTimes StagedTrain(const dfp::PipelineConfig& config, const Fold& fold) {
    const dfp::TransactionDatabase& train = fold.corpus.train;
    StageTimes t{};

    auto start = Clock::now();
    auto candidates = dfp::PatternClassifierPipeline(config).MineCandidates(train);
    t.mine_ms = MsSince(start);
    Require(candidates.ok(), "MineCandidates: " + candidates.status().ToString());
    t.candidates = static_cast<double>(candidates->size());

    start = Clock::now();
    const dfp::SignificanceResult sig =
        dfp::RunSignificanceFilter(train, *candidates, config.significance);
    t.filter_ms = MsSince(start);
    Require(sig.breach == dfp::BudgetBreach::kNone, "significance filter breached");
    t.rejected = static_cast<double>(sig.rejected);

    dfp::MmrfsConfig mmrfs = config.mmrfs;
    mmrfs.candidate_mask = &sig.keep;
    const std::uint64_t evals_before = CounterValue("dfp.core.mmrfs.redundancy_evals");
    start = Clock::now();
    const dfp::MmrfsResult selection = dfp::RunMmrfs(train, *candidates, mmrfs);
    t.mmrfs_ms = MsSince(start);
    t.redundancy_evals = static_cast<double>(
        CounterValue("dfp.core.mmrfs.redundancy_evals") - evals_before);
    std::vector<dfp::Pattern> features;
    features.reserve(selection.selected.size());
    for (std::size_t i : selection.selected) features.push_back((*candidates)[i]);

    start = Clock::now();
    dfp::FeatureSpace space = dfp::FeatureSpace::Build(train.num_items(), std::move(features));
    const dfp::FeatureMatrix x = space.Transform(train);
    t.transform_ms = MsSince(start);

    auto learner = std::make_unique<dfp::NaiveBayesClassifier>();
    start = Clock::now();
    const dfp::Status learned = learner->Train(x, train.labels(), train.num_classes());
    t.learn_ms = MsSince(start);
    Require(learned.ok(), "NaiveBayes Train: " + learned.ToString());

    if (ItemsetsOf(space) != fold.selected) {
        CheckFailed("train: stage-by-stage selection differs from Train");
    }
    const dfp::LoadedModel model(std::move(space), std::move(learner));
    if (model.Accuracy(fold.corpus.test) != fold.accuracy) {
        CheckFailed("train: stage-by-stage accuracy differs from Train");
    }
    return t;
}

}  // namespace

int RunTrain(const Args& args, Report* report) {
    TrainState state;
    double accuracy = 0.0;
    const double setup_s = SetupSeconds(report, [&] {
        state = TrainState{};
        state.config = PlantedPipelineConfig();
        std::size_t held_out = 0;
        double correct = 0.0;
        for (PlantedCorpus& corpus : MakePlantedFolds(args.seed)) {
            Fold fold{std::move(corpus), {}, 0.0};
            dfp::PatternClassifierPipeline warm(state.config);
            const dfp::Status st = warm.Train(
                fold.corpus.train, std::make_unique<dfp::NaiveBayesClassifier>());
            Require(st.ok(), "warm-up Train: " + st.ToString());
            fold.selected = ItemsetsOf(warm.feature_space());
            fold.accuracy = warm.Accuracy(fold.corpus.test);
            const std::size_t n = fold.corpus.test.num_transactions();
            held_out += n;
            correct += std::round(fold.accuracy * static_cast<double>(n));
            state.folds.push_back(std::move(fold));
        }
        // Cross-validated: every row of the corpus is held out exactly once.
        accuracy = correct / static_cast<double>(held_out);
    });
    double rows_per_op = 0.0;
    std::string selected = "[";
    for (const Fold& fold : state.folds) {
        rows_per_op += static_cast<double>(fold.corpus.train.num_transactions());
        if (selected.size() > 1) selected += ',';
        selected += std::to_string(fold.selected.size());
    }
    rows_per_op /= static_cast<double>(state.folds.size());
    report->Detail("selected_per_fold", selected + "]");
    report->DetailNumber("train_rows", rows_per_op);

    // A window is one rotation through the folds, with a reference-kernel
    // sample before each op.
    const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
    std::vector<double> op_ms;
    if (!args.trace) {
        std::vector<OpWindow> windows;
        while (windows.empty() || Clock::now() < deadline) {
            OpWindow window;
            for (const Fold& fold : state.folds) {
                window.ref_ms.push_back(ReferenceKernelMs());
                window.op_ms.push_back(TimedTrain(state.config, fold));
            }
            op_ms.insert(op_ms.end(), window.op_ms.begin(), window.op_ms.end());
            windows.push_back(std::move(window));
        }
        double busy_s = 0.0;
        for (double ms : op_ms) busy_s += ms / 1e3;
        report->attempted = op_ms.size();
        report->Metric("setup_s", setup_s, "s");
        report->Metric("peak_rss_mb", PeakRssMb(), "MB");
        const double op_p50 = AddOpLatency(report, windows);
        // Training rows per second at the host-corrected op median; the
        // uncorrected mean rate over every op goes to the detail line.
        report->Metric("throughput_per_s", rows_per_op / (op_p50 / 1e3), "1/s");
        report->DetailNumber("rows_per_s_overall",
                             rows_per_op * static_cast<double>(op_ms.size()) / busy_s);
        report->Metric("accuracy", accuracy, "ratio");
        return 0;
    }

    // Traced: alternate a plain Train op with the staged rebuild so both see
    // the same host conditions.
    std::vector<StageTimes> staged;
    while (staged.empty() || Clock::now() < deadline) {
        for (const Fold& fold : state.folds) {
            op_ms.push_back(TimedTrain(state.config, fold));
            staged.push_back(StagedTrain(state.config, fold));
        }
    }
    auto median_of = [&](double StageTimes::*field) {
        std::vector<double> v;
        for (const StageTimes& s : staged) v.push_back(s.*field);
        return Median(v);
    };
    std::vector<double> staged_total;
    for (const StageTimes& s : staged) staged_total.push_back(s.Total());
    const double train_p50 = Median(op_ms);
    const double mine = median_of(&StageTimes::mine_ms);
    const double filter = median_of(&StageTimes::filter_ms);
    const double mmrfs = median_of(&StageTimes::mmrfs_ms);
    const double transform = median_of(&StageTimes::transform_ms);
    const double learn = median_of(&StageTimes::learn_ms);
    report->attempted = op_ms.size() + staged.size();
    report->Metric("fpm.mine_ms", mine, "ms");
    report->Metric("fpm.candidates", median_of(&StageTimes::candidates), "count");
    report->Metric("stats.filter_ms", filter, "ms");
    report->Metric("stats.rejected", median_of(&StageTimes::rejected), "count");
    report->Metric("core.mmrfs_ms", mmrfs, "ms");
    report->Metric("core.mmrfs.redundancy_evals", median_of(&StageTimes::redundancy_evals),
                   "count");
    report->Metric("core.transform_ms", transform, "ms");
    report->Metric("ml.learn_ms", learn, "ms");
    report->Metric("train.unattributed_ms", train_p50 - (mine + filter + mmrfs + transform + learn),
                   "ms");
    report->Metric("trace.op_p50_ms", Median(staged_total), "ms");
    report->Metric("trace.overhead_ms", Median(staged_total) - train_p50, "ms");
    report->DetailNumber("untraced_op_p50_ms", train_p50);
    return 0;
}

}  // namespace perfbench
