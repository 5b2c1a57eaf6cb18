// Quickstart: train a frequent-pattern classifier in ~40 lines.
//
//   1. get a class-labelled transaction database (here: synthetic data),
//   2. configure the pipeline (min_sup, MMRFS coverage δ),
//   3. train any learner on the augmented feature space I ∪ Fs,
//   4. predict.
//
// Build & run:  ./build/examples/quickstart
// With a machine-readable run report (metrics + nested phase timings):
//               ./build/examples/quickstart --report out.json
// With an execution budget (graceful degradation instead of runaway mining):
//               ./build/examples/quickstart --time-budget-ms 200 --max-patterns 5000
// Parallel mining/selection/training (results identical at any thread count;
// default 0 = one worker per hardware thread):
//               ./build/examples/quickstart --threads 4
// Serving smoke path (save → load → in-process scoring engine → verify the
// served predictions match offline exactly):
//               ./build/examples/quickstart --serve
// Statistical-significance filter in front of MMRFS (chi2 | fisher | odds,
// multiple-testing correction across the candidate set; DESIGN.md §18):
//               ./build/examples/quickstart --sig-test=chi2 --alpha 0.05 --correction=bh
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/svm/svm.hpp"
#include "obs/report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
    using namespace dfp;

    // Optional flags:
    //   --report <path>          dump a JSON run report (metrics/guard/spans)
    //   --time-budget-ms <ms>    wall-clock budget for the whole Train
    //   --max-patterns <n>       cap on mined pattern candidates
    //   --threads <n>            worker threads (0 = hardware_concurrency)
    //   --metrics-out <path>     final Prometheus snapshot of every dfp.*
    //                            metric (atomic write; point a file-based
    //                            scraper at it)
    //   --sig-test <t>           significance filter: none|chi2|fisher|odds
    //   --alpha <a>              significance level (default 0.05)
    //   --correction <c>         multiple-testing correction: none|bonferroni|bh
    std::string report_path;
    std::string metrics_out;
    std::string sig_test = "none";
    std::string correction = "bh";
    double alpha = 0.05;
    double time_budget_ms = -1.0;
    std::size_t max_patterns = 0;
    std::size_t threads = 0;
    bool serve = false;
    auto flag_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: %s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--report") == 0) {
            report_path = flag_value(i, "--report");
        } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
            report_path = argv[i] + 9;
        } else if (std::strcmp(argv[i], "--time-budget-ms") == 0) {
            time_budget_ms = std::atof(flag_value(i, "--time-budget-ms"));
        } else if (std::strncmp(argv[i], "--time-budget-ms=", 17) == 0) {
            time_budget_ms = std::atof(argv[i] + 17);
        } else if (std::strcmp(argv[i], "--max-patterns") == 0) {
            max_patterns = static_cast<std::size_t>(
                std::strtoull(flag_value(i, "--max-patterns"), nullptr, 10));
        } else if (std::strncmp(argv[i], "--max-patterns=", 15) == 0) {
            max_patterns = static_cast<std::size_t>(
                std::strtoull(argv[i] + 15, nullptr, 10));
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            threads = static_cast<std::size_t>(
                std::strtoull(flag_value(i, "--threads"), nullptr, 10));
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            threads = static_cast<std::size_t>(
                std::strtoull(argv[i] + 10, nullptr, 10));
        } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
            metrics_out = flag_value(i, "--metrics-out");
        } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
            metrics_out = argv[i] + 14;
        } else if (std::strcmp(argv[i], "--sig-test") == 0) {
            sig_test = flag_value(i, "--sig-test");
        } else if (std::strncmp(argv[i], "--sig-test=", 11) == 0) {
            sig_test = argv[i] + 11;
        } else if (std::strcmp(argv[i], "--alpha") == 0) {
            alpha = std::atof(flag_value(i, "--alpha"));
        } else if (std::strncmp(argv[i], "--alpha=", 8) == 0) {
            alpha = std::atof(argv[i] + 8);
        } else if (std::strcmp(argv[i], "--correction") == 0) {
            correction = flag_value(i, "--correction");
        } else if (std::strncmp(argv[i], "--correction=", 13) == 0) {
            correction = argv[i] + 13;
        } else if (std::strcmp(argv[i], "--serve") == 0) {
            serve = true;
        }
    }
    if (!report_path.empty()) obs::EnableTracing(true);

    // 1. A dataset with hidden multi-attribute structure, split 80/20.
    SyntheticSpec spec;
    spec.name = "quickstart";
    spec.rows = 1000;
    spec.attributes = 12;
    spec.classes = 2;
    spec.seed = 7;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    const auto db = TransactionDatabase::FromDataset(data, *encoder);

    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> test_rows;
    for (std::size_t r = 0; r < db.num_transactions(); ++r) {
        (r % 5 == 0 ? test_rows : train_rows).push_back(r);
    }
    const auto train = db.Subset(train_rows);
    const auto test = db.Subset(test_rows);

    // 2. Pipeline: closed patterns at 10% per-class support, MMRFS with δ=4.
    PipelineConfig config;
    config.miner.min_sup_rel = 0.10;
    config.miner.max_pattern_len = 5;
    config.mmrfs.coverage_delta = 4;
    // Execution budget: Train degrades gracefully (min_sup escalation,
    // truncated stages) instead of running away; see pipeline.budget_report().
    config.budget.time_budget_ms = time_budget_ms;
    if (max_patterns > 0) config.budget.max_patterns = max_patterns;
    // 0 = hardware_concurrency; the resolved count lands in the run report
    // as the dfp.parallel.pipeline_threads gauge.
    config.num_threads = threads;
    // Optional significance filter in front of MMRFS: candidates whose
    // 2×2 association with the label fails the corrected test never reach
    // selection (stats/significance.hpp, DESIGN.md §18).
    {
        auto parsed_test = ParseSigTest(sig_test);
        auto parsed_corr = ParseCorrection(correction);
        if (!parsed_test.ok() || !parsed_corr.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         (!parsed_test.ok() ? parsed_test.status()
                                            : parsed_corr.status())
                             .ToString()
                             .c_str());
            return 2;
        }
        config.significance.test = *parsed_test;
        config.significance.alpha = alpha;
        config.significance.correction = *parsed_corr;
    }

    // 3. Train a linear SVM on single items + selected patterns.
    PatternClassifierPipeline pipeline(config);
    const Status st = pipeline.Train(train, std::make_unique<SvmClassifier>());
    if (!st.ok()) {
        std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
        return 1;
    }

    // 4. Evaluate, and peek at what the pipeline built.
    std::printf("candidates mined : %zu closed patterns\n",
                pipeline.stats().num_candidates);
    if (config.significance.test != SigTest::kNone) {
        std::printf("significance     : %s/%s alpha=%g rejected %zu candidates\n",
                    sig_test.c_str(), correction.c_str(), alpha,
                    pipeline.stats().num_sig_rejected);
    }
    std::printf("features selected: %zu patterns (+ %zu single items)\n",
                pipeline.stats().num_selected, train.num_items());
    std::printf("test accuracy    : %.2f%%\n", 100.0 * pipeline.Accuracy(test));

    const BudgetReport& guard = pipeline.budget_report();
    if (guard.degraded()) {
        std::printf("budget           : degraded (mine=%s, select=%s, "
                    "%zu attempt(s), %zu min_sup escalation(s))\n",
                    BudgetBreachName(guard.mine_breach),
                    BudgetBreachName(guard.select_breach), guard.mine_attempts,
                    guard.minsup_escalations);
    }

    // Bonus: what does the pipeline say about one unseen transaction?
    const auto& example = test.transaction(0);
    std::printf("first test row   -> predicted class %u (true %u)\n",
                pipeline.Predict(example), test.label(0));

    // 5. Optional serving smoke path: persist the trained model, publish it
    //    through a ModelRegistry, and score the test split through the
    //    ScoringEngine via an in-process ServeClient (each predict scored
    //    inline on this thread). The served accuracy must equal the offline
    //    LoadedModel accuracy exactly — serving is scheduling, never
    //    numerics.
    if (serve) {
        std::stringstream bundle;
        Status save = SavePipelineModel(pipeline, bundle);
        if (!save.ok()) {
            std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
            return 1;
        }
        auto offline = LoadPipelineModel(bundle);
        if (!offline.ok()) {
            std::fprintf(stderr, "load failed: %s\n",
                         offline.status().ToString().c_str());
            return 1;
        }
        bundle.clear();
        bundle.seekg(0);
        auto served_model = LoadPipelineModel(bundle);
        if (!served_model.ok()) {
            std::fprintf(stderr, "load failed: %s\n",
                         served_model.status().ToString().c_str());
            return 1;
        }

        serve::ModelRegistry registry;
        registry.Install(std::move(*served_model), "quickstart");
        serve::EngineConfig engine_config;
        engine_config.num_threads = threads;
        serve::ScoringEngine engine(registry, engine_config);
        serve::RequestDispatcher dispatcher(registry, engine);
        serve::ServeClient client(dispatcher);

        std::size_t correct = 0;
        for (std::size_t t = 0; t < test.num_transactions(); ++t) {
            auto prediction = client.Predict(test.transaction(t));
            if (!prediction.ok()) {
                std::fprintf(stderr, "serve predict failed: %s\n",
                             prediction.status().ToString().c_str());
                return 1;
            }
            if (prediction->label == test.label(t)) ++correct;
        }
        const double served_accuracy =
            static_cast<double>(correct) /
            static_cast<double>(test.num_transactions());
        const double offline_accuracy = offline->Accuracy(test);
        std::printf("served accuracy  : %.2f%% over %zu requests (model v%llu)\n",
                    100.0 * served_accuracy, test.num_transactions(),
                    static_cast<unsigned long long>(registry.current_version()));
        if (served_accuracy != offline_accuracy) {
            std::fprintf(stderr,
                         "serving mismatch: served %.6f vs offline %.6f\n",
                         served_accuracy, offline_accuracy);
            return 1;
        }
        engine.Stop();
    }

    // 6. Optional run report: every dfp.* metric plus the nested span tree
    //    (train → mine[per-class] → pool_dedup → mmrfs → transform → learn).
    if (!report_path.empty()) {
        const obs::RunReport report = obs::CollectRunReport("quickstart");
        const Status wst = obs::WriteReportJsonFile(report, report_path);
        if (!wst.ok()) {
            std::fprintf(stderr, "report failed: %s\n", wst.ToString().c_str());
            return 1;
        }
        std::printf("run report       : wrote %s (%zu metrics)\n",
                    report_path.c_str(), report.metrics.TotalMetrics());
    }

    // 7. Optional Prometheus snapshot: the same text exposition a live
    //    dfp_serve --metrics-port would serve, flushed once at exit.
    if (!metrics_out.empty()) {
        const Status mst = obs::WritePrometheusFile(metrics_out);
        if (!mst.ok()) {
            std::fprintf(stderr, "metrics failed: %s\n", mst.ToString().c_str());
            return 1;
        }
        std::printf("metrics          : wrote %s\n", metrics_out.c_str());
    }
    return 0;
}
