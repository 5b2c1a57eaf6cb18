// ModelRegistry tests: versioned publish, reload error containment, and the
// hot-reload race certificate — concurrent scoring during reloads drops no
// responses and misroutes none (every response's label is correct for the
// model version it reports). Run under TSan via the tsan preset.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"

namespace dfp::serve {
namespace {

TransactionDatabase Db(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.rows = 150;
    spec.classes = 2;
    spec.attributes = 8;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

template <typename LearnerT>
LoadedModel TrainModel(const TransactionDatabase& db, double min_sup = 0.10) {
    PipelineConfig config;
    config.miner.min_sup_rel = min_sup;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(pipeline.Train(db, std::make_unique<LearnerT>()).ok());
    std::stringstream stream;
    EXPECT_TRUE(SavePipelineModel(pipeline, stream).ok());
    auto loaded = LoadPipelineModel(stream);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return std::move(*loaded);
}

template <typename LearnerT>
std::string SaveModelFile(const TransactionDatabase& db, const std::string& tag,
                          double min_sup = 0.10) {
    PipelineConfig config;
    config.miner.min_sup_rel = min_sup;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    PatternClassifierPipeline pipeline(config);
    EXPECT_TRUE(pipeline.Train(db, std::make_unique<LearnerT>()).ok());
    const std::string path = ::testing::TempDir() + "/dfp_registry_" + tag + "_" +
                             std::to_string(::getpid()) + ".dfp";
    EXPECT_TRUE(SavePipelineModelToFile(pipeline, path).ok());
    return path;
}

TEST(ModelRegistryTest, EmptyUntilFirstInstall) {
    ModelRegistry registry;
    EXPECT_EQ(registry.Snapshot(), nullptr);
    EXPECT_EQ(registry.current_version(), 0u);
}

TEST(ModelRegistryTest, InstallPublishesMonotonicVersions) {
    const auto db = Db(3);
    ModelRegistry registry;
    auto v1 = registry.Install(TrainModel<NaiveBayesClassifier>(db));
    EXPECT_EQ(v1->version, 1u);
    EXPECT_EQ(registry.current_version(), 1u);
    auto v2 = registry.Install(TrainModel<C45Classifier>(db));
    EXPECT_EQ(v2->version, 2u);
    EXPECT_EQ(registry.current_version(), 2u);
    // The old snapshot stays alive and scorable for whoever still holds it.
    EXPECT_EQ(v1->model.Predict(db.transaction(0)),
              v1->model.Predict(db.transaction(0)));
}

TEST(ModelRegistryTest, ReloadFromFileAndFailureContainment) {
    const auto db = Db(4);
    ModelRegistry registry;
    const std::string good = SaveModelFile<NaiveBayesClassifier>(db, "good");
    auto loaded = registry.Reload(good);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ((*loaded)->version, 1u);
    EXPECT_EQ((*loaded)->source, good);

    // A failed reload (missing file, corrupt bundle) leaves v1 serving.
    EXPECT_FALSE(registry.Reload("/nonexistent/model.dfp").ok());
    const std::string corrupt = ::testing::TempDir() + "/dfp_registry_corrupt_" +
                                std::to_string(::getpid()) + ".dfp";
    {
        std::ofstream out(corrupt);
        out << "dfp-model v1 nb\nfeature-space 4 1\n2 0 99\n";  // item id oob
    }
    EXPECT_FALSE(registry.Reload(corrupt).ok());
    EXPECT_EQ(registry.current_version(), 1u);
    ASSERT_NE(registry.Snapshot(), nullptr);
    EXPECT_EQ(registry.Snapshot()->source, good);
    std::remove(good.c_str());
    std::remove(corrupt.c_str());
}

TEST(ModelRegistryTest, HotReloadRaceDropsAndMisroutesNothing) {
    // The acceptance race: scorer threads hammer the engine while a reloader
    // thread swaps between two models. Every response must carry a label that
    // is exactly what the version it reports would predict — no torn reads,
    // no dropped futures. ASan/TSan runs of this test certify the swap.
    const auto db = Db(5);
    // Two genuinely different models (different learners and supports), kept
    // as serialized bundles: every install parses the same bytes, so "what
    // version v would predict" is known exactly by v's parity.
    const auto bundle_of = [](LoadedModel model) {
        std::stringstream out;
        out << "dfp-model v1 " << model.learner().TypeId() << '\n';
        EXPECT_TRUE(SaveFeatureSpace(model.feature_space(), out).ok());
        EXPECT_TRUE(model.learner().SaveModel(out).ok());
        return out.str();
    };
    const std::string bundle_a = bundle_of(TrainModel<NaiveBayesClassifier>(db, 0.10));
    const std::string bundle_b = bundle_of(TrainModel<C45Classifier>(db, 0.15));
    const auto parse = [](const std::string& bundle) {
        std::stringstream in(bundle);
        auto loaded = LoadPipelineModel(in);
        EXPECT_TRUE(loaded.ok()) << loaded.status();
        return std::move(*loaded);
    };

    // Per-version expected labels, computed up front on private copies.
    std::vector<ClassLabel> expect_a(db.num_transactions());
    std::vector<ClassLabel> expect_b(db.num_transactions());
    {
        LoadedModel ref_a = parse(bundle_a);
        LoadedModel ref_b = parse(bundle_b);
        for (std::size_t t = 0; t < db.num_transactions(); ++t) {
            expect_a[t] = ref_a.Predict(db.transaction(t));
            expect_b[t] = ref_b.Predict(db.transaction(t));
        }
    }

    ModelRegistry registry;
    registry.Install(parse(bundle_a), "model-a");  // version 1

    ScoringEngine engine(registry, EngineConfig{});

    std::atomic<bool> done{false};
    std::atomic<std::size_t> reloads{0};
    std::thread reloader([&] {
        bool next_is_b = true;
        while (!done.load(std::memory_order_relaxed)) {
            registry.Install(parse(next_is_b ? bundle_b : bundle_a),
                             next_is_b ? "model-b" : "model-a");
            next_is_b = !next_is_b;
            reloads.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    constexpr std::size_t kScorers = 4;
    constexpr std::size_t kRequestsPerScorer = 200;
    std::atomic<std::size_t> checked{0};
    std::vector<std::thread> scorers;
    std::atomic<bool> failed{false};
    for (std::size_t s = 0; s < kScorers; ++s) {
        scorers.emplace_back([&, s] {
            for (std::size_t r = 0; r < kRequestsPerScorer; ++r) {
                const std::size_t t = (s * 37 + r) % db.num_transactions();
                auto result = engine.Predict(db.transaction(t));
                if (!result.ok()) {  // drops are a hard failure
                    failed.store(true);
                    return;
                }
                // Odd versions are model-a installs, even are model-b.
                const ClassLabel expected = (result->model_version % 2 == 1)
                                                ? expect_a[t]
                                                : expect_b[t];
                if (result->label != expected) {
                    failed.store(true);
                    return;
                }
                checked.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& thread : scorers) thread.join();
    done.store(true);
    reloader.join();

    EXPECT_FALSE(failed.load());
    EXPECT_EQ(checked.load(), kScorers * kRequestsPerScorer);
    EXPECT_GE(reloads.load(), 1u);
    EXPECT_GE(registry.current_version(), 2u);
}

}  // namespace
}  // namespace dfp::serve
