#include "corpus.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

// The significance sweep's corpus seed: the planted concepts stay fixed, so
// every --seed measures the same task on a different partition.
constexpr std::uint64_t kCorpusSeed = 11;

}  // namespace

std::vector<PlantedCorpus> MakePlantedFolds(std::uint64_t seed) {
    dfp::SyntheticSpec spec;
    spec.name = "perfbench_planted";
    spec.rows = 4000;
    spec.attributes = 10;
    spec.arity = 3;
    spec.classes = 2;
    spec.patterns_per_class = 3;
    spec.xor_patterns_per_class = 2;
    spec.label_noise = 0.05;
    spec.background_prob = 0.30;
    spec.seed = kCorpusSeed;
    const dfp::Dataset data = dfp::GenerateSynthetic(spec);
    auto encoder = dfp::ItemEncoder::FromSchema(data);
    Require(encoder.ok(), "item encoder: " + encoder.status().ToString());
    const auto db = dfp::TransactionDatabase::FromDataset(data, *encoder);
    std::vector<std::size_t> rows(db.num_transactions());
    for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
    dfp::Rng rng(seed);
    std::shuffle(rows.begin(), rows.end(), rng);
    std::vector<PlantedCorpus> folds;
    for (std::size_t k = 0; k < kPlantedFolds; ++k) {
        const std::size_t begin = rows.size() * k / kPlantedFolds;
        const std::size_t end = rows.size() * (k + 1) / kPlantedFolds;
        std::vector<std::size_t> test_rows(rows.begin() + begin, rows.begin() + end);
        std::vector<std::size_t> train_rows(rows.begin(), rows.begin() + begin);
        train_rows.insert(train_rows.end(), rows.begin() + end, rows.end());
        std::sort(test_rows.begin(), test_rows.end());
        std::sort(train_rows.begin(), train_rows.end());
        folds.push_back(PlantedCorpus{db.Subset(train_rows), db.Subset(test_rows)});
    }
    return folds;
}

dfp::PipelineConfig PlantedPipelineConfig() {
    dfp::PipelineConfig config;
    config.miner.min_sup_rel = 0.03;
    config.miner.max_pattern_len = 4;
    config.miner.num_threads = 1;
    config.mmrfs.coverage_delta = 4;
    config.mmrfs.num_threads = 1;
    config.significance.test = dfp::SigTest::kChi2;
    config.significance.alpha = 0.05;
    config.significance.correction = dfp::Correction::kBenjaminiHochberg;
    config.significance.num_threads = 1;
    config.num_threads = 1;
    return config;
}

}  // namespace perfbench
