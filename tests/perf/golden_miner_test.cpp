// Golden-equivalence certificates for the mining core.
//
// The hybrid tidset/diffset Eclat and the scratch-backed closed miner claim
// "same patterns, same supports, same order" as the plain algorithms they
// optimize. This suite pins that claim against the reference miners in
// tests/testutil/reference_miners.hpp, which are written independently of
// the production data structures, across 20 seeded synthetic databases
// spanning sparse and dense regimes: the production miners must match
// item-for-item, support-for-support, in emission order. Eclat's pattern set
// must also equal the reference FP-growth enumeration, an unrelated
// algorithm.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "testutil/reference_miners.hpp"

namespace dfp {
namespace {

using testutil::ReferenceClosed;
using testutil::ReferenceEclat;
using testutil::ReferenceFpGrowth;
using testutil::SupportMap;

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t rows,
                             std::size_t items, double density) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

// 20 seeded regimes: sparse wide, dense narrow and mid-density corpora.
struct DbSpec {
    std::uint64_t seed;
    std::size_t rows;
    std::size_t items;
    double density;
    double min_sup_rel;
};

std::vector<DbSpec> GoldenSpecs() {
    std::vector<DbSpec> specs;
    for (std::uint64_t s = 0; s < 7; ++s) {
        specs.push_back({100 + s, 120, 24, 0.12, 0.05});  // sparse
    }
    for (std::uint64_t s = 0; s < 7; ++s) {
        specs.push_back({200 + s, 80, 12, 0.55, 0.20});  // dense
    }
    for (std::uint64_t s = 0; s < 6; ++s) {
        specs.push_back({300 + s, 150, 18, 0.30, 0.10});  // mid
    }
    return specs;
}

void ExpectSameStream(const std::vector<Pattern>& got,
                      const std::vector<Pattern>& want,
                      const char* miner, std::uint64_t seed) {
    ASSERT_EQ(got.size(), want.size()) << miner << " seed=" << seed;
    for (std::size_t p = 0; p < got.size(); ++p) {
        ASSERT_EQ(got[p].items, want[p].items)
            << miner << " seed=" << seed << " position=" << p;
        ASSERT_EQ(got[p].support, want[p].support)
            << miner << " seed=" << seed << " position=" << p;
    }
}

TEST(GoldenMinerTest, EclatMatchesReferenceTidsetDfs) {
    EclatMiner miner;
    for (const DbSpec& spec : GoldenSpecs()) {
        const auto db = RandomDb(spec.seed, spec.rows, spec.items, spec.density);
        MinerConfig config;
        config.min_sup_rel = spec.min_sup_rel;
        const auto got = miner.Mine(db, config);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const auto want = ReferenceEclat(db, ResolveMinSup(config, spec.rows));
        ExpectSameStream(*got, want, "eclat", spec.seed);
    }
}

TEST(GoldenMinerTest, ClosedMatchesReferenceLcm) {
    ClosedMiner miner;
    for (const DbSpec& spec : GoldenSpecs()) {
        const auto db = RandomDb(spec.seed, spec.rows, spec.items, spec.density);
        MinerConfig config;
        config.min_sup_rel = spec.min_sup_rel;
        const auto got = miner.Mine(db, config);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const auto want = ReferenceClosed(db, ResolveMinSup(config, spec.rows));
        ExpectSameStream(*got, want, "closed", spec.seed);
    }
}

// Eclat's pattern set equals the FP-growth enumeration's (orders differ by
// design: FP-growth is suffix-major).
TEST(GoldenMinerTest, EclatMatchesReferenceFpGrowthPatternSet) {
    EclatMiner ec;
    for (const DbSpec& spec : GoldenSpecs()) {
        const auto db = RandomDb(spec.seed, spec.rows, spec.items, spec.density);
        MinerConfig config;
        config.min_sup_rel = spec.min_sup_rel;
        const auto got = ec.Mine(db, config);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const auto want = ReferenceFpGrowth(db, ResolveMinSup(config, spec.rows));
        ASSERT_EQ(SupportMap(*got), SupportMap(want)) << "seed=" << spec.seed;
    }
}

}  // namespace
}  // namespace dfp
