// Property tests: on random databases, Eclat agrees with the reference
// enumerations, every emitted pattern satisfies min_sup with a correct support
// value, the closed miner matches the brute-force closure filter and holds
// the closure of every frequent set, and both miners apply max_pattern_len,
// include_singletons and a pattern cap as exact filters of their unbounded
// emission sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "testutil/reference_miners.hpp"

namespace dfp {
namespace {

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t n, std::size_t items,
                             double density) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(n);
    std::vector<ClassLabel> labels(n);
    for (std::size_t t = 0; t < n; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns), std::move(labels),
                                                 items, 2);
}

using testutil::SupportMap;

struct PropertyCase {
    std::uint64_t seed;
    std::size_t n;
    std::size_t items;
    double density;
    double min_sup_rel;
};

class MinerAgreementTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MinerAgreementTest, EclatMatchesReferenceEnumerations) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    const std::size_t min_sup = ResolveMinSup(config, db.num_transactions());

    auto ec = EclatMiner().Mine(db, config);
    ASSERT_TRUE(ec.ok()) << ec.status();
    const auto ec_map = SupportMap(*ec);
    EXPECT_EQ(ec_map, SupportMap(testutil::ReferenceFpGrowth(db, min_sup)))
        << "eclat vs reference fp-growth diverge";
    EXPECT_EQ(ec_map, SupportMap(testutil::ReferenceEclat(db, min_sup)))
        << "eclat vs reference tidset dfs diverge";
}

TEST_P(MinerAgreementTest, SupportsAreCorrectAndAboveThreshold) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    const std::size_t min_sup = ResolveMinSup(config, db.num_transactions());

    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    for (const auto& p : *mined) {
        EXPECT_GE(p.support, min_sup);
        EXPECT_EQ(p.support, db.SupportOf(p.items))
            << "support mismatch for " << ItemsetToString(p.items);
    }
}

TEST_P(MinerAgreementTest, SupportIsAntiMonotone) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    auto mined = EclatMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    const auto by_items = SupportMap(*mined);
    for (const auto& [items, support] : by_items) {
        if (items.size() < 2) continue;
        // Every (k-1)-subset is also frequent with support >= this one.
        for (std::size_t drop = 0; drop < items.size(); ++drop) {
            Itemset sub;
            for (std::size_t i = 0; i < items.size(); ++i) {
                if (i != drop) sub.push_back(items[i]);
            }
            const auto it = by_items.find(sub);
            ASSERT_NE(it, by_items.end())
                << "missing subset " << ItemsetToString(sub);
            EXPECT_GE(it->second, support);
        }
    }
}

TEST_P(MinerAgreementTest, ClosedMinerMatchesBruteForce) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    auto fast = ClosedMiner().Mine(db, config);
    auto slow = BruteForceClosed(db, config);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    EXPECT_EQ(SupportMap(*fast), SupportMap(*slow));
}

TEST_P(MinerAgreementTest, ClosedPatternsHaveUniqueCovers) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    auto mined = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok());
    std::vector<Pattern> patterns = std::move(*mined);
    AttachMetadata(db, &patterns);
    // Two distinct closed itemsets can never share a cover set.
    std::map<std::string, Itemset> by_cover;
    for (const auto& p : patterns) {
        const auto [it, inserted] = by_cover.emplace(p.cover.ToString(), p.items);
        EXPECT_TRUE(inserted) << "duplicate cover for " << ItemsetToString(p.items)
                              << " and " << ItemsetToString(it->second);
    }
}

std::unique_ptr<Miner> MakeMiner(const std::string& name) {
    if (name == "eclat") return std::make_unique<EclatMiner>();
    return std::make_unique<ClosedMiner>();
}

// Sequence equality: same patterns, same supports, same emission order.
void ExpectSameSequence(const std::vector<Pattern>& got,
                        const std::vector<Pattern>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
        ASSERT_EQ(got[p].items, want[p].items) << "position " << p;
        ASSERT_EQ(got[p].support, want[p].support) << "position " << p;
    }
}

// The closure of X: every item present in all transactions that contain X.
Itemset Closure(const TransactionDatabase& db, const Itemset& items) {
    const auto rows = db.CoverOf(items).ToIndices();
    Itemset closure;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        const bool in_all = std::all_of(rows.begin(), rows.end(), [&](auto t) {
            return db.Contains(t, {i});
        });
        if (in_all) closure.push_back(i);
    }
    return closure;
}

// The closed-vs-all ablation relies on this: every frequent itemset Eclat
// mines has its closure, with the same support, among the closed miner's
// output, and every closed pattern is itself one of Eclat's.
TEST_P(MinerAgreementTest, ClosedMinerEmitsTheClosureOfEveryFrequentSet) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    auto all = EclatMiner().Mine(db, config);
    auto closed = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(all.ok()) << all.status();
    ASSERT_TRUE(closed.ok()) << closed.status();
    const auto all_map = SupportMap(*all);
    const auto closed_map = SupportMap(*closed);
    for (const auto& [items, support] : all_map) {
        const auto it = closed_map.find(Closure(db, items));
        ASSERT_NE(it, closed_map.end())
            << "closure of " << ItemsetToString(items) << " not mined";
        EXPECT_EQ(it->second, support);
    }
    for (const auto& [items, support] : closed_map) {
        const auto it = all_map.find(items);
        ASSERT_NE(it, all_map.end())
            << ItemsetToString(items) << " is closed but not frequent";
        EXPECT_EQ(it->second, support);
        EXPECT_EQ(Closure(db, items), items);
    }
}

TEST_P(MinerAgreementTest, ClosedSupportsAreExactAndAboveThreshold) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    MinerConfig config;
    config.min_sup_rel = param.min_sup_rel;
    const std::size_t min_sup = ResolveMinSup(config, db.num_transactions());
    auto mined = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    EXPECT_EQ(SupportMap(*mined), SupportMap(testutil::ReferenceClosed(db, min_sup)));
    for (const auto& p : *mined) {
        EXPECT_GE(p.support, min_sup);
        EXPECT_EQ(p.support, db.SupportOf(p.items))
            << "support mismatch for " << ItemsetToString(p.items);
    }
}

// Both miners honour max_pattern_len as an exact filter of the unbounded
// emission sequence: Eclat by pruning the search below that depth, the closed
// miner by dropping long closed sets (never by truncating them).
TEST_P(MinerAgreementTest, MaxPatternLengthFiltersTheFullEmission) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    for (const std::size_t max_len : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        for (const char* name : {"eclat", "closed"}) {
            SCOPED_TRACE(::testing::Message() << name << " max_len=" << max_len);
            const auto miner = MakeMiner(name);
            MinerConfig config;
            config.min_sup_rel = param.min_sup_rel;
            auto full = miner->Mine(db, config);
            ASSERT_TRUE(full.ok()) << full.status();
            config.max_pattern_len = max_len;
            auto bounded = miner->Mine(db, config);
            ASSERT_TRUE(bounded.ok()) << bounded.status();
            std::erase_if(*full, [&](const Pattern& p) { return p.length() > max_len; });
            ExpectSameSequence(*bounded, *full);
        }
    }
}

TEST_P(MinerAgreementTest, ExcludingSingletonsDropsExactlyTheSingletons) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    for (const char* name : {"eclat", "closed"}) {
        SCOPED_TRACE(name);
        const auto miner = MakeMiner(name);
        MinerConfig config;
        config.min_sup_rel = param.min_sup_rel;
        auto full = miner->Mine(db, config);
        ASSERT_TRUE(full.ok()) << full.status();
        config.include_singletons = false;
        auto pairs_up = miner->Mine(db, config);
        ASSERT_TRUE(pairs_up.ok()) << pairs_up.status();
        std::erase_if(*full, [](const Pattern& p) { return p.length() <= 1; });
        ExpectSameSequence(*pairs_up, *full);
    }
}

// A serial pattern cap keeps a prefix of the unbounded emission sequence: cut
// short with the breach reported when the cap binds, complete when it does
// not.
TEST_P(MinerAgreementTest, PatternCapKeepsAPrefixOfTheFullEmission) {
    const auto& param = GetParam();
    const auto db = RandomDb(param.seed, param.n, param.items, param.density);
    for (const char* name : {"eclat", "closed"}) {
        SCOPED_TRACE(name);
        const auto miner = MakeMiner(name);
        MinerConfig config;
        config.min_sup_rel = param.min_sup_rel;
        auto full = miner->Mine(db, config);
        ASSERT_TRUE(full.ok()) << full.status();
        ASSERT_GE(full->size(), 2u) << "case too sparse to truncate";

        for (const std::size_t cap : {full->size() / 2, full->size() + 1}) {
            SCOPED_TRACE(::testing::Message() << "cap=" << cap);
            config.budget.max_patterns = cap;
            const auto outcome = miner->MineBudgeted(db, config);
            ASSERT_TRUE(outcome.ok()) << outcome.status();
            EXPECT_EQ(outcome->breach, cap < full->size() ? BudgetBreach::kPatternCap
                                                          : BudgetBreach::kNone);
            ASSERT_LE(outcome->patterns.size(), cap);
            if (cap > full->size()) {
                EXPECT_EQ(outcome->patterns.size(), full->size());
            }
            ExpectSameSequence(outcome->patterns,
                               std::vector<Pattern>(full->begin(),
                                                    full->begin() + static_cast<std::ptrdiff_t>(
                                                        outcome->patterns.size())));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MinerAgreementTest,
    ::testing::Values(PropertyCase{1, 40, 8, 0.30, 0.10},
                      PropertyCase{2, 60, 10, 0.25, 0.10},
                      PropertyCase{3, 80, 12, 0.20, 0.08},
                      PropertyCase{4, 50, 9, 0.40, 0.15},
                      PropertyCase{5, 100, 10, 0.15, 0.05},
                      PropertyCase{6, 30, 14, 0.35, 0.20},
                      PropertyCase{7, 120, 8, 0.50, 0.25},
                      PropertyCase{8, 70, 11, 0.30, 0.12}));

}  // namespace
}  // namespace dfp
