// Fault-injected budget breaches across every miner: cancellation, pattern
// caps and deadlines must yield clean partial results, never crashes or
// corrupted state. A serial itemset miner's partial result is a prefix of its
// reference enumeration (tests/testutil/reference_miners.hpp): same patterns,
// same supports, same order, cut short.
#include <gtest/gtest.h>

#include "data/graph.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "fpm/pathminer.hpp"
#include "fpm/prefixspan.hpp"
#include "testutil/reference_miners.hpp"

namespace dfp {
namespace {

// Deterministic pseudo-random membership: dense enough that min_sup = 1
// enumeration is combinatorially explosive for every miner.
TransactionDatabase Explosive(std::size_t num_txns = 30,
                              std::size_t num_items = 20) {
    std::vector<std::vector<ItemId>> txns(num_txns);
    std::vector<ClassLabel> labels(num_txns);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (std::size_t t = 0; t < num_txns; ++t) {
        for (ItemId i = 0; i < num_items; ++i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            if ((state >> 33) & 1) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % num_items));
        labels[t] = static_cast<ClassLabel>(t % 2);
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), num_items, 2);
}

class MinerBudgetTest : public ::testing::TestWithParam<const char*> {
  protected:
    bool IsEclat() const { return std::string(GetParam()) == "eclat"; }

    std::unique_ptr<Miner> MakeNamed() const {
        if (IsEclat()) return std::make_unique<EclatMiner>();
        return std::make_unique<ClosedMiner>();
    }

    // Every test mines at min_sup = 1.
    void ExpectReferencePrefix(const TransactionDatabase& db,
                               const std::vector<Pattern>& patterns) const {
        const std::vector<Pattern> want = IsEclat()
                                              ? testutil::ReferenceEclat(db, 1)
                                              : testutil::ReferenceClosed(db, 1);
        ASSERT_LE(patterns.size(), want.size());
        for (std::size_t p = 0; p < patterns.size(); ++p) {
            ASSERT_EQ(patterns[p].items, want[p].items) << "position " << p;
            ASSERT_EQ(patterns[p].support, want[p].support) << "position " << p;
        }
    }
};

TEST_P(MinerBudgetTest, FaultInjectedCancellationYieldsPartialResult) {
    const auto db = Explosive();
    CancelToken token;
    token.CancelAfterChecks(100);
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);
    ExpectReferencePrefix(db, outcome->patterns);
}

TEST_P(MinerBudgetTest, StrictMineReportsCancelledStatus) {
    const auto db = Explosive();
    CancelToken token;
    token.CancelAfterChecks(100);
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto result = MakeNamed()->Mine(db, config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_P(MinerBudgetTest, PatternCapTruncatesWithExactSupports) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.max_patterns = 50;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kPatternCap);
    EXPECT_LE(outcome->patterns.size(), 50u);
    ExpectReferencePrefix(db, outcome->patterns);
}

TEST_P(MinerBudgetTest, ExpiredDeadlineStopsEnumeration) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.time_budget_ms = 0.0;
    // Also cap patterns so a pathological clock can't let the test run away.
    config.budget.max_patterns = 200'000;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->truncated());
    EXPECT_EQ(outcome->breach, BudgetBreach::kDeadline);
    ExpectReferencePrefix(db, outcome->patterns);
}

TEST_P(MinerBudgetTest, MemoryCapStopsEnumeration) {
    const auto db = Explosive();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.max_memory_bytes = 4096;
    config.budget.max_patterns = 200'000;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->truncated());
    ExpectReferencePrefix(db, outcome->patterns);
}

// Budgets that never bind must not perturb the enumeration: the outcome is
// the complete reference sequence with no breach, exactly as unbudgeted.
TEST_P(MinerBudgetTest, SlackBudgetsYieldTheFullReferenceEnumeration) {
    const auto db = Explosive();
    CancelToken token;  // armed but never fired
    MinerConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    config.budget.time_budget_ms = 600'000.0;
    config.budget.max_memory_bytes = std::size_t{1} << 40;
    config.budget.max_patterns = 20'000'000;
    const auto outcome = MakeNamed()->MineBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kNone);
    EXPECT_FALSE(outcome->truncated());
    const std::size_t want = IsEclat() ? testutil::ReferenceEclat(db, 1).size()
                                       : testutil::ReferenceClosed(db, 1).size();
    EXPECT_EQ(outcome->patterns.size(), want);
    ExpectReferencePrefix(db, outcome->patterns);
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerBudgetTest,
                         ::testing::Values("eclat", "closed"));

TEST(PrefixSpanBudgetTest, CancellationYieldsPartialResult) {
    SequenceDatabase db({{0, 1, 2, 0, 1}, {0, 2, 1, 2}, {1, 0, 2, 1}, {2, 1, 0}},
                        {0, 0, 1, 1}, 3, 2);
    CancelToken token;
    token.CancelAfterChecks(2);
    PrefixSpanConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto outcome = MineSequencesBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);

    token.Reset();
    token.CancelAfterChecks(2);
    const auto strict = MineSequences(db, config);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kCancelled);
}

TEST(PathMinerBudgetTest, CancellationYieldsPartialResult) {
    GraphSpec spec;
    spec.rows = 20;
    spec.seed = 3;
    const GraphDatabase db = GenerateGraphs(spec);
    CancelToken token;
    token.CancelAfterChecks(2);
    PathMinerConfig config;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    const auto outcome = MinePathsBudgeted(db, config);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->breach, BudgetBreach::kCancelled);

    token.Reset();
    token.CancelAfterChecks(2);
    const auto strict = MinePaths(db, config);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace dfp
