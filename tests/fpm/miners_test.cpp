#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "testutil/reference_miners.hpp"

namespace dfp {
namespace {

using testutil::ReferenceClosed;
using testutil::ReferenceEclat;
using testutil::ReferenceFpGrowth;
using testutil::SupportMap;

// T0{0,1,2} T1{0,1} T2{0,2} T3{1,2} T4{0,1,2,3}; labels unused by miners.
TransactionDatabase Toy() {
    return TransactionDatabase::FromTransactions(
        {{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2, 3}}, {0, 0, 0, 1, 1}, 4, 2);
}

// Expected frequent itemsets at min_sup=2 with their supports.
std::map<Itemset, std::size_t> ExpectedFrequentAt2() {
    return {
        {{0}, 4}, {{1}, 4}, {{2}, 4}, {{0, 1}, 3},
        {{0, 2}, 3}, {{1, 2}, 3}, {{0, 1, 2}, 2},
    };
}


TEST(EclatMinerTest, HandCheckedFrequentSets) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    auto result = EclatMiner().Mine(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(SupportMap(*result), ExpectedFrequentAt2());
}

TEST(EclatMinerTest, RelativeMinSup) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_rel = 0.4;  // ceil(0.4*5) = 2
    auto result = EclatMiner().Mine(db, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(SupportMap(*result), ExpectedFrequentAt2());
}

TEST(EclatMinerTest, MaxPatternLength) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    config.max_pattern_len = 2;
    auto result = EclatMiner().Mine(db, config);
    ASSERT_TRUE(result.ok());
    for (const auto& p : *result) EXPECT_LE(p.length(), 2u);
    EXPECT_EQ(result->size(), 6u);  // expected set minus {0,1,2}
}

TEST(EclatMinerTest, ExcludeSingletons) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    config.include_singletons = false;
    auto result = EclatMiner().Mine(db, config);
    ASSERT_TRUE(result.ok());
    for (const auto& p : *result) EXPECT_GE(p.length(), 2u);
    EXPECT_EQ(result->size(), 4u);
}

TEST(EclatMinerTest, BudgetExhaustionReported) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.max_patterns = 3;
    const auto result = EclatMiner().Mine(db, config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EclatMinerTest, HighMinSupYieldsNothing) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 6;
    auto result = EclatMiner().Mine(db, config);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty());
}

// The reference enumerations are the oracles of the golden and property
// suites; pin them to the hand-checked sets first.
TEST(ReferenceMinersTest, HandCheckedFrequentSets) {
    const auto db = Toy();
    EXPECT_EQ(SupportMap(ReferenceFpGrowth(db, 2)),
              ExpectedFrequentAt2());
    EXPECT_EQ(SupportMap(ReferenceEclat(db, 2)),
              ExpectedFrequentAt2());
}

TEST(ReferenceMinersTest, HandCheckedClosedSets) {
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 3}, {0, 1, 3}, {0, 2, 3}, {1, 2}}, {0, 0, 1, 1}, 4, 2);
    const std::map<Itemset, std::size_t> expected = {
        {{0, 3}, 3}, {{1}, 2}, {{2}, 2},
    };
    EXPECT_EQ(SupportMap(ReferenceClosed(db, 2)), expected);
}

TEST(ClosedMinerTest, HandCheckedClosedSets) {
    // T0{0,3} T1{0,1,3} T2{0,2,3} T3{1,2}: 0 and 3 always co-occur, so neither
    // {0} nor {3} is closed; their closure {0,3} is.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 3}, {0, 1, 3}, {0, 2, 3}, {1, 2}}, {0, 0, 1, 1}, 4, 2);
    MinerConfig config;
    config.min_sup_abs = 2;
    ClosedMiner miner;
    auto result = miner.Mine(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    const auto got = SupportMap(*result);
    const std::map<Itemset, std::size_t> expected = {
        {{0, 3}, 3}, {{1}, 2}, {{2}, 2},
    };
    EXPECT_EQ(got, expected);
}

TEST(ClosedMinerTest, ClosedSubsetOfFrequent) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    ClosedMiner closed;
    auto closed_result = closed.Mine(db, config);
    ASSERT_TRUE(closed_result.ok());
    const auto all_result = ReferenceFpGrowth(db, 2);
    const auto all_map = SupportMap(all_result);
    for (const auto& p : *closed_result) {
        const auto it = all_map.find(p.items);
        ASSERT_NE(it, all_map.end());
        EXPECT_EQ(it->second, p.support);
    }
    EXPECT_LE(closed_result->size(), all_result.size());
}

TEST(ClosedMinerTest, FullSupportClosureEmitted) {
    // Item 0 appears in all transactions → closure of the empty set is {0}.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 1}, {0, 2}, {0}}, {0, 0, 1}, 3, 2);
    MinerConfig config;
    config.min_sup_abs = 1;
    ClosedMiner miner;
    auto result = miner.Mine(db, config);
    ASSERT_TRUE(result.ok());
    const auto got = SupportMap(*result);
    ASSERT_TRUE(got.count({0}));
    EXPECT_EQ(got.at({0}), 3u);
}

TEST(ClosedMinerTest, MatchesBruteForceOnToy) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 2;
    ClosedMiner miner;
    auto fast = miner.Mine(db, config);
    auto slow = BruteForceClosed(db, config);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(SupportMap(*fast), SupportMap(*slow));
}

// T0{0,3} T1{0,1,3} T2{0,2,3} T3{1,2}: closed sets at min_sup=2 are {0,3}:3,
// {1}:2 and {2}:2 (see HandCheckedClosedSets).
TransactionDatabase CoOccurring() {
    return TransactionDatabase::FromTransactions(
        {{0, 3}, {0, 1, 3}, {0, 2, 3}, {1, 2}}, {0, 0, 1, 1}, 4, 2);
}

TEST(ClosedMinerTest, RelativeMinSup) {
    const auto db = CoOccurring();
    MinerConfig config;
    config.min_sup_rel = 0.5;  // ceil(0.5*4) = 2
    auto result = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::map<Itemset, std::size_t> expected = {
        {{0, 3}, 3}, {{1}, 2}, {{2}, 2},
    };
    EXPECT_EQ(SupportMap(*result), expected);
}

TEST(ClosedMinerTest, MaxPatternLengthDropsLongClosedSetsWithoutTruncating) {
    // {0,3} exceeds the limit; truncating it to {0} or {3} would emit a set
    // that is not closed, so it is dropped instead.
    const auto db = CoOccurring();
    MinerConfig config;
    config.min_sup_abs = 2;
    config.max_pattern_len = 1;
    auto result = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::map<Itemset, std::size_t> expected = {{{1}, 2}, {{2}, 2}};
    EXPECT_EQ(SupportMap(*result), expected);
}

TEST(ClosedMinerTest, ExcludeSingletons) {
    const auto db = CoOccurring();
    MinerConfig config;
    config.min_sup_abs = 2;
    config.include_singletons = false;
    auto result = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::map<Itemset, std::size_t> expected = {{{0, 3}, 3}};
    EXPECT_EQ(SupportMap(*result), expected);
}

TEST(ClosedMinerTest, BudgetExhaustionReported) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 1;
    config.max_patterns = 3;
    const auto result = ClosedMiner().Mine(db, config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ClosedMinerTest, HighMinSupYieldsNothing) {
    const auto db = Toy();
    MinerConfig config;
    config.min_sup_abs = 6;
    auto result = ClosedMiner().Mine(db, config);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty());
}

TEST(MinerConfigTest, ResolveMinSup) {
    MinerConfig config;
    config.min_sup_abs = 5;
    EXPECT_EQ(ResolveMinSup(config, 100), 5u);
    config.min_sup_rel = 0.1;
    EXPECT_EQ(ResolveMinSup(config, 100), 10u);
    config.min_sup_rel = 0.101;
    EXPECT_EQ(ResolveMinSup(config, 100), 11u);  // ceil
    config.min_sup_rel = 0.0;
    EXPECT_EQ(ResolveMinSup(config, 100), 1u);  // clamped to >= 1
}

TEST(PatternTest, MajorityClassAndConfidence) {
    Pattern p;
    p.support = 10;
    p.class_counts = {3, 7};
    EXPECT_EQ(p.MajorityClass(), 1u);
    EXPECT_DOUBLE_EQ(p.Confidence(), 0.7);
}

TEST(PatternTest, AttachMetadata) {
    const auto db = Toy();
    std::vector<Pattern> patterns(1);
    patterns[0].items = {0, 1};
    AttachMetadata(db, &patterns);
    EXPECT_EQ(patterns[0].support, 3u);
    EXPECT_EQ(patterns[0].cover.ToIndices(),
              (std::vector<std::uint32_t>{0, 1, 4}));
    EXPECT_EQ(patterns[0].class_counts, (std::vector<std::size_t>{2, 1}));
}

TEST(ItemsetTest, SubsetAndToString) {
    EXPECT_TRUE(IsSubsetOf({1, 3}, {0, 1, 2, 3}));
    EXPECT_FALSE(IsSubsetOf({1, 5}, {0, 1, 2, 3}));
    EXPECT_TRUE(IsSubsetOf({}, {0}));
    EXPECT_EQ(ItemsetToString({1, 3}), "{1, 3}");
}

}  // namespace
}  // namespace dfp
