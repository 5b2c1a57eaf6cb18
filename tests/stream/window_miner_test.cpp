// Golden-equivalence certificate for window pattern mining: re-mining the
// sliding window must produce exactly the pattern set (itemset + exact window
// support) of an independent reference enumeration over the materialized
// window — across 20 seeded drifting streams, at every checkpoint, for the
// whole window lifecycle (growth, sliding eviction, churn).
#include "stream/window_miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "stream/streaming_db.hpp"
#include "testutil/drift_source.hpp"
#include "testutil/reference_miners.hpp"

namespace dfp::stream {
namespace {

/// Canonical form: sorted (itemset → support) map; mining order is
/// unspecified, support must be exact.
std::map<std::vector<ItemId>, std::uint64_t> Canon(
    const std::vector<Pattern>& patterns) {
    std::map<std::vector<ItemId>, std::uint64_t> canon;
    for (const Pattern& p : patterns) {
        EXPECT_TRUE(std::is_sorted(p.items.begin(), p.items.end()));
        EXPECT_TRUE(canon.emplace(p.items, p.support).second)
            << "duplicate pattern emitted";
    }
    return canon;
}

TEST(WindowMinerTest, KindNamesAndFactory) {
    EXPECT_STREQ(WindowMinerKindName(WindowMinerKind::kRemine), "remine");
    EXPECT_EQ(MakeWindowMiner(WindowMinerKind::kRemine, 4)->Name(), "remine");
}

TEST(WindowMinerTest, EmptyWindowMinesNothing) {
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 6);
    MinerConfig config;
    config.min_sup_rel = 0.5;
    const auto mined = miner->MineWindow(config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    EXPECT_TRUE(mined->empty());
}

TEST(WindowMinerTest, HandComputedSupports) {
    // Window: {0,1,2} ×2, {0,2} ×1, {1} ×1. min_sup_abs = 2.
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 4);
    miner->Insert({0, 1, 2});
    miner->Insert({0, 1, 2});
    miner->Insert({0, 2});
    miner->Insert({1});
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 2;
    const auto mined = miner->MineWindow(config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    const std::map<std::vector<ItemId>, std::uint64_t> want = {
        {{0}, 3},    {{1}, 3},    {{2}, 3},       {{0, 1}, 2},
        {{0, 2}, 3}, {{1, 2}, 2}, {{0, 1, 2}, 2},
    };
    EXPECT_EQ(Canon(*mined), want);
}

TEST(WindowMinerTest, EvictionUpdatesSupports) {
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 4);
    miner->Insert({0, 1});
    miner->Insert({0, 1});
    miner->Insert({0});
    miner->Evict({0, 1});
    EXPECT_EQ(miner->size(), 2u);
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 1;
    const auto mined = miner->MineWindow(config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    const std::map<std::vector<ItemId>, std::uint64_t> want = {
        {{0}, 2}, {{1}, 1}, {{0, 1}, 1}};
    EXPECT_EQ(Canon(*mined), want);
}

TEST(WindowMinerTest, HonoursSingletonAndLengthFilters) {
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 5);
    miner->Insert({0, 1, 2, 3});
    miner->Insert({0, 1, 2, 3});
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 2;
    config.include_singletons = false;
    config.max_pattern_len = 2;
    const auto mined = miner->MineWindow(config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    for (const Pattern& p : *mined) EXPECT_EQ(p.items.size(), 2u);
    EXPECT_EQ(mined->size(), 6u);  // C(4,2) pairs, each support 2
}

TEST(WindowMinerTest, OutOfOrderEvictionRemovesTheMatchingRow) {
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 3);
    miner->Insert({0});
    miner->Insert({1, 2});
    miner->Insert({0, 2});
    miner->Evict({1, 2});  // not the oldest row
    EXPECT_EQ(miner->size(), 2u);
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 1;
    const auto mined = miner->MineWindow(config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    const std::map<std::vector<ItemId>, std::uint64_t> want = {
        {{0}, 2}, {{2}, 1}, {{0, 2}, 1}};
    EXPECT_EQ(Canon(*mined), want);
}

TEST(WindowMinerTest, RelativeMinSupResolvesAgainstTheWindow) {
    // 4 rows in the window: 0.5 resolves to 2, so {1} (support 1) is dropped.
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 2);
    miner->Insert({0});
    miner->Insert({0});
    miner->Insert({0, 1});
    miner->Insert({0});
    MinerConfig config;
    config.min_sup_rel = 0.5;
    const auto mined = miner->MineWindow(config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    const std::map<std::vector<ItemId>, std::uint64_t> want = {{{0}, 4}};
    EXPECT_EQ(Canon(*mined), want);
}

TEST(WindowMinerTest, PatternCapFailsTheMine) {
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 3);
    miner->Insert({0, 1, 2});
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 1;
    config.max_patterns = 3;  // the window holds 7 itemsets
    const auto mined = miner->MineWindow(config);
    ASSERT_FALSE(mined.ok());
    EXPECT_EQ(mined.status().code(), StatusCode::kResourceExhausted);
}

TEST(WindowMinerTest, ExecutionBudgetIsNotConsulted) {
    // The window bounds the work, so a fired cancel token or a spent deadline
    // in the caller's budget must not cut the mine short.
    auto miner = MakeWindowMiner(WindowMinerKind::kRemine, 3);
    miner->Insert({0, 1, 2});
    miner->Insert({0, 1});
    CancelToken token;
    token.Cancel();
    MinerConfig config;
    config.min_sup_rel = -1.0;
    config.min_sup_abs = 1;
    config.budget.cancel = &token;
    config.budget.time_budget_ms = 0.0;
    const auto mined = miner->MineWindow(config);
    ASSERT_TRUE(mined.ok()) << mined.status();
    EXPECT_EQ(mined->size(), 7u);
}

/// The headline certificate: 20 seeded drifting streams, sliding windows,
/// checkpointed equivalence between the window miner (fed by Insert/Evict)
/// and the reference FP-growth enumeration over the materialized window.
TEST(WindowMinerGoldenTest, RemineMatchesReferenceOn20SeededStreams) {
    constexpr std::uint64_t kStreams = 20;
    constexpr std::size_t kWindowCapacity = 160;
    constexpr std::size_t kBatch = 40;
    constexpr std::size_t kCheckEvery = 3;  // batches between checkpoints
    constexpr std::size_t kMaxLen = 5;

    for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
        testutil::DriftSourceConfig source_config;
        source_config.num_phases = 2;
        source_config.rows_per_phase = 400;
        source_config.eval_rows = 10;
        source_config.attributes = 6;
        source_config.arity = 3;
        source_config.seed = seed;
        testutil::DriftSource source(source_config);

        StreamConfig stream_config;
        stream_config.num_items = source.num_items();
        stream_config.num_classes = source.num_classes();
        stream_config.window_capacity = kWindowCapacity;
        auto db = StreamingDatabase::Create(stream_config);
        ASSERT_TRUE(db.ok());

        auto remine = MakeWindowMiner(WindowMinerKind::kRemine,
                                      source.num_items());

        MinerConfig mine_config;
        mine_config.min_sup_rel = 0.15;
        mine_config.max_pattern_len = kMaxLen;

        std::size_t batches = 0;
        while (!source.exhausted()) {
            TransactionBatch batch = source.NextBatch(kBatch);
            // Canonicalize exactly as the StreamingDatabase stores rows.
            for (auto& txn : batch.transactions) {
                std::sort(txn.begin(), txn.end());
                txn.erase(std::unique(txn.begin(), txn.end()), txn.end());
            }
            auto appended = (*db)->Append(batch);
            ASSERT_TRUE(appended.ok()) << appended.status();
            for (const auto& txn : batch.transactions) remine->Insert(txn);
            for (const auto& txn : appended->evicted.transactions) {
                remine->Evict(txn);
            }
            ASSERT_EQ(remine->size(), (*db)->window_size());

            if (++batches % kCheckEvery != 0) continue;
            const auto mined = remine->MineWindow(mine_config);
            ASSERT_TRUE(mined.ok()) << mined.status();

            const auto window = (*db)->SnapshotWindow();
            std::vector<Pattern> want = testutil::ReferenceFpGrowth(
                *window, ResolveMinSup(mine_config, window->num_transactions()));
            std::erase_if(want, [&](const Pattern& p) {
                return p.items.size() > kMaxLen;
            });
            ASSERT_EQ(Canon(*mined), Canon(want))
                << "stream seed " << seed << ", batch " << batches;
        }
        ASSERT_GE(batches, kCheckEvery) << "stream too short to certify";
    }
}

}  // namespace
}  // namespace dfp::stream
