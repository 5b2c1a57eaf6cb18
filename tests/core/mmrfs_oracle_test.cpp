// Lazy-greedy MMRFS certificate (DESIGN.md §17): RunMmrfs must reproduce the
// eager oracle testutil::RunMmrfsReference bit for bit — `==` on selected,
// gains, relevance and coverage — over 20 seeded pools × δ ∈ {1, 2, 4} ×
// significance mask on/off × an uncapped and a capped max_features, in the
// regime where δ is never reached (the pool runs dry), and under budget
// truncation (a truncated selection is a prefix of the full one). The work
// counters it reports must be deterministic and add up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/mmrfs.hpp"
#include "fpm/closed_miner.hpp"
#include "obs/metrics.hpp"
#include "testutil/mmrfs_reference.hpp"

namespace dfp {
namespace {

constexpr std::uint64_t kNumSeeds = 20;

// 60 rows over 12 items; odd seeds draw 3 classes so the per-class needy
// sets are exercised beyond the binary case.
TransactionDatabase RandomDb(std::uint64_t seed) {
    constexpr std::size_t kRows = 60;
    constexpr std::size_t kItems = 12;
    const std::size_t classes = seed % 2 == 0 ? 2 : 3;
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(kRows);
    std::vector<ClassLabel> labels(kRows);
    for (std::size_t t = 0; t < kRows; ++t) {
        for (ItemId i = 0; i < kItems; ++i) {
            if (rng.Bernoulli(0.35)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % kItems));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{classes}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), kItems,
                                                 classes);
}

std::vector<Pattern> Pool(const TransactionDatabase& db) {
    MinerConfig mine_config;
    mine_config.min_sup_rel = 0.10;
    auto mined = ClosedMiner().Mine(db, mine_config);
    EXPECT_TRUE(mined.ok());
    std::vector<Pattern> candidates = std::move(*mined);
    AttachMetadata(db, &candidates);
    return candidates;
}

std::vector<char> RandomMask(std::uint64_t seed, std::size_t size) {
    Rng rng(seed * 7919 + 1);
    std::vector<char> mask(size);
    for (char& keep : mask) keep = rng.Bernoulli(0.7) ? 1 : 0;
    return mask;
}

void ExpectSameResult(const MmrfsResult& got, const MmrfsResult& want,
                      const std::string& where) {
    EXPECT_EQ(got.selected, want.selected) << where;
    // operator== on double vectors is exact: a bitwise certificate.
    EXPECT_EQ(got.gains, want.gains) << where;
    EXPECT_EQ(got.relevance, want.relevance) << where;
    EXPECT_EQ(got.coverage, want.coverage) << where;
    EXPECT_EQ(got.breach, BudgetBreach::kNone) << where;
}

std::uint64_t CounterValue(const char* name) {
    return obs::Registry::Get().GetCounter(name).value();
}

TEST(MmrfsOracleTest, LazyEqualsEagerOracleBitwise) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = RandomDb(seed);
        const auto candidates = Pool(db);
        const std::vector<char> mask = RandomMask(seed, candidates.size());
        for (const std::size_t delta : {1, 2, 4}) {
            for (const bool masked : {false, true}) {
                for (const std::size_t cap :
                     {std::numeric_limits<std::size_t>::max(), std::size_t{5}}) {
                    MmrfsConfig config;
                    config.coverage_delta = delta;
                    config.max_features = cap;
                    config.candidate_mask = masked ? &mask : nullptr;
                    ExpectSameResult(
                        RunMmrfs(db, candidates, config),
                        testutil::RunMmrfsReference(db, candidates, config),
                        "seed " + std::to_string(seed) + " delta " +
                            std::to_string(delta) + " masked " +
                            std::to_string(masked) + " cap " +
                            std::to_string(cap));
                }
            }
        }
    }
}

// δ so large that some instances can never be covered δ times: selection
// only ends when the pool runs dry, every candidate is either selected or
// pruned, and coverage stays short of δ somewhere. This is the benchmark
// corpus's regime, where a handful of rows stay under-covered.
TEST(MmrfsOracleTest, UnreachableDeltaRunsPoolDryLikeOracle) {
    std::uint64_t total_pruned = 0;
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = RandomDb(seed);
        const auto candidates = Pool(db);
        for (const std::size_t delta : {12, 1000}) {
            MmrfsConfig config;
            config.coverage_delta = delta;
            const std::uint64_t pruned_before =
                CounterValue("dfp.core.mmrfs.pruned");
            const MmrfsResult got = RunMmrfs(db, candidates, config);
            const std::uint64_t pruned =
                CounterValue("dfp.core.mmrfs.pruned") - pruned_before;
            total_pruned += pruned;
            const std::string where = "seed " + std::to_string(seed) +
                                      " delta " + std::to_string(delta);
            ExpectSameResult(
                got, testutil::RunMmrfsReference(db, candidates, config), where);
            EXPECT_EQ(got.selected.size() + pruned, candidates.size()) << where;
            EXPECT_LT(*std::min_element(got.coverage.begin(), got.coverage.end()),
                      delta)
                << where;
        }
    }
    EXPECT_GT(total_pruned, 0u) << "no pool exercised pruning";
}

// Fisher relevance is +∞ for a pattern that splits the classes perfectly;
// two such patterns with overlapping covers give R = ∞ and a NaN gain, and
// disjoint ones give R = 0·∞ = NaN, which the running max ignores. The lazy
// heap must order (and drop) these exactly as the eager `>` scan does.
TEST(MmrfsOracleTest, InfiniteFisherRelevanceMatchesOracle) {
    // Items 0 and 1 share a cover that is exactly class 0; item 3's cover is
    // exactly class 1; item 2 is noise.
    const auto db = TransactionDatabase::FromTransactions(
        {{0, 1, 2}, {0, 1}, {0, 1, 2}, {0, 1}, {3, 2}, {3}, {3, 2}, {3}},
        {0, 0, 0, 0, 1, 1, 1, 1}, 4, 2);
    std::vector<Pattern> candidates;
    for (ItemId i = 0; i < db.num_items(); ++i) candidates.emplace_back().items = {i};
    AttachMetadata(db, &candidates);
    for (const std::size_t delta : {1, 2, 3}) {
        MmrfsConfig config;
        config.relevance = RelevanceMeasure::kFisher;
        config.coverage_delta = delta;
        const MmrfsResult got = RunMmrfs(db, candidates, config);
        ASSERT_TRUE(std::isinf(got.relevance[0]));
        ExpectSameResult(got, testutil::RunMmrfsReference(db, candidates, config),
                         "delta " + std::to_string(delta));
    }
}

// A budget breach stops the greedy loop between selections, so whatever was
// selected is exactly a prefix of the untruncated selection.
TEST(MmrfsOracleTest, BudgetTruncatedSelectionIsPrefixOfFull) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = RandomDb(seed);
        const auto candidates = Pool(db);
        MmrfsConfig config;
        config.coverage_delta = 4;
        const MmrfsResult full = RunMmrfs(db, candidates, config);
        // Survive the |F| scoring checks, then fire at several depths of the
        // greedy loop.
        for (const std::size_t extra : {1, 3, 10, 30}) {
            CancelToken token;
            token.CancelAfterChecks(
                static_cast<std::int64_t>(candidates.size() + extra));
            MmrfsConfig truncated_config = config;
            truncated_config.budget.cancel = &token;
            const MmrfsResult truncated =
                RunMmrfs(db, candidates, truncated_config);
            ASSERT_LE(truncated.selected.size(), full.selected.size());
            if (truncated.selected.size() < full.selected.size()) {
                EXPECT_EQ(truncated.breach, BudgetBreach::kCancelled);
            }
            const auto n = static_cast<std::ptrdiff_t>(truncated.selected.size());
            EXPECT_TRUE(std::equal(truncated.selected.begin(),
                                   truncated.selected.end(),
                                   full.selected.begin()))
                << "seed " << seed << " extra " << extra;
            EXPECT_TRUE(std::equal(truncated.gains.begin(), truncated.gains.end(),
                                   full.gains.begin(), full.gains.begin() + n))
                << "seed " << seed << " extra " << extra;
        }
    }
}

// Every heap pop either prunes, refreshes or selects; discards are the pruned
// candidates; and the same input yields the same counts on every run.
TEST(MmrfsOracleTest, WorkCountersAreDeterministicAndAddUp) {
    const char* const kNames[] = {
        "dfp.core.mmrfs.heap_pops",      "dfp.core.mmrfs.stale_refreshes",
        "dfp.core.mmrfs.pruned",         "dfp.core.mmrfs.accepted",
        "dfp.core.mmrfs.discarded",      "dfp.core.mmrfs.redundancy_evals",
        "dfp.core.mmrfs.iterations"};
    constexpr std::size_t kNumCounters = std::size(kNames);
    auto run = [&](const TransactionDatabase& db,
                   const std::vector<Pattern>& candidates) {
        std::vector<std::uint64_t> before(kNumCounters);
        for (std::size_t k = 0; k < kNumCounters; ++k) {
            before[k] = CounterValue(kNames[k]);
        }
        MmrfsConfig config;
        config.coverage_delta = 2;
        (void)RunMmrfs(db, candidates, config);
        std::vector<std::uint64_t> delta(kNumCounters);
        for (std::size_t k = 0; k < kNumCounters; ++k) {
            delta[k] = CounterValue(kNames[k]) - before[k];
        }
        return delta;
    };
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto db = RandomDb(seed);
        const auto candidates = Pool(db);
        const auto first = run(db, candidates);
        EXPECT_EQ(run(db, candidates), first) << "seed " << seed;
        const std::uint64_t pops = first[0], stale = first[1], pruned = first[2],
                            accepted = first[3], discarded = first[4],
                            iterations = first[6];
        EXPECT_GT(accepted, 0u);
        EXPECT_EQ(pops, stale + pruned + accepted) << "seed " << seed;
        EXPECT_EQ(discarded, pruned) << "seed " << seed;
        EXPECT_EQ(iterations, accepted + discarded) << "seed " << seed;
    }
}

}  // namespace
}  // namespace dfp
