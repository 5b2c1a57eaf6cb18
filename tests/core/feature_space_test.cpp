#include "core/feature_space.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"

namespace dfp {
namespace {

TransactionDatabase Toy() {
    return TransactionDatabase::FromTransactions(
        {{0, 1, 2}, {0, 2}, {1, 3}}, {0, 0, 1}, 4, 2);
}

std::vector<Pattern> TwoPatterns(const TransactionDatabase& db) {
    std::vector<Pattern> patterns(2);
    patterns[0].items = {0, 2};
    patterns[1].items = {1, 3};
    AttachMetadata(db, &patterns);
    return patterns;
}

TEST(FeatureSpaceTest, DimensionIsItemsPlusPatterns) {
    const auto db = Toy();
    const auto fs = FeatureSpace::Build(4, TwoPatterns(db));
    EXPECT_EQ(fs.num_items(), 4u);
    EXPECT_EQ(fs.num_patterns(), 2u);
    EXPECT_EQ(fs.dim(), 6u);
}

TEST(FeatureSpaceTest, SingletonPatternsDropped) {
    const auto db = Toy();
    auto patterns = TwoPatterns(db);
    Pattern single;
    single.items = {2};
    patterns.push_back(single);
    const auto fs = FeatureSpace::Build(4, patterns);
    EXPECT_EQ(fs.num_patterns(), 2u);  // the singleton duplicates item 2
}

TEST(FeatureSpaceTest, EncodeSetsItemAndPatternBits) {
    const auto db = Toy();
    const auto fs = FeatureSpace::Build(4, TwoPatterns(db));
    std::vector<double> out(fs.dim());
    fs.Encode({0, 1, 2}, out);
    EXPECT_EQ(out, (std::vector<double>{1, 1, 1, 0, 1, 0}));
    fs.Encode({1, 3}, out);
    EXPECT_EQ(out, (std::vector<double>{0, 1, 0, 1, 0, 1}));
    fs.Encode({3}, out);
    EXPECT_EQ(out, (std::vector<double>{0, 0, 0, 1, 0, 0}));
}

TEST(FeatureSpaceTest, TransformMatchesRowwiseEncode) {
    const auto db = Toy();
    const auto fs = FeatureSpace::Build(4, TwoPatterns(db));
    const FeatureMatrix x = fs.Transform(db);
    ASSERT_EQ(x.rows(), 3u);
    ASSERT_EQ(x.cols(), 6u);
    std::vector<double> expected(fs.dim());
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        fs.Encode(db.transaction(t), expected);
        for (std::size_t c = 0; c < fs.dim(); ++c) {
            EXPECT_DOUBLE_EQ(x.At(t, c), expected[c]);
        }
    }
}

TEST(FeatureSpaceTest, ItemsOnly) {
    const auto fs = FeatureSpace::ItemsOnly(5);
    EXPECT_EQ(fs.dim(), 5u);
    EXPECT_EQ(fs.num_patterns(), 0u);
    std::vector<double> out(5);
    fs.Encode({1, 4}, out);
    EXPECT_EQ(out, (std::vector<double>{0, 1, 0, 0, 1}));
}

TEST(FeatureSpaceTest, UnseenItemsIgnored) {
    // A transaction may carry item ids beyond the training universe (e.g. a
    // test-fold value bin never seen in training); they must be ignored.
    const auto fs = FeatureSpace::ItemsOnly(3);
    std::vector<double> out(3);
    fs.Encode({1, 7}, out);
    EXPECT_EQ(out, (std::vector<double>{0, 1, 0}));
}

TransactionDatabase RandomDb(Rng& rng, std::size_t rows, std::size_t items) {
    std::vector<std::vector<ItemId>> txns(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(0.4)) txns[t].push_back(i);
        }
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

// The column-wise Transform must equal row-wise Encode bit for bit, on the
// training database and on a held-out one whose universe has item ids the
// training data never saw — both in rows and in patterns. Pattern {2, 13}
// only exists in the held-out universe; {2, 20} in neither.
TEST(FeatureSpaceTest, TransformEqualsRowWiseEncodeBitwise) {
    constexpr std::size_t kTrainItems = 12;
    constexpr std::size_t kHeldOutItems = 15;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const auto train = RandomDb(rng, 80, kTrainItems);
        const auto held_out = RandomDb(rng, 40, kHeldOutItems);
        MinerConfig mine_config;
        mine_config.min_sup_rel = 0.08;
        auto mined = ClosedMiner().Mine(train, mine_config);
        ASSERT_TRUE(mined.ok());
        std::vector<Pattern> patterns = std::move(*mined);
        patterns.emplace_back().items = {2, 13};
        patterns.emplace_back().items = {2, 20};
        const auto fs = FeatureSpace::Build(kTrainItems, std::move(patterns));
        ASSERT_GT(fs.num_patterns(), 2u);
        for (const TransactionDatabase* db : {&train, &held_out}) {
            const FeatureMatrix x = fs.Transform(*db);
            ASSERT_EQ(x.rows(), db->num_transactions());
            ASSERT_EQ(x.cols(), fs.dim());
            std::vector<double> row(fs.dim());
            for (std::size_t t = 0; t < db->num_transactions(); ++t) {
                fs.Encode(db->transaction(t), row);
                const auto got = x.Row(t);
                ASSERT_TRUE(std::equal(got.begin(), got.end(), row.begin()))
                    << "seed " << seed << " row " << t
                    << (db == &train ? " (train)" : " (held-out)");
            }
        }
    }
}

TEST(FeatureMatrixTest, SelectRowsAndCols) {
    FeatureMatrix m(2, 3);
    m.At(0, 0) = 1;
    m.At(0, 2) = 2;
    m.At(1, 1) = 3;
    const auto rows = m.SelectRows({1});
    EXPECT_EQ(rows.rows(), 1u);
    EXPECT_DOUBLE_EQ(rows.At(0, 1), 3.0);
    const auto cols = m.SelectCols({2, 0});
    EXPECT_EQ(cols.cols(), 2u);
    EXPECT_DOUBLE_EQ(cols.At(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(cols.At(0, 1), 1.0);
}

}  // namespace
}  // namespace dfp
