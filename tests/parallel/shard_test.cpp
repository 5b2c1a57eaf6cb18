// Unit tests for the sharded emission that carries the miners' recursive
// decomposition (src/fpm/shard.hpp, DESIGN.md §17): shards merge in DFS-key
// order (a prefix before its extensions), an emitter stamps each shard at its
// first pattern and re-stamps after every flush, and a search tree split into
// tasks that run in any order merges back to the serial preorder — or to a
// subsequence of it when tasks stop early.
#include "fpm/shard.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <thread>
#include <vector>

namespace dfp {
namespace {

Pattern Named(std::uint32_t id) {
    Pattern p;
    p.items = {id};
    p.support = id;
    return p;
}

std::vector<std::uint32_t> Ids(const std::vector<Pattern>& patterns) {
    std::vector<std::uint32_t> ids;
    for (const Pattern& p : patterns) ids.push_back(p.items.at(0));
    return ids;
}

TEST(ShardTest, MergeOrdersShardsByDfsPosition) {
    ShardCollector collector;
    collector.Push({2}, {Named(5)});
    collector.Push({0, 1}, {Named(2), Named(3)});
    collector.Push({1, 0, 3}, {Named(4)});
    collector.Push({0}, {Named(1)});
    EXPECT_EQ(collector.shard_count(), 4u);
    std::vector<Pattern> out;
    collector.MergeInto(&out);
    EXPECT_EQ(Ids(out), (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
}

TEST(ShardTest, MergeAppendsToExistingOutputAndEmptiesTheCollector) {
    ShardCollector collector;
    collector.Push({1}, {Named(8)});
    collector.Push({0}, {Named(7)});
    std::vector<Pattern> out = {Named(6)};
    collector.MergeInto(&out);
    EXPECT_EQ(Ids(out), (std::vector<std::uint32_t>{6, 7, 8}));
    EXPECT_EQ(collector.shard_count(), 0u);
    collector.MergeInto(&out);
    EXPECT_EQ(out.size(), 3u);
}

TEST(ShardTest, EmitterStampsTheShardAtItsFirstPattern) {
    ShardCollector collector;
    {
        ShardEmitter late(&collector, {1});
        late.PushRank(0);
        late.Emit(Named(3));  // stamps {1, 0}
        late.PopRank();
        late.Emit(Named(4));  // same shard although the path is now {1}
    }
    {
        ShardEmitter early(&collector, {0});
        early.PushRank(7);
        EXPECT_EQ(early.path(), (ShardKey{0, 7}));
        early.Emit(Named(1));  // stamps {0, 7}
        early.Emit(Named(2));
    }
    EXPECT_EQ(collector.shard_count(), 2u);
    std::vector<Pattern> out;
    collector.MergeInto(&out);
    EXPECT_EQ(Ids(out), (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(ShardTest, FlushClosesTheRunAndRestampsAtTheCurrentPosition) {
    ShardCollector collector;
    ShardEmitter emitter(&collector, {});
    emitter.PushRank(2);
    emitter.Emit(Named(3));  // shard {2}
    emitter.Flush();
    EXPECT_EQ(collector.shard_count(), 1u);
    emitter.PopRank();
    emitter.PushRank(0);
    emitter.Emit(Named(1));  // new shard {0}: sorts before {2}
    emitter.Flush();
    EXPECT_EQ(collector.shard_count(), 2u);
    std::vector<Pattern> out;
    collector.MergeInto(&out);
    EXPECT_EQ(Ids(out), (std::vector<std::uint32_t>{1, 3}));
}

TEST(ShardTest, FlushWithNothingOpenPushesNoShard) {
    ShardCollector collector;
    {
        ShardEmitter emitter(&collector, {4});
        emitter.Flush();
        emitter.PushRank(1);
        emitter.Flush();
    }
    EXPECT_EQ(collector.shard_count(), 0u);
}

TEST(ShardTest, DestructorFlushesTheOpenShard) {
    ShardCollector collector;
    {
        ShardEmitter emitter(&collector, {3});
        emitter.Emit(Named(9));
        EXPECT_EQ(collector.shard_count(), 0u);
    }
    EXPECT_EQ(collector.shard_count(), 1u);
}

// A complete search tree of the given fan-out and depth; every node emits
// one pattern, numbered in serial preorder.
class SearchTree {
  public:
    SearchTree(std::uint32_t fan_out, std::uint32_t depth)
        : fan_out_(fan_out), depth_(depth) {}

    std::vector<std::uint32_t> SerialPreorder() const {
        ShardCollector collector;
        {
            ShardEmitter emitter(&collector, {});
            std::uint32_t next = 0;
            Walk(&emitter, 0, &next);
        }
        std::vector<Pattern> out;
        collector.MergeInto(&out);
        return Ids(out);
    }

    // Every node at `split_depth` becomes its own task, run after the task
    // that spawned it in reverse spawn order (the worst schedule for order).
    // A task stops after `task_limit` emissions.
    std::vector<std::uint32_t> SplitMerge(std::uint32_t split_depth,
                                          std::size_t task_limit) const {
        ShardCollector collector;
        std::vector<std::function<void()>> pending;
        pending.push_back([&, this] {
            ShardEmitter emitter(&collector, {});
            std::uint32_t next = 0;
            std::size_t emitted = 0;
            WalkSplit(&emitter, 0, &next, split_depth, task_limit, &emitted,
                      &pending, &collector);
        });
        while (!pending.empty()) {
            auto task = std::move(pending.back());
            pending.pop_back();
            task();
        }
        std::vector<Pattern> out;
        collector.MergeInto(&out);
        return Ids(out);
    }

  private:
    // Number of nodes in a subtree rooted at `depth`.
    std::uint32_t SubtreeSize(std::uint32_t depth) const {
        std::uint32_t size = 1;
        for (std::uint32_t d = depth; d < depth_; ++d) size = size * fan_out_ + 1;
        return size;
    }

    void Walk(ShardEmitter* emitter, std::uint32_t depth,
              std::uint32_t* next) const {
        emitter->Emit(Named((*next)++));
        if (depth == depth_) return;
        for (std::uint32_t r = 0; r < fan_out_; ++r) {
            emitter->PushRank(r);
            Walk(emitter, depth + 1, next);
            emitter->PopRank();
        }
    }

    void WalkSplit(ShardEmitter* emitter, std::uint32_t depth,
                   std::uint32_t* next, std::uint32_t split_depth,
                   std::size_t task_limit, std::size_t* emitted,
                   std::vector<std::function<void()>>* pending,
                   ShardCollector* collector) const {
        if (*emitted < task_limit) {
            emitter->Emit(Named(*next));
            ++*emitted;
        }
        ++*next;
        if (depth == depth_) return;
        for (std::uint32_t r = 0; r < fan_out_; ++r) {
            emitter->PushRank(r);
            if (depth + 1 == split_depth) {
                emitter->Flush();  // the contiguity rule
                const ShardKey base = emitter->path();
                const std::uint32_t first = *next;
                pending->push_back([=, this] {
                    ShardEmitter child(collector, base);
                    std::uint32_t child_next = first;
                    std::size_t child_emitted = 0;
                    WalkSplit(&child, depth + 1, &child_next, split_depth,
                              task_limit, &child_emitted, pending, collector);
                });
                *next += SubtreeSize(depth + 1);
            } else {
                WalkSplit(emitter, depth + 1, next, split_depth, task_limit,
                          emitted, pending, collector);
            }
            emitter->PopRank();
        }
    }

    std::uint32_t fan_out_;
    std::uint32_t depth_;
};

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

TEST(ShardTest, SplitTreeMergesBackToTheSerialPreorder) {
    const SearchTree tree(3, 3);
    const auto serial = tree.SerialPreorder();
    ASSERT_EQ(serial.size(), 40u);
    for (std::uint32_t i = 0; i < serial.size(); ++i) ASSERT_EQ(serial[i], i);
    for (std::uint32_t split_depth = 1; split_depth <= 3; ++split_depth) {
        EXPECT_EQ(tree.SplitMerge(split_depth, kNoLimit), serial)
            << "split depth " << split_depth;
    }
}

TEST(ShardTest, TruncatedTasksMergeToASerialSubsequence) {
    const SearchTree tree(3, 3);
    for (std::uint32_t split_depth = 1; split_depth <= 3; ++split_depth) {
        for (const std::size_t limit : {std::size_t{1}, std::size_t{2}}) {
            const auto partial = tree.SplitMerge(split_depth, limit);
            ASSERT_FALSE(partial.empty());
            // Ids are serial positions, so a subsequence is strictly rising.
            for (std::size_t i = 1; i < partial.size(); ++i) {
                EXPECT_LT(partial[i - 1], partial[i])
                    << "split depth " << split_depth << ", limit " << limit;
            }
        }
    }
}

TEST(ShardTest, ConcurrentPushesMergeInKeyOrder) {
    constexpr std::uint32_t kWriters = 4;
    constexpr std::uint32_t kShardsEach = 50;
    ShardCollector collector;
    std::vector<std::thread> writers;
    for (std::uint32_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&collector, w] {
            // Writer w owns keys {k, w} for every k: interleaved across writers.
            for (std::uint32_t k = 0; k < kShardsEach; ++k) {
                collector.Push({k, w}, {Named(k * kWriters + w)});
            }
        });
    }
    for (auto& t : writers) t.join();
    EXPECT_EQ(collector.shard_count(), kWriters * kShardsEach);
    std::vector<Pattern> out;
    collector.MergeInto(&out);
    const auto ids = Ids(out);
    ASSERT_EQ(ids.size(), kWriters * kShardsEach);
    for (std::uint32_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

}  // namespace
}  // namespace dfp
