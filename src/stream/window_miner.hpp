// Window pattern mining: all frequent itemsets of the current sliding window.
//
// The streaming trainer needs frequent itemsets over the live window on every
// retrain (DESIGN.md §16). The one strategy keeps the window's raw rows and,
// per MineWindow call, materializes them as a TransactionDatabase and mines
// it from scratch with EclatMiner: zero maintenance cost per append, one
// vertical mine per retrain. Semantics are all-frequent-itemsets, not closed;
// tests/stream/window_miner_test.cpp certifies the pattern set against an
// independent reference enumeration over 20 seeded streams.
//
// Removals must be exact: Evict() expects a transaction currently in the
// window (canonicalized), which FIFO window eviction guarantees.
//
// Not thread-safe; the owner serializes Insert/Evict/MineWindow (the
// ContinuousTrainer holds its own mutex across them).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fpm/miner.hpp"

namespace dfp::stream {

class WindowMiner {
  public:
    virtual ~WindowMiner() = default;

    /// "remine".
    virtual std::string Name() const = 0;

    /// Adds one canonical (sorted, duplicate-free) transaction.
    virtual void Insert(const std::vector<ItemId>& txn) = 0;

    /// Removes one transaction previously inserted and not yet evicted.
    virtual void Evict(const std::vector<ItemId>& txn) = 0;

    /// Transactions currently represented.
    virtual std::size_t size() const = 0;

    /// Mines all frequent itemsets of the current window. Honours
    /// config.min_sup_rel/min_sup_abs (resolved against size()),
    /// include_singletons, max_pattern_len and max_patterns; budgets are not
    /// consulted (window mining is bounded by the window itself). Patterns
    /// carry items + exact window support; order is unspecified.
    virtual Result<std::vector<Pattern>> MineWindow(const MinerConfig& config) = 0;
};

/// One value: the factory and the trainer's `window_miner` field stay so
/// existing callers keep compiling.
enum class WindowMinerKind { kRemine };

const char* WindowMinerKindName(WindowMinerKind kind);

/// `num_items` bounds the item universe of the materialized window.
std::unique_ptr<WindowMiner> MakeWindowMiner(WindowMinerKind kind,
                                             std::size_t num_items);

}  // namespace dfp::stream
