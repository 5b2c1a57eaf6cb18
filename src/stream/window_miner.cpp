#include "stream/window_miner.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "data/transaction_db.hpp"
#include "fpm/eclat.hpp"

namespace dfp::stream {

namespace {

// ---------------------------------------------------------------------------
// Remine: keep the raw window, rebuild a TransactionDatabase and run Eclat
// per MineWindow call.
// ---------------------------------------------------------------------------
class RemineWindowMiner final : public WindowMiner {
  public:
    explicit RemineWindowMiner(std::size_t num_items) : num_items_(num_items) {}

    std::string Name() const override { return "remine"; }

    void Insert(const std::vector<ItemId>& txn) override {
        window_.push_back(txn);
    }

    void Evict(const std::vector<ItemId>& txn) override {
        // Window eviction is FIFO, so the front matches in practice; fall
        // back to a linear scan so out-of-order removal stays correct.
        if (!window_.empty() && window_.front() == txn) {
            window_.pop_front();
            return;
        }
        const auto it = std::find(window_.begin(), window_.end(), txn);
        assert(it != window_.end() && "evicting a transaction not in the window");
        if (it != window_.end()) window_.erase(it);
    }

    std::size_t size() const override { return window_.size(); }

    Result<std::vector<Pattern>> MineWindow(const MinerConfig& config) override {
        std::vector<std::vector<ItemId>> txns(window_.begin(), window_.end());
        std::vector<ClassLabel> labels(txns.size(), 0);
        const TransactionDatabase db = TransactionDatabase::FromTransactions(
            std::move(txns), std::move(labels), num_items_, /*num_classes=*/1);
        MinerConfig strict = config;
        strict.budget = ExecutionBudget{};  // window mining is window-bounded
        return EclatMiner().Mine(db, strict);
    }

  private:
    std::size_t num_items_;
    std::deque<std::vector<ItemId>> window_;
};

}  // namespace

const char* WindowMinerKindName(WindowMinerKind kind) {
    switch (kind) {
        case WindowMinerKind::kRemine: return "remine";
    }
    return "unknown";
}

std::unique_ptr<WindowMiner> MakeWindowMiner(WindowMinerKind kind,
                                             std::size_t num_items) {
    switch (kind) {
        case WindowMinerKind::kRemine:
            return std::make_unique<RemineWindowMiner>(num_items);
    }
    return nullptr;
}

}  // namespace dfp::stream
