#include "core/feature_space.hpp"

#include <algorithm>
#include <cstdint>

namespace dfp {

FeatureSpace FeatureSpace::Build(std::size_t num_items,
                                 std::vector<Pattern> patterns) {
    FeatureSpace fs;
    fs.num_items_ = num_items;
    patterns.erase(std::remove_if(patterns.begin(), patterns.end(),
                                  [](const Pattern& p) { return p.length() <= 1; }),
                   patterns.end());
    fs.patterns_ = std::move(patterns);
    return fs;
}

FeatureSpace FeatureSpace::ItemsOnly(std::size_t num_items) {
    FeatureSpace fs;
    fs.num_items_ = num_items;
    return fs;
}

void FeatureSpace::Encode(const std::vector<ItemId>& transaction,
                          std::span<double> out) const {
    std::fill(out.begin(), out.end(), 0.0);
    for (ItemId i : transaction) {
        if (i < num_items_) out[i] = 1.0;
    }
    for (std::size_t p = 0; p < patterns_.size(); ++p) {
        const Itemset& items = patterns_[p].items;
        if (std::includes(transaction.begin(), transaction.end(), items.begin(),
                          items.end())) {
            out[num_items_ + p] = 1.0;
        }
    }
}

FeatureMatrix FeatureSpace::Transform(const TransactionDatabase& db) const {
    FeatureMatrix x(db.num_transactions(), dim());
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        for (ItemId i : db.transaction(t)) {
            if (i < num_items_) x.At(t, i) = 1.0;
        }
    }
    // Pattern columns, one at a time from the database's vertical index: the
    // cover of a pattern is the AND of its item covers, so a column costs
    // |items| bitset ANDs instead of a std::includes per row. No row holds
    // an item id the database has never seen, so a pattern carrying one gets
    // an all-zero column — what Encode gives every row.
    for (std::size_t p = 0; p < patterns_.size(); ++p) {
        const Itemset& items = patterns_[p].items;
        if (std::any_of(items.begin(), items.end(),
                        [&](ItemId i) { return i >= db.num_items(); })) {
            continue;
        }
        const std::size_t col = num_items_ + p;
        db.CoverOf(items).ForEach([&](std::uint32_t t) { x.At(t, col) = 1.0; });
    }
    return x;
}

}  // namespace dfp
