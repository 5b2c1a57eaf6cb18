// The augmented feature space B^{d'} over I ∪ Fs (Section 2).
//
// After feature selection, the training data is mapped into a binary space
// whose first d coordinates are the single items and whose remaining |Fs|
// coordinates indicate pattern containment. The same mapping is applied to
// unseen instances at prediction time.
#pragma once

#include <vector>

#include "data/transaction_db.hpp"
#include "fpm/itemset.hpp"
#include "ml/feature_matrix.hpp"

namespace dfp {

/// Immutable item+pattern → vector encoder.
class FeatureSpace {
  public:
    FeatureSpace() = default;

    /// Builds the space over `num_items` single items plus the given patterns.
    /// Patterns of length ≤ 1 are dropped (they duplicate item coordinates).
    static FeatureSpace Build(std::size_t num_items, std::vector<Pattern> patterns);

    /// Builds an items-only space (the Item_* baselines).
    static FeatureSpace ItemsOnly(std::size_t num_items);

    std::size_t num_items() const { return num_items_; }
    std::size_t num_patterns() const { return patterns_.size(); }
    /// d' = |I| + |Fs|.
    std::size_t dim() const { return num_items_ + patterns_.size(); }

    const std::vector<Pattern>& patterns() const { return patterns_; }

    /// Encodes one transaction (sorted item list) into `out` (size dim()).
    void Encode(const std::vector<ItemId>& transaction, std::span<double> out) const;

    /// Encodes a whole database into a dense matrix, column by column from
    /// the database's item covers; bitwise equal to Encode on every row.
    FeatureMatrix Transform(const TransactionDatabase& db) const;

  private:
    std::size_t num_items_ = 0;
    std::vector<Pattern> patterns_;
};

}  // namespace dfp
