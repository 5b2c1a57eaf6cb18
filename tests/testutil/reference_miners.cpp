#include "testutil/reference_miners.hpp"

#include <algorithm>

#include "common/bitvector.hpp"

namespace dfp::testutil {

namespace {

Pattern Make(Itemset items, std::size_t support) {
    Pattern p;
    p.items = std::move(items);
    p.support = support;
    return p;
}

// ---------------------------------------------------------------------------
// FP-growth over weighted transaction lists.

struct WeightedTxn {
    std::vector<ItemId> items;  // ordered by current-level rank
    std::size_t count = 1;
};

void Grow(const std::vector<WeightedTxn>& txns, std::size_t min_sup,
          std::size_t universe, Itemset& suffix, std::vector<Pattern>* out) {
    std::vector<std::size_t> support(universe, 0);
    for (const WeightedTxn& t : txns) {
        for (ItemId i : t.items) support[i] += t.count;
    }
    // Header order: support desc, item asc.
    std::vector<ItemId> freq;
    for (ItemId i = 0; i < universe; ++i) {
        if (support[i] >= min_sup) freq.push_back(i);
    }
    std::stable_sort(freq.begin(), freq.end(), [&](ItemId a, ItemId b) {
        if (support[a] != support[b]) return support[a] > support[b];
        return a < b;
    });
    std::vector<std::size_t> rank(universe, universe);
    for (std::size_t r = 0; r < freq.size(); ++r) rank[freq[r]] = r;

    // Mine least-frequent first (reverse header order).
    for (std::size_t idx = freq.size(); idx-- > 0;) {
        const ItemId item = freq[idx];
        suffix.push_back(item);
        Itemset items = suffix;
        std::sort(items.begin(), items.end());
        out->push_back(Make(std::move(items), support[item]));

        // Conditional base: the rank-ordered frequent prefix of every
        // transaction containing `item` (exactly the tree's prefix paths).
        std::vector<WeightedTxn> base;
        for (const WeightedTxn& t : txns) {
            std::vector<ItemId> kept;
            for (ItemId i : t.items) {
                if (rank[i] < idx) kept.push_back(i);
            }
            const bool has_item =
                std::find(t.items.begin(), t.items.end(), item) != t.items.end();
            if (has_item && !kept.empty()) {
                std::sort(kept.begin(), kept.end(), [&](ItemId a, ItemId b) {
                    return rank[a] < rank[b];
                });
                base.push_back(WeightedTxn{std::move(kept), t.count});
            }
        }
        if (!base.empty()) Grow(base, min_sup, universe, suffix, out);
        suffix.pop_back();
    }
}

// ---------------------------------------------------------------------------
// Eclat: copy-per-candidate tidset DFS.

void EclatDfs(const TransactionDatabase& db, std::size_t min_sup,
              Itemset& prefix, const BitVector& cover,
              const std::vector<ItemId>& candidates, std::vector<Pattern>* out) {
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const ItemId i = candidates[k];
        BitVector extended = cover;
        extended &= db.ItemCover(i);
        const std::size_t support = extended.Count();
        if (support < min_sup) continue;
        prefix.push_back(i);
        out->push_back(Make(prefix, support));
        const std::vector<ItemId> rest(candidates.begin() + k + 1,
                                       candidates.end());
        if (!rest.empty()) EclatDfs(db, min_sup, prefix, extended, rest, out);
        prefix.pop_back();
    }
}

// ---------------------------------------------------------------------------
// Closed: LCM closure extension with copied covers.

std::vector<ItemId> FrequentItems(const TransactionDatabase& db,
                                  std::size_t min_sup) {
    std::vector<ItemId> frequent;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= min_sup) frequent.push_back(i);
    }
    return frequent;
}

// Closure of `tidset` over `frequent` given the already-closed prefix `closed`;
// false if it adds an item below `core_item` (not prefix-preserving).
bool ClosureOf(const TransactionDatabase& db, const std::vector<ItemId>& frequent,
               const Itemset& closed, const BitVector& tidset, ItemId core_item,
               Itemset* closure) {
    for (ItemId j : frequent) {
        if (std::binary_search(closed.begin(), closed.end(), j)) {
            closure->push_back(j);
            continue;
        }
        if (tidset.IsSubsetOf(db.ItemCover(j))) {
            if (j < core_item) return false;
            closure->push_back(j);
        }
    }
    std::sort(closure->begin(), closure->end());
    return true;
}

void ClosedDfs(const TransactionDatabase& db, std::size_t min_sup,
               const std::vector<ItemId>& frequent, const Itemset& closed,
               const BitVector& tidset, ItemId core, std::vector<Pattern>* out) {
    for (ItemId i : frequent) {
        if (i <= core) continue;
        if (std::binary_search(closed.begin(), closed.end(), i)) continue;
        BitVector extended = tidset;
        extended &= db.ItemCover(i);
        const std::size_t support = extended.Count();
        if (support < min_sup) continue;
        Itemset closure;
        if (!ClosureOf(db, frequent, closed, extended, i, &closure)) continue;
        out->push_back(Make(closure, support));
        ClosedDfs(db, min_sup, frequent, closure, extended, i, out);
    }
}

}  // namespace

std::vector<Pattern> ReferenceFpGrowth(const TransactionDatabase& db,
                                       std::size_t min_sup) {
    std::vector<WeightedTxn> txns;
    for (std::size_t t = 0; t < db.num_transactions(); ++t) {
        std::vector<ItemId> items;
        for (ItemId i = 0; i < db.num_items(); ++i) {
            if (db.ItemCover(i).Test(t)) items.push_back(i);
        }
        txns.push_back(WeightedTxn{std::move(items), 1});
    }
    std::vector<Pattern> out;
    Itemset suffix;
    Grow(txns, min_sup, db.num_items(), suffix, &out);
    return out;
}

std::vector<Pattern> ReferenceEclat(const TransactionDatabase& db,
                                    std::size_t min_sup) {
    BitVector all(db.num_transactions());
    all.Fill();
    std::vector<Pattern> out;
    Itemset prefix;
    EclatDfs(db, min_sup, prefix, all, FrequentItems(db, min_sup), &out);
    return out;
}

std::vector<Pattern> ReferenceClosed(const TransactionDatabase& db,
                                     std::size_t min_sup) {
    const std::size_t n = db.num_transactions();
    const std::vector<ItemId> frequent = FrequentItems(db, min_sup);
    Itemset root_closed;
    for (ItemId i : frequent) {
        if (db.ItemSupport(i) == n) root_closed.push_back(i);
    }
    std::vector<Pattern> out;
    if (!root_closed.empty() && n >= min_sup) out.push_back(Make(root_closed, n));
    for (ItemId i : frequent) {
        if (std::binary_search(root_closed.begin(), root_closed.end(), i)) {
            continue;
        }
        const BitVector& tidset = db.ItemCover(i);
        const std::size_t support = tidset.Count();
        if (support < min_sup) continue;
        Itemset closure;
        if (!ClosureOf(db, frequent, root_closed, tidset, i, &closure)) continue;
        out.push_back(Make(closure, support));
        ClosedDfs(db, min_sup, frequent, closure, tidset, i, &out);
    }
    return out;
}

std::map<Itemset, std::size_t> SupportMap(const std::vector<Pattern>& patterns) {
    std::map<Itemset, std::size_t> m;
    for (const Pattern& p : patterns) m[p.items] = p.support;
    return m;
}

}  // namespace dfp::testutil
