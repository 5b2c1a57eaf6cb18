// Test-only reference miners: the definitions of the production miners'
// outputs, written independently of their data structures.
//
//  * ReferenceFpGrowth — all frequent itemsets by FP-growth enumeration over
//    plain weighted transaction lists (a conditional FP-tree is just a
//    compression of its conditional pattern base). Emission order is
//    suffix-major: per-level header order support desc, item asc, mined in
//    reverse. An algorithm unrelated to Eclat's, so agreeing pattern sets
//    certify both.
//  * ReferenceEclat    — all frequent itemsets by the plain copy-per-candidate
//    tidset DFS, in EclatMiner's emission order (prefix-major, items asc).
//  * ReferenceClosed   — closed frequent itemsets by the LCM closure-extension
//    DFS with copied covers, in ClosedMiner's emission order.
//
// Every returned Pattern carries items (sorted) and exact support; cover and
// class counts are left empty. No filters: singletons are included and
// length is unbounded. Exponential in the worst case — for small databases.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "fpm/itemset.hpp"

namespace dfp::testutil {

std::vector<Pattern> ReferenceFpGrowth(const TransactionDatabase& db,
                                       std::size_t min_sup);

std::vector<Pattern> ReferenceEclat(const TransactionDatabase& db,
                                    std::size_t min_sup);

std::vector<Pattern> ReferenceClosed(const TransactionDatabase& db,
                                     std::size_t min_sup);

/// itemset → support, for order-insensitive comparisons of pattern sets.
std::map<Itemset, std::size_t> SupportMap(const std::vector<Pattern>& patterns);

}  // namespace dfp::testutil
