// Pattern redundancy (Definition 4 / Eq. 9 of the paper).
//
// Two patterns are redundant when they cover largely the same transactions:
//   R(α, β) = Jaccard(cover(α), cover(β)) · min(S(α), S(β))
// i.e. the weaker pattern's relevance, discounted by how much the covers
// overlap. A non-closed pattern and its closure have Jaccard 1, which is why
// the framework mines *closed* patterns: the non-closed ones are completely
// redundant.
#pragma once

#include "common/bitvector.hpp"
#include "fpm/itemset.hpp"

namespace dfp {

/// Jaccard similarity |A∧B| / |A∨B| of two cover sets (0 when both empty).
double CoverJaccard(const BitVector& a, const BitVector& b);

/// The same Jaccard from counts: |A∧B| and the set sizes |A|, |B|, with
/// |A∨B| = |A| + |B| − |A∧B|. The integers equal those CoverJaccard counts,
/// so the quotient is bitwise the same; callers that reuse set sizes across
/// many pairs save one popcount pass per pair.
double JaccardFromCounts(std::size_t both, std::size_t size_a,
                         std::size_t size_b);

/// Eq. 9: Jaccard(covers) × min(relevance_a, relevance_b).
double Redundancy(const Pattern& a, const Pattern& b, double relevance_a,
                  double relevance_b);

}  // namespace dfp
