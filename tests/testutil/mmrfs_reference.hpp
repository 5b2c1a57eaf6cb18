// Test-only oracle for MMRFS (Algorithm 1): the plain eager greedy loop.
//
// Every round recomputes g(α) = S(α) − max_{β ∈ Fs} R(α, β) for every
// remaining candidate from scratch, over Fs in selection order, and takes the
// lowest-index argmax; the argmax is selected if it correctly covers an
// instance still under δ coverage and discarded otherwise. O(|F|·|Fs|) work
// per round, no caching, no heap, no pruning: the definition, written down
// once, for RunMmrfs to be certified against bit for bit.
//
// Honors coverage_delta, max_features, relevance and candidate_mask; ignores
// the budget (a budget-truncated RunMmrfs is certified as a prefix of the
// untruncated one instead).
#pragma once

#include <vector>

#include "core/mmrfs.hpp"

namespace dfp::testutil {

MmrfsResult RunMmrfsReference(const TransactionDatabase& db,
                              const std::vector<Pattern>& candidates,
                              const MmrfsConfig& config);

}  // namespace dfp::testutil
