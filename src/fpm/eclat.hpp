// Eclat: depth-first vertical mining over tid bit vectors (Zaki 2000).
//
// The repository's one all-frequent-itemset miner. On the dense databases
// this framework produces support counting is a single AND+popcount over
// cached covers, which made it 17x faster than the FP-growth it replaced on
// the 4000x30 reference corpus (DESIGN.md §12).
#pragma once

#include "fpm/miner.hpp"

namespace dfp {

/// DFS over item-prefix equivalence classes with bitset tidsets.
class EclatMiner : public Miner {
  public:
    std::string Name() const override { return "eclat"; }
    Result<MineOutcome<Pattern>> MineBudgeted(
        const TransactionDatabase& db, const MinerConfig& config) const override;
};

}  // namespace dfp
