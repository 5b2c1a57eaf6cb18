// The planted-pattern corpus and training settings shared by the train and
// serve workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "data/transaction_db.hpp"

namespace perfbench {

/// 4000 rows × 30 items (10 categorical attributes of arity 3) with planted
/// per-class concepts, XOR templates and class-neutral background
/// correlation: the significance sweep's corpus. Held-out accuracy is ~0.9,
/// so a wrong served label shows.
struct PlantedCorpus {
    dfp::TransactionDatabase train;
    dfp::TransactionDatabase test;
};

/// Folds of the cross-validation the train workload rotates through.
constexpr std::size_t kPlantedFolds = 5;

/// The corpus cut into kPlantedFolds train/test splits (80/20) by a
/// partition that `seed` draws: every row is held out by exactly one fold.
std::vector<PlantedCorpus> MakePlantedFolds(std::uint64_t seed);

/// chi2 at alpha 0.05 with Benjamini–Hochberg, coverage delta 4, patterns up
/// to length 4 at min_sup 0.03, one thread in every stage. One Train on the
/// corpus takes a few hundred ms, most of it in MMRFS.
dfp::PipelineConfig PlantedPipelineConfig();

}  // namespace perfbench
