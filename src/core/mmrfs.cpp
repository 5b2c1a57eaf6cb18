#include "core/mmrfs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <queue>

#include "core/redundancy.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

// One selection run's work tallies, flushed to the registry at the end.
struct MmrfsTally {
    std::size_t heap_pops = 0;
    std::size_t stale_refreshes = 0;  // pops that re-folded newer β's
    std::size_t pruned = 0;           // pops that could no longer be selected
    std::size_t redundancy_evals = 0;
};

// Flushes one selection run's tallies to the registry: the accept/discard
// split (a discard is a candidate pruned because it covers no instance still
// under δ coverage; iterations = accepted + discarded), the heap work, the
// gain distribution of accepted features and how many instances were still
// under δ coverage at the stop.
void FlushMmrfsMetrics(const MmrfsTally& tally, const std::vector<double>& gains,
                       std::size_t under_covered, std::size_t pool_size) {
    auto& registry = obs::Registry::Get();
    static auto& iter_c = registry.GetCounter("dfp.core.mmrfs.iterations");
    static auto& accept_c = registry.GetCounter("dfp.core.mmrfs.accepted");
    static auto& discard_c = registry.GetCounter("dfp.core.mmrfs.discarded");
    static auto& red_c =
        registry.GetCounter("dfp.core.mmrfs.redundancy_evals");
    static auto& pops_c = registry.GetCounter("dfp.core.mmrfs.heap_pops");
    static auto& stale_c =
        registry.GetCounter("dfp.core.mmrfs.stale_refreshes");
    static auto& pruned_c = registry.GetCounter("dfp.core.mmrfs.pruned");
    static auto& gain_h = registry.GetHistogram(
        "dfp.core.mmrfs.gain",
        {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0});
    iter_c.Inc(gains.size() + tally.pruned);
    accept_c.Inc(gains.size());
    discard_c.Inc(tally.pruned);
    red_c.Inc(tally.redundancy_evals);
    pops_c.Inc(tally.heap_pops);
    stale_c.Inc(tally.stale_refreshes);
    pruned_c.Inc(tally.pruned);
    for (double g : gains) gain_h.Observe(g);
    registry.GetGauge("dfp.core.mmrfs.under_covered_final")
        .Set(static_cast<double>(under_covered));
    registry.GetGauge("dfp.core.mmrfs.pool_size")
        .Set(static_cast<double>(pool_size));
}

// Max-heap entry: a candidate keyed by its gain as of its last refresh.
// Ties pop the lowest index first — the eager scan's tie-break.
struct HeapEntry {
    double gain;
    std::size_t index;
};
struct PopsLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
        if (a.gain != b.gain) return a.gain < b.gain;
        return a.index > b.index;
    }
};

}  // namespace

MmrfsResult RunMmrfs(const TransactionDatabase& db,
                     const std::vector<Pattern>& candidates,
                     const MmrfsConfig& config) {
    const std::size_t n = db.num_transactions();
    const std::size_t delta = config.coverage_delta;
    MmrfsResult result;
    result.coverage.assign(n, 0);
    result.relevance.resize(candidates.size());
    if (candidates.empty() || n == 0) return result;
    assert((config.candidate_mask == nullptr ||
            config.candidate_mask->size() == candidates.size()) &&
           "candidate_mask must match the candidate count");
    const std::vector<char>* mask = config.candidate_mask;

    // The effective feature cap folds budget.max_patterns into max_features;
    // selections emitted so far play the "pattern count" role for the guard.
    // A heap pop can refresh against many β's, so read the clock on each check.
    BudgetGuard guard(config.budget, config.max_features, /*clock_stride=*/1);

    // Relevance S(α) of every unmasked candidate; each enters the heap keyed
    // by its gain against the empty Fs. Masked-out candidates stay at
    // relevance 0 and never enter the heap.
    std::vector<HeapEntry> entries;
    entries.reserve(candidates.size());
    std::vector<double> max_red(candidates.size(), 0.0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (mask != nullptr && (*mask)[i] == 0) continue;
        assert(candidates[i].cover.size() == n && "metadata not attached");
        result.relevance[i] =
            PatternRelevance(config.relevance, db, candidates[i]);
        entries.push_back({result.relevance[i] - max_red[i], i});
        if (guard.Check(0) != BudgetBreach::kNone &&
            guard.breach() != BudgetBreach::kPatternCap) {
            // Deadline/cancel during scoring: nothing selected yet, bail.
            result.breach = guard.breach();
            RecordBreach("core.mmrfs", result.breach, 0.0);
            return result;
        }
    }
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, PopsLater> heap(
        PopsLater{}, std::move(entries));

    // An instance is "correctly covered" by α when α is present in it and α's
    // majority class matches its label. needy[c] holds the class-c rows still
    // covered fewer than δ times, so α can still be selected iff its cover
    // meets needy[majority(α)]. Needy sets only shrink: a candidate that
    // fails the test once can never be selected, and is dropped for good.
    std::vector<BitVector> needy(db.num_classes(), BitVector(n));
    std::size_t under_covered = 0;
    if (delta > 0) {
        for (std::size_t c = 0; c < needy.size(); ++c) {
            needy[c] = db.ClassCover(static_cast<ClassLabel>(c));
        }
        under_covered = n;
    }
    std::vector<ClassLabel> majority(candidates.size());
    std::vector<std::size_t> cover_size(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        majority[i] = candidates[i].MajorityClass();
        assert(majority[i] < needy.size());
        cover_size[i] = candidates[i].cover.Count();
    }

    // Lazy greedy (Minoux's accelerated greedy / CELF): g(α) = S(α) −
    // max_{β ∈ Fs} R(α, β) can only fall as Fs grows, so a heap key computed
    // against a prefix of Fs is an upper bound on the current gain. Pop the
    // top; prune it if it can no longer be selected; if Fs grew since its key
    // was computed, fold the new β's — selected[checked[i]..] — into its
    // running max (the same max over the same doubles in the same order as a
    // from-scratch recompute) and push it back; otherwise its key is exact
    // and at least every other candidate's bound, so it is the eager argmax,
    // lowest index among equal gains. Selecting it only shrinks the needy
    // sets, so the selected sequence is "argmax among still-selectable
    // candidates" — exactly what the eager select-or-discard loop produces.
    MmrfsTally tally;
    std::vector<std::size_t> checked(candidates.size(), 0);
    while (under_covered > 0 && result.selected.size() < config.max_features &&
           !heap.empty()) {
        if (guard.Check(result.selected.size()) != BudgetBreach::kNone) {
            result.breach = guard.breach();
            break;
        }
        const HeapEntry top = heap.top();
        heap.pop();
        ++tally.heap_pops;
        const std::size_t i = top.index;
        const Pattern& alpha = candidates[i];
        BitVector& needy_rows = needy[majority[i]];
        if (alpha.cover.IsDisjointWith(needy_rows)) {
            ++tally.pruned;
            continue;
        }
        if (checked[i] < result.selected.size()) {
            tally.redundancy_evals += result.selected.size() - checked[i];
            for (; checked[i] < result.selected.size(); ++checked[i]) {
                const std::size_t s = result.selected[checked[i]];
                const double r =
                    JaccardFromCounts(alpha.cover.AndCount(candidates[s].cover),
                                      cover_size[i], cover_size[s]) *
                    std::min(result.relevance[i], result.relevance[s]);
                max_red[i] = std::max(max_red[i], r);
            }
            const double gain = result.relevance[i] - max_red[i];
            if (std::isnan(gain)) {
                // ∞ − ∞ (two Fisher-infinite patterns that overlap): NaN
                // never wins the eager argmax's `>`, and the max cannot fall
                // back, so the candidate can never be selected.
                ++tally.pruned;
                continue;
            }
            ++tally.stale_refreshes;
            heap.push({gain, i});
            continue;
        }

        result.selected.push_back(i);
        result.gains.push_back(top.gain);
        (alpha.cover & needy_rows).ForEach([&](std::uint32_t t) {
            if (++result.coverage[t] == delta) {
                needy_rows.Clear(t);
                --under_covered;
            }
        });
    }
    if (result.breach != BudgetBreach::kNone) {
        RecordBreach("core.mmrfs", result.breach,
                     static_cast<double>(result.selected.size()));
    }
    FlushMmrfsMetrics(tally, result.gains, under_covered, candidates.size());
    return result;
}

std::vector<Pattern> SelectPatterns(const TransactionDatabase& db,
                                    const std::vector<Pattern>& candidates,
                                    const MmrfsConfig& config) {
    const MmrfsResult result = RunMmrfs(db, candidates, config);
    std::vector<Pattern> out;
    out.reserve(result.selected.size());
    for (std::size_t i : result.selected) out.push_back(candidates[i]);
    return out;
}

std::vector<std::size_t> TopKByRelevance(const TransactionDatabase& db,
                                         const std::vector<Pattern>& candidates,
                                         RelevanceMeasure measure, std::size_t k) {
    std::vector<std::pair<double, std::size_t>> scored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        scored.emplace_back(PatternRelevance(measure, db, candidates[i]), i);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < std::min(k, scored.size()); ++i) {
        out.push_back(scored[i].second);
    }
    return out;
}

}  // namespace dfp
