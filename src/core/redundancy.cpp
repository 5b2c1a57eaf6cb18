#include "core/redundancy.hpp"

#include <algorithm>

namespace dfp {

double CoverJaccard(const BitVector& a, const BitVector& b) {
    const std::size_t unions = a.OrCount(b);
    if (unions == 0) return 0.0;
    return static_cast<double>(a.AndCount(b)) / static_cast<double>(unions);
}

double JaccardFromCounts(std::size_t both, std::size_t size_a,
                         std::size_t size_b) {
    const std::size_t unions = size_a + size_b - both;
    if (unions == 0) return 0.0;
    return static_cast<double>(both) / static_cast<double>(unions);
}

double Redundancy(const Pattern& a, const Pattern& b, double relevance_a,
                  double relevance_b) {
    return CoverJaccard(a.cover, b.cover) * std::min(relevance_a, relevance_b);
}

}  // namespace dfp
