#include "arch/load_balancer.h"

#include <algorithm>

#include "common/logging.h"

namespace procrustes {
namespace arch {

std::vector<double>
rebalanceHalfTiles(const std::vector<TileHalves> &tiles)
{
    std::vector<double> halves;
    halves.reserve(tiles.size() * 2);
    for (const TileHalves &t : tiles) {
        halves.push_back(t.first);
        halves.push_back(t.second);
    }
    std::sort(halves.begin(), halves.end());

    const size_t n = tiles.size();
    std::vector<double> combined(n);
    for (size_t i = 0; i < n; ++i)
        combined[i] = halves[i] + halves[2 * n - 1 - i];
    return combined;
}

double
rebalancedMax(const std::vector<TileHalves> &tiles)
{
    PROCRUSTES_ASSERT(!tiles.empty(), "empty working set");
    double worst = 0.0;
    for (double w : rebalanceHalfTiles(tiles))
        worst = std::max(worst, w);
    return worst;
}

double
unbalancedMax(const std::vector<TileHalves> &tiles)
{
    PROCRUSTES_ASSERT(!tiles.empty(), "empty working set");
    double worst = 0.0;
    for (const TileHalves &t : tiles)
        worst = std::max(worst, t.total());
    return worst;
}

double
meanWork(const std::vector<TileHalves> &tiles)
{
    PROCRUSTES_ASSERT(!tiles.empty(), "empty working set");
    double sum = 0.0;
    for (const TileHalves &t : tiles)
        sum += t.total();
    return sum / static_cast<double>(tiles.size());
}

double
balancedMax(const std::vector<TileHalves> &tiles, BalanceMode balance,
            bool half_tile_ok)
{
    if (balance == BalanceMode::FullChip)
        return meanWork(tiles);
    if (balance == BalanceMode::HalfTile && half_tile_ok)
        return rebalancedMax(tiles);
    return unbalancedMax(tiles);
}

} // namespace arch
} // namespace procrustes
