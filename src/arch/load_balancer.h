/**
 * @file
 * The Procrustes half-tile load balancer (Section IV-C, Figure 9).
 *
 * Work tiles are cut in half along the sparse dimension; because
 * sparsity is uneven, the two halves carry different work. All halves
 * of one full-PE-array working set are sorted by work and matched from
 * opposite ends — the lightest half with the heaviest, the second
 * lightest with the second heaviest, and so on — so every recombined
 * tile lands close to the average. With the minibatch-spatial dataflow
 * (K,N or C,N) the exchange happens along a single array axis, so the
 * interconnect is untouched (Figure 12).
 */

#ifndef PROCRUSTES_ARCH_LOAD_BALANCER_H_
#define PROCRUSTES_ARCH_LOAD_BALANCER_H_

#include <cstdint>
#include <vector>

namespace procrustes {
namespace arch {

/** Load-balancing policy applied to a working set. */
enum class BalanceMode
{
    None,       //!< tiles run where they land (Figure 4b)
    HalfTile,   //!< Procrustes half-tile pairing along the sparse axis
    FullChip,   //!< perfect chip-wide balancing (complex interconnect)
};

/** Work carried by the two halves of one tile. */
struct TileHalves
{
    double first = 0.0;
    double second = 0.0;

    double total() const { return first + second; }
};

/**
 * Rebalance a working set of tiles by half-tile pairing.
 *
 * @param tiles per-slot half works (one entry per PE slot).
 * @return per-slot work after pairing; same size as the input,
 *         sorted by construction from heaviest pair to lightest.
 */
std::vector<double> rebalanceHalfTiles(const std::vector<TileHalves> &tiles);

/** Maximum per-slot work after rebalancing (wave latency). */
double rebalancedMax(const std::vector<TileHalves> &tiles);

/** Maximum per-slot work without rebalancing. */
double unbalancedMax(const std::vector<TileHalves> &tiles);

/** Mean per-slot work — the perfectly balanced wave latency. */
double meanWork(const std::vector<TileHalves> &tiles);

/**
 * Wave latency under a balancing policy: the mean for FullChip, the
 * rebalanced maximum for HalfTile where `half_tile_ok` admits the
 * pairing (supportsCheapBalancing), the unbalanced maximum otherwise.
 */
double balancedMax(const std::vector<TileHalves> &tiles,
                   BalanceMode balance, bool half_tile_ok);

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_LOAD_BALANCER_H_
