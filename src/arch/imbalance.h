/**
 * @file
 * Load-imbalance histogram machinery (Figures 5 and 13).
 *
 * The paper characterizes imbalance as the execution-time overhead of
 * each full-PE-array working set: how much longer the slowest PE runs
 * than a perfectly balanced distribution of the same work. Figure 5
 * histograms these overheads for the unbalanced weight-stationary C,K
 * mapping; Figure 13 repeats the exercise after half-tile balancing
 * under the minibatch-spatial dataflow.
 *
 * One engine produces every histogram: the waves of the wave tiler
 * (arch/wave_tiler.h), slot work from the layers'
 * LayerSparsityProfiles in the cost model's unit, each working set's
 * overhead from waveOverhead. collectOverheads replays synthetic
 * profiles; collectMeasuredOverheads and measuredEpochImbalance
 * (arch/trace_imbalance.h) replay the measured profiles of a recorded
 * WorkloadTrace epoch through the same loop (forEachNetworkWave).
 */

#ifndef PROCRUSTES_ARCH_IMBALANCE_H_
#define PROCRUSTES_ARCH_IMBALANCE_H_

#include <vector>

#include "arch/cost_model.h"
#include "arch/model_zoo.h"
#include "common/logging.h"

namespace procrustes {
namespace arch {

/** A binned overhead distribution over working sets. */
struct ImbalanceHistogram
{
    double binWidth = 0.0;
    std::vector<double> fraction;   //!< per-bin fraction of working sets
    double meanOverhead = 0.0;
    double maxOverhead = 0.0;

    /** Fraction of working sets with overhead above `threshold`. */
    double fractionAbove(double threshold) const;
};

/**
 * Call `fn(tiles, half_tile_ok)` with the half-split tiles of every
 * wave of every layer of a network in one phase, in issue order: the
 * profiles' slot densities times the dense MACs per index, the unit of
 * CostModel::waveStats. `half_tile_ok` is the layer's cheap-balancing
 * gate (WaveTiler::halfTileOk).
 */
template <typename Fn>
void
forEachNetworkWave(const NetworkModel &model,
                   const std::vector<LayerSparsityProfile> &profiles,
                   Phase phase, MappingKind mapping, int64_t batch,
                   const ArrayConfig &cfg, Fn &&fn)
{
    PROCRUSTES_ASSERT(profiles.size() == model.layers.size(),
                      "profile count mismatch");
    for (size_t i = 0; i < model.layers.size(); ++i) {
        const WaveTiler tiler(cfg, model.layers[i], phase, mapping, batch);
        forEachWaveTiles(tiler, profiles[i], tiler.perIndex(),
                         [&](const std::vector<TileHalves> &tiles) {
                             fn(tiles, tiler.halfTileOk());
                         });
    }
}

/**
 * Collect per-wave overheads for every layer of a network in one phase
 * under one mapping/balancing configuration. Waves whose workload is
 * uniform by construction report zero overhead. Each overhead is
 * exactly that of CostModel::waveStats.
 */
std::vector<double>
collectOverheads(const NetworkModel &model,
                 const std::vector<LayerSparsityProfile> &profiles,
                 Phase phase, MappingKind mapping, int64_t batch,
                 const ArrayConfig &cfg, BalanceMode balance);

/**
 * Execution overhead of one working set of half-split tiles under a
 * balancing policy: slowest slot over the perfectly balanced latency,
 * minus one, with the wave latency of balancedMax. A mapping whose
 * `half_tile_ok` gate is false (WaveTiler::halfTileOk) falls back to
 * unbalanced execution. Empty or zero-work working sets report zero
 * overhead.
 */
double waveOverhead(const std::vector<TileHalves> &tiles,
                    BalanceMode balance, bool half_tile_ok);

/** Bin overheads into a histogram with `bins` bins of `bin_width`. */
ImbalanceHistogram buildHistogram(const std::vector<double> &overheads,
                                  int bins, double bin_width);

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_IMBALANCE_H_
