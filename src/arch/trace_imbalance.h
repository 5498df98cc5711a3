/**
 * @file
 * Measured-mask load-balance replay: Figures 5 and 13 rebuilt from the
 * masks a real training run produced, not from synthetic profiles.
 *
 * There is no replay engine of its own here. A recorded WorkloadTrace
 * epoch becomes one measured LayerSparsityProfile per layer
 * (measuredProfiles: the epoch-final mask's exact per-kernel counts
 * and the measured per-sample / per-channel / spatial activation
 * densities, unclamped), and the wave loop of arch/imbalance.h
 * (forEachNetworkWave) replays them — the same profiles
 * Accelerator::evaluateTrace costs and the cycle simulator's trace
 * replay clocks, so all three see identical work.
 * Accelerator::evaluateTrace emits the resulting balanced/unbalanced
 * histograms per epoch, which is what BENCH_cosim.json records.
 */

#ifndef PROCRUSTES_ARCH_TRACE_IMBALANCE_H_
#define PROCRUSTES_ARCH_TRACE_IMBALANCE_H_

#include <vector>

#include "arch/imbalance.h"
#include "arch/workload_trace.h"

namespace procrustes {
namespace arch {

/** Balanced-vs-unbalanced overhead distributions of one epoch. */
struct EpochImbalance
{
    ImbalanceHistogram unbalanced;   //!< BalanceMode::None
    ImbalanceHistogram balanced;     //!< the requested balancing policy
};

/**
 * Per-wave overheads of every layer of a traced epoch in one phase:
 * collectOverheads over the epoch's measured profiles at its batch
 * size. Half-tile balancing applies only where the mapping admits it
 * (WaveTiler::halfTileOk), exactly like the cost model.
 */
std::vector<double>
collectMeasuredOverheads(const EpochTrace &epoch, Phase phase,
                         MappingKind mapping, const ArrayConfig &cfg,
                         BalanceMode balance);

/**
 * Balanced and unbalanced overhead histograms of one epoch, all three
 * training phases pooled (the balanced side uses `balance`, the
 * unbalanced side BalanceMode::None). Defaults match the Figure 5/13
 * binning. Balanced meanOverhead never exceeds unbalanced: the
 * original tiles are one feasible pairing of the same halves, so the
 * half-tile pairing can only lower every wave's maximum.
 */
EpochImbalance
measuredEpochImbalance(const EpochTrace &epoch, MappingKind mapping,
                       const ArrayConfig &cfg, BalanceMode balance,
                       int bins = 32, double bin_width = 0.05);

/** As above, over the epoch's already built measuredProfiles. */
EpochImbalance
measuredEpochImbalance(const EpochTrace &epoch,
                       const std::vector<LayerSparsityProfile> &profiles,
                       MappingKind mapping, const ArrayConfig &cfg,
                       BalanceMode balance, int bins = 32,
                       double bin_width = 0.05);

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_TRACE_IMBALANCE_H_
