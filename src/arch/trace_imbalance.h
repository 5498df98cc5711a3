/**
 * @file
 * Measured-mask load-balance replay: Figures 5 and 13 rebuilt from the
 * masks a real training run produced, not from synthetic profiles.
 *
 * The replay engine is the one of arch/imbalance.h — the wave tiler's
 * waves, one overhead per working set from waveOverhead. This module
 * supplies the trace slot-work oracle, TraceSlotWork, which answers
 * from a recorded WorkloadTrace layer with no profile in between:
 * exact live-weight counts of the epoch-final mask for the fw/bw
 * phases (SparsityMask::tileNnz per slice, blockNnz per kernel of the
 * RF-chunked C,K tiling) and the measured per-sample / per-channel /
 * spatial activation-density vectors for the wu phase. The cycle
 * simulator's trace replay uses the same oracle, so both tally
 * identical work. Accelerator::evaluateTrace emits the resulting
 * balanced/unbalanced histograms per epoch, which is what
 * BENCH_cosim.json records.
 */

#ifndef PROCRUSTES_ARCH_TRACE_IMBALANCE_H_
#define PROCRUSTES_ARCH_TRACE_IMBALANCE_H_

#include <cstdint>
#include <vector>

#include "arch/imbalance.h"
#include "arch/wave_tiler.h"
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
 * Trace slot-work oracle (the interface of ProfileSlotWork, in the
 * trace's own units). Weights answer in live-position counts:
 * `halves` splits a slice's exact count (SparsityMask::tileNnz) along
 * the axis the half-tile balancer cuts (Figure 9), `pair` is one
 * kernel's count (SparsityMask::blockNnz). Activations answer in
 * measured densities: per-sample halves where the telemetry recorded
 * them, per-channel means split evenly, and for two sparse axes the
 * measured marginals ratio-combined (clamped to [0, 1]). Indices wrap
 * into the measured vectors; empty vectors fall back to the mean.
 */
struct TraceSlotWork
{
    const LayerTrace &layer;

    /** Layer-mean density of the operand (Uniform slots). */
    double uniform(Operand sp) const;

    double slice(Operand sp, Dim d, int64_t idx) const
    {
        return halves(sp, d, idx).total();
    }

    TileHalves halves(Operand sp, Dim d, int64_t idx) const;

    double pair(Operand sp, Dim d0, int64_t i0, Dim d1, int64_t i1) const;

    /** Dense positions per unit of slice / pair work: the slice's or
        kernel's weight positions, 1 for activation densities. */
    double sliceUnit(Operand sp, Dim d) const;
    double pairUnit(Operand sp) const;
};

/**
 * Per-wave overheads of every layer of a traced epoch in one phase —
 * collectOverheads with the trace oracle. Half-tile balancing applies
 * only where the mapping admits it (WaveTiler::halfTileOk), exactly
 * like the cost model.
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

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_TRACE_IMBALANCE_H_
