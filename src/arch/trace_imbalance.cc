#include "arch/trace_imbalance.h"

#include <algorithm>
#include <utility>

#include "arch/cost_model.h"
#include "arch/dataflow.h"
#include "common/logging.h"
#include "common/math_utils.h"

namespace procrustes {
namespace arch {

namespace {

/** Measured mean density with an index wrapped into a vector, or the
    scalar mean when no vector was measured (ragged epochs drop them). */
double
wrapped(const std::vector<double> &v, int64_t idx, double fallback)
{
    if (v.empty())
        return fallback;
    return v[static_cast<size_t>(idx) % v.size()];
}

} // namespace

double
TraceSlotWork::uniform(Operand sp) const
{
    return sp == Operand::Weights ? layer.weightDensity() : layer.iacts.mean;
}

TileHalves
TraceSlotWork::halves(Operand sp, Dim d, int64_t idx) const
{
    const sparse::SparsityMask &mask = layer.mask;
    TileHalves h;
    if (sp == Operand::Weights) {
        if (d == Dim::K) {
            // One K-slice per PE, halved along C — the axis the
            // half-tile balancer cuts (Figure 9).
            const int64_t split = mask.C / 2;
            if (mask.C <= 1) {
                const double w = static_cast<double>(
                    mask.tileNnz(idx, idx + 1, 0, mask.C));
                h.first = w / 2.0;
                h.second = w / 2.0;
                return h;
            }
            h.first = static_cast<double>(
                mask.tileNnz(idx, idx + 1, 0, split));
            h.second = static_cast<double>(
                mask.tileNnz(idx, idx + 1, split, mask.C));
            return h;
        }
        if (d == Dim::C) {
            const int64_t split = mask.K / 2;
            if (mask.K <= 1) {
                const double w = static_cast<double>(
                    mask.tileNnz(0, mask.K, idx, idx + 1));
                h.first = w / 2.0;
                h.second = w / 2.0;
                return h;
            }
            h.first = static_cast<double>(
                mask.tileNnz(0, split, idx, idx + 1));
            h.second = static_cast<double>(
                mask.tileNnz(split, mask.K, idx, idx + 1));
            return h;
        }
        PANIC("weights sliced along a non-weight dim");
    }
    if (d == Dim::N) {
        // Measured per-sample halves (already split along C by the
        // telemetry scan); fall back to an even split of the sample
        // density, then to the scalar mean.
        const double sample =
            wrapped(layer.iacts.perSample, idx, layer.iacts.mean);
        if (!layer.iacts.perSampleHalf.empty()) {
            h.first = wrapped(layer.iacts.perSampleHalf, idx * 2,
                              sample / 2.0);
            h.second = wrapped(layer.iacts.perSampleHalf, idx * 2 + 1,
                               sample / 2.0);
            return h;
        }
        h.first = sample / 2.0;
        h.second = sample / 2.0;
        return h;
    }
    if (d == Dim::C) {
        const double chan =
            wrapped(layer.iacts.perChannel, idx, layer.iacts.mean);
        h.first = chan / 2.0;
        h.second = chan / 2.0;
        return h;
    }
    PANIC("iacts sliced along an unsupported dim");
}

double
TraceSlotWork::pair(Operand sp, Dim d0, int64_t i0, Dim d1, int64_t i1) const
{
    if (sp == Operand::Weights) {
        // Only the C,K pairing can index weights in both dims.
        const int64_t k = d0 == Dim::K ? i0 : i1;
        const int64_t c = d0 == Dim::K ? i1 : i0;
        return static_cast<double>(layer.mask.blockNnz(k, c));
    }
    // Activation pairings: ratio-combine the measured marginals. C and
    // N index their per-slot vectors directly; P and Q map the output
    // location onto the measured *input-space* spatial marginals
    // through the layer stride (clamped to the measured extent).
    double work = 1.0;
    bool any = false;
    for (const auto &di : {std::make_pair(d0, i0), std::make_pair(d1, i1)}) {
        if (di.first == Dim::N) {
            work *= wrapped(layer.iacts.perSample, di.second,
                            layer.iacts.mean);
            any = true;
        } else if (di.first == Dim::C) {
            work *= wrapped(layer.iacts.perChannel, di.second,
                            layer.iacts.mean);
            any = true;
        } else if (di.first == Dim::P || di.first == Dim::Q) {
            const std::vector<double> &m = di.first == Dim::P
                                               ? layer.iacts.perRow
                                               : layer.iacts.perCol;
            if (!m.empty()) {
                const int64_t last =
                    static_cast<int64_t>(m.size()) - 1;
                const int64_t at =
                    std::min(di.second * layer.shape.stride, last);
                work *= m[static_cast<size_t>(at)];
                any = true;
            }
        }
    }
    if (!any)
        return layer.iacts.mean;
    const double mean = std::max(layer.iacts.mean, 1e-9);
    return clampd(work / mean, 0.0, 1.0);
}

double
TraceSlotWork::sliceUnit(Operand sp, Dim d) const
{
    if (sp != Operand::Weights)
        return 1.0;
    const sparse::SparsityMask &mask = layer.mask;
    return static_cast<double>(std::max<int64_t>(
               1, d == Dim::K ? mask.C : mask.K)) *
           pairUnit(sp);
}

double
TraceSlotWork::pairUnit(Operand sp) const
{
    if (sp != Operand::Weights)
        return 1.0;
    return static_cast<double>(std::max<int64_t>(1, layer.mask.R) *
                               std::max<int64_t>(1, layer.mask.S));
}

namespace {

/** Invoke `fn(tiles, half_tile_ok)` on every wave's tile set of an
    epoch in one phase. */
template <typename Fn>
void
forEachMeasuredWave(const EpochTrace &epoch, Phase phase,
                    MappingKind mapping, const ArrayConfig &cfg, Fn &&fn)
{
    PROCRUSTES_ASSERT(epoch.batchSize > 0, "epoch has no batch size");
    for (const LayerTrace &l : epoch.layers) {
        const WaveTiler tiler(cfg, l.shape, phase, mapping,
                              epoch.batchSize);
        forEachWaveTiles(tiler, TraceSlotWork{l}, 1.0,
                         [&](const std::vector<TileHalves> &tiles) {
                             fn(tiles, tiler.halfTileOk());
                         });
    }
}

} // namespace

std::vector<double>
collectMeasuredOverheads(const EpochTrace &epoch, Phase phase,
                         MappingKind mapping, const ArrayConfig &cfg,
                         BalanceMode balance)
{
    std::vector<double> overheads;
    forEachMeasuredWave(epoch, phase, mapping, cfg,
                        [&](const std::vector<TileHalves> &tiles,
                            bool half_tile_ok) {
                            overheads.push_back(
                                waveOverhead(tiles, balance, half_tile_ok));
                        });
    return overheads;
}

EpochImbalance
measuredEpochImbalance(const EpochTrace &epoch, MappingKind mapping,
                       const ArrayConfig &cfg, BalanceMode balance,
                       int bins, double bin_width)
{
    std::vector<double> balanced;
    std::vector<double> unbalanced;
    // Forward and Backward tile identically (both are sparse in
    // Operand::Weights — sparseOperand — so waves and the cheap-
    // balancing gate match), so the mask is tiled once and each
    // overhead counted twice to keep the pooled phase weighting.
    for (Phase phase : {Phase::Forward, Phase::WeightUpdate}) {
        const int copies = phase == Phase::Forward ? 2 : 1;
        forEachMeasuredWave(
            epoch, phase, mapping, cfg,
            [&](const std::vector<TileHalves> &tiles, bool half_tile_ok) {
                const double b =
                    waveOverhead(tiles, balance, half_tile_ok);
                const double u =
                    waveOverhead(tiles, BalanceMode::None, half_tile_ok);
                for (int r = 0; r < copies; ++r) {
                    balanced.push_back(b);
                    unbalanced.push_back(u);
                }
            });
    }
    EpochImbalance out;
    out.balanced = buildHistogram(balanced, bins, bin_width);
    out.unbalanced = buildHistogram(unbalanced, bins, bin_width);
    return out;
}

} // namespace arch
} // namespace procrustes
