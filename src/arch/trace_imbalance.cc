#include "arch/trace_imbalance.h"

#include "common/logging.h"

namespace procrustes {
namespace arch {

std::vector<double>
collectMeasuredOverheads(const EpochTrace &epoch, Phase phase,
                         MappingKind mapping, const ArrayConfig &cfg,
                         BalanceMode balance)
{
    PROCRUSTES_ASSERT(epoch.batchSize > 0, "epoch has no batch size");
    return collectOverheads(measuredNetwork(epoch), measuredProfiles(epoch),
                            phase, mapping, epoch.batchSize, cfg, balance);
}

EpochImbalance
measuredEpochImbalance(const EpochTrace &epoch, MappingKind mapping,
                       const ArrayConfig &cfg, BalanceMode balance,
                       int bins, double bin_width)
{
    return measuredEpochImbalance(epoch, measuredProfiles(epoch), mapping,
                                  cfg, balance, bins, bin_width);
}

EpochImbalance
measuredEpochImbalance(const EpochTrace &epoch,
                       const std::vector<LayerSparsityProfile> &profiles,
                       MappingKind mapping, const ArrayConfig &cfg,
                       BalanceMode balance, int bins, double bin_width)
{
    PROCRUSTES_ASSERT(epoch.batchSize > 0, "epoch has no batch size");
    const NetworkModel net = measuredNetwork(epoch);
    std::vector<double> balanced;
    std::vector<double> unbalanced;
    // Forward and Backward tile identically (both are sparse in
    // Operand::Weights — sparseOperand — so waves and the cheap-
    // balancing gate match), so the mask is tiled once and each
    // overhead counted twice to keep the pooled phase weighting.
    for (Phase phase : {Phase::Forward, Phase::WeightUpdate}) {
        const int copies = phase == Phase::Forward ? 2 : 1;
        forEachNetworkWave(
            net, profiles, phase, mapping, epoch.batchSize, cfg,
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
