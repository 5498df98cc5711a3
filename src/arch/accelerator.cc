#include "arch/accelerator.h"

#include <algorithm>

#include "common/logging.h"

namespace procrustes {
namespace arch {

PhaseCost
NetworkCost::total() const
{
    PhaseCost t;
    t += fw;
    t += bw;
    t += wu;
    return t;
}

NetworkCost
Accelerator::evaluate(const NetworkModel &net,
                      const std::vector<LayerSparsityProfile> &profiles,
                      int64_t batch) const
{
    PROCRUSTES_ASSERT(profiles.size() == net.layers.size(),
                      "profile count mismatch");
    NetworkCost cost;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        cost.fw += model_.evaluatePhase(net.layers[i], Phase::Forward,
                                        mapping_, profiles[i], batch);
        cost.bw += model_.evaluatePhase(net.layers[i], Phase::Backward,
                                        mapping_, profiles[i], batch);
        cost.wu += model_.evaluatePhase(net.layers[i],
                                        Phase::WeightUpdate, mapping_,
                                        profiles[i], batch);
    }
    return cost;
}

NetworkCost
Accelerator::evaluateLayer(const LayerShape &layer,
                           const LayerSparsityProfile &profile,
                           int64_t batch) const
{
    NetworkCost cost;
    cost.fw += model_.evaluatePhase(layer, Phase::Forward, mapping_,
                                    profile, batch);
    cost.bw += model_.evaluatePhase(layer, Phase::Backward, mapping_,
                                    profile, batch);
    cost.wu += model_.evaluatePhase(layer, Phase::WeightUpdate, mapping_,
                                    profile, batch);
    return cost;
}

NetworkCost
Accelerator::evaluateTrace(const WorkloadTrace &trace, size_t epoch_idx,
                           EpochImbalance *imbalance,
                           sim::TraceSimResult *cycle_sim,
                           const sim::SimConfig &sim_cfg) const
{
    const EpochTrace &e = trace.epoch(epoch_idx);
    PROCRUSTES_ASSERT(e.batchSize > 0, "trace has no batch size");
    const auto profiles = measuredProfiles(e);
    const NetworkModel net = measuredNetwork(e);

    NetworkCost cost;
    double analytic_ref = 0.0;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        for (Phase phase :
             {Phase::Forward, Phase::Backward, Phase::WeightUpdate}) {
            const PhaseCost pc = model_.evaluatePhase(
                net.layers[i], phase, mapping_, profiles[i], e.batchSize,
                e.layers[i].measuredStats(phase, model_.options().sparse));
            PhaseCost &bucket = phase == Phase::Forward    ? cost.fw
                                : phase == Phase::Backward ? cost.bw
                                                           : cost.wu;
            bucket += pc;
            // Refill-aware analytic reference for the cycle-sim ratio:
            // when the co-run SimConfig charges DRAM->GLB refill, bound
            // the phase below by the same words at the same rate
            // (overlap-aware, matching
            // CostOptions::dramRefillWordsPerCycle semantics); with
            // refill off this is exactly computeCycles.
            double ref = pc.computeCycles;
            if (sim_cfg.dramWordsPerCycle > 0.0) {
                const double dwords =
                    pc.dramCycles * model_.config().dramWordsPerCycle();
                ref = std::max(ref, dwords / sim_cfg.dramWordsPerCycle);
            }
            analytic_ref += ref;
        }
    }
    if (imbalance) {
        *imbalance = measuredEpochImbalance(
            e, profiles, mapping_, model_.config(),
            model_.options().balance);
    }
    if (cycle_sim) {
        *cycle_sim = sim::simulateEpochPlan(
            sim::buildEpochWavePlan(e, profiles, mapping_, model_.config(),
                                    model_.options().balance),
            sim_cfg);
        cycle_sim->analyticComputeCycles = cost.total().computeCycles;
        cycle_sim->analyticRefCycles = analytic_ref;
        cycle_sim->analyticCycleRatio =
            cycle_sim->analyticRefCycles > 0.0
                ? static_cast<double>(cycle_sim->total.cycles) /
                      cycle_sim->analyticRefCycles
                : -1.0;
    }
    return cost;
}

Accelerator
Accelerator::procrustes(const ArrayConfig &cfg)
{
    CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    return {cfg, opts, MappingKind::KN};
}

Accelerator
Accelerator::denseBaseline(const ArrayConfig &cfg)
{
    CostOptions opts;
    opts.sparse = false;
    opts.balance = BalanceMode::None;
    return {cfg, opts, MappingKind::KN};
}

Accelerator
Accelerator::idealSparse(const ArrayConfig &cfg)
{
    CostOptions opts;
    opts.sparse = true;
    opts.ideal = true;
    opts.balance = BalanceMode::FullChip;
    return {cfg, opts, MappingKind::KN};
}

} // namespace arch
} // namespace procrustes
