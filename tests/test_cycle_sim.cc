/**
 * @file
 * Tests for the cycle-level PE-array simulator, including agreement
 * with the analytic cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "arch/cost_model.h"
#include "arch/workload_trace.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "sim/cycle_sim.h"
#include "sparse/gradual_pruning.h"
#include "sparse/mask.h"

namespace procrustes {
namespace sim {
namespace {

using arch::ArrayConfig;
using arch::BalanceMode;
using arch::LayerShape;
using arch::LayerSparsityProfile;
using arch::MappingKind;
using arch::Phase;

WaveSpec
uniformWave(int rows, int cols, int64_t macs, int64_t words_a,
            int64_t words_b)
{
    WaveSpec w;
    w.rows = rows;
    w.cols = cols;
    w.channelA = Channel::RowBus;
    w.channelB = Channel::ColBus;
    w.channelOut = Channel::UnicastNet;
    TileDemand d;
    d.macs = macs;
    d.wordsA = words_a;
    d.wordsB = words_b;
    d.psumWords = 1;
    w.tiles.assign(static_cast<size_t>(rows) * cols, d);
    return w;
}

TEST(CycleSim, ComputeBoundWaveRunsAtOneMacPerCycle)
{
    // Few operand words, heavy reuse: compute-bound.
    const WaveSpec w = uniformWave(4, 4, 1000, 10, 10);
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_EQ(r.macsRetired, 16 * 1000);
    // All PEs retire one MAC per cycle once words flow; slack only in
    // the first cycles.
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 1000.0, 15.0);
}

TEST(CycleSim, BandwidthStarvedWaveStalls)
{
    // Every MAC needs a fresh unicast word; aggregate unicast
    // bandwidth of 16 words/cycle feeds 16 PEs at 1/PE — but 64 PEs
    // need 4x that, so the wave runs ~4x longer.
    WaveSpec w = uniformWave(8, 8, 100, 1, 100);
    w.channelB = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 16;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_GT(r.computeCycles, 350);
    EXPECT_GT(r.stallCycles, 0);
}

TEST(CycleSim, SkewedWaveMatchesMaxTileWork)
{
    WaveSpec w = uniformWave(2, 2, 100, 5, 5);
    w.tiles[0].macs = 1000;   // one heavy PE
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 1000.0, 20.0);
}

TEST(CycleSim, BroadcastChannelFeedsAllPes)
{
    WaveSpec w = uniformWave(4, 4, 64, 64, 1);
    w.channelA = Channel::Broadcast;
    const SimResult r = simulateWave(w, SimConfig{});
    // One word per cycle broadcast, each word enables 1 MAC: the wave
    // takes ~64 cycles with all PEs in lockstep.
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 64.0, 5.0);
}

TEST(CycleSim, DrainAddedAfterCompute)
{
    WaveSpec w = uniformWave(2, 2, 10, 1, 1);
    for (auto &t : w.tiles)
        t.psumWords = 50;
    w.channelOut = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 4;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_EQ(r.cycles - r.computeCycles, (4 * 50) / 4);
}

TEST(CycleSimDeathTest, RejectsNonPositiveUnicastBandwidth)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.unicastWordsPerCycle = 0;
    EXPECT_DEATH(simulateWave(w, bad), "unicastWordsPerCycle");
}

TEST(CycleSimDeathTest, RejectsNonPositiveGlbBanks)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.glbBanks = -4;
    EXPECT_DEATH(simulateWave(w, bad), "glbBanks must be positive");
}

TEST(CycleSimDeathTest, RejectsNonPositiveGlbBankPorts)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.glbBankPortsPerCycle = 0;
    EXPECT_DEATH(simulateWave(w, bad), "glbBankPortsPerCycle");
}

TEST(CycleSimDeathTest, RejectsNonPositiveMaxCycles)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.maxCycles = 0;
    EXPECT_DEATH(simulateWave(w, bad), "maxCycles");
}

TEST(CycleSim, UnboundedFifoAndRefillOffAreValidConfigs)
{
    // peFifoDepth <= 0 (unbounded queues) and dramWordsPerCycle <= 0
    // (refill front end off) are meaningful settings, not errors.
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig cfg;
    cfg.peFifoDepth = 0;
    cfg.dramWordsPerCycle = 0.0;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_EQ(r.macsRetired, 1);
}

TEST(CycleSim, ChannelMapping)
{
    EXPECT_EQ(channelFor(arch::FlowClass::MulticastRows),
              Channel::RowBus);
    EXPECT_EQ(channelFor(arch::FlowClass::ReduceCols), Channel::ColBus);
    EXPECT_EQ(channelFor(arch::FlowClass::Broadcast),
              Channel::Broadcast);
    EXPECT_EQ(channelFor(arch::FlowClass::Unicast), Channel::UnicastNet);
}

/**
 * Cross-validation: the cycle-level simulation of a small layer must
 * agree with the analytic model's compute latency within 1% for every
 * mapping x phase (computeCycles excludes drain; the 16-word unicast
 * budget keeps operand delivery from dominating).
 */
struct AgreementCase
{
    const char *name;
    MappingKind mapping;
    Phase phase;
};

class AnalyticAgreement : public ::testing::TestWithParam<AgreementCase>
{
};

TEST_P(AnalyticAgreement, CycleSimWithinBand)
{
    const AgreementCase &ac = GetParam();
    const LayerShape layer = arch::convLayer("c", 32, 32, 3, 8);
    sparse::SyntheticMaskConfig mc;
    mc.targetDensity = 0.25;
    mc.kernelSigma = 1.0;
    mc.seed = 5;
    const auto mask = sparse::makeSyntheticMask(
        layer.K, layer.effectiveC(), layer.R, layer.S, mc);
    const LayerSparsityProfile profile(mask, 0.5);

    const ArrayConfig acfg = ArrayConfig::baseline16();
    arch::CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    const arch::CostModel analytic(acfg, opts);
    const double expected =
        analytic
            .evaluatePhase(layer, ac.phase, ac.mapping, profile, 16)
            .computeCycles;

    SimConfig scfg;
    scfg.unicastWordsPerCycle = 16;
    const SimResult sim = simulateLayerPhase(
        layer, ac.phase, ac.mapping, profile, 16, acfg, scfg,
        BalanceMode::HalfTile);

    // Same waves and slot work as the model (WaveTiler,
    // ProfileSlotWork): only per-slot MAC rounding and interconnect
    // stalls separate the two, so every mapping x phase agrees to 1%.
    EXPECT_NEAR(static_cast<double>(sim.computeCycles) / expected, 1.0,
                0.01)
        << ac.name;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AnalyticAgreement,
    ::testing::Values(
        AgreementCase{"kn_fw", MappingKind::KN, Phase::Forward},
        AgreementCase{"kn_bw", MappingKind::KN, Phase::Backward},
        AgreementCase{"kn_wu", MappingKind::KN, Phase::WeightUpdate},
        AgreementCase{"cn_fw", MappingKind::CN, Phase::Forward},
        AgreementCase{"cn_bw", MappingKind::CN, Phase::Backward},
        AgreementCase{"cn_wu", MappingKind::CN, Phase::WeightUpdate},
        AgreementCase{"ck_fw", MappingKind::CK, Phase::Forward},
        AgreementCase{"ck_bw", MappingKind::CK, Phase::Backward},
        AgreementCase{"ck_wu", MappingKind::CK, Phase::WeightUpdate},
        AgreementCase{"pq_fw", MappingKind::PQ, Phase::Forward},
        AgreementCase{"pq_bw", MappingKind::PQ, Phase::Backward},
        AgreementCase{"pq_wu", MappingKind::PQ, Phase::WeightUpdate}),
    [](const ::testing::TestParamInfo<AgreementCase> &info) {
        return info.param.name;
    });

TEST(CycleSim, UnicastBudgetSharedAcrossOperands)
{
    // Both operands ride the unicast network: its aggregate bandwidth
    // is one budget per cycle, not one per operand. 64 PEs x 200
    // words at 16 words/cycle needs >= 800 delivery cycles;
    // double-counting the budget per channel would finish in ~400.
    WaveSpec w = uniformWave(8, 8, 100, 100, 100);
    w.channelA = Channel::UnicastNet;
    w.channelB = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 16;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_GE(r.computeCycles, 800);
    EXPECT_EQ(r.macsRetired, 64 * 100);
}

TEST(CycleSim, RoundRobinCursorResumesAtLastServed)
{
    // Budget 2 over four equally hungry slots: the cursor must resume
    // one past the last slot served, so two calls reach all four
    // exactly once. (The seed advanced the cursor by one per cycle,
    // re-serving slot 1 while slot 3 starved: recv [1,2,1,0].)
    const std::vector<int64_t> cap(4, 100);
    std::vector<int64_t> recv(4, 0);
    int budget = 2;
    size_t cursor = unicastRoundRobin(cap, recv, budget, 0);
    EXPECT_EQ(budget, 0);
    EXPECT_EQ(cursor, 2u);
    budget = 2;
    cursor = unicastRoundRobin(cap, recv, budget, cursor);
    EXPECT_EQ(budget, 0);
    EXPECT_EQ(cursor, 0u);
    EXPECT_EQ(recv, (std::vector<int64_t>{1, 1, 1, 1}));
}

TEST(CycleSim, RoundRobinSkipsFullSlotsAndKeepsLeftoverBudget)
{
    const std::vector<int64_t> cap = {1, 0, 3};
    std::vector<int64_t> recv = {1, 0, 1};
    int budget = 4;
    const size_t cursor = unicastRoundRobin(cap, recv, budget, 0);
    // Only slot 2 is hungry; it gets one word this cycle, the rest of
    // the budget is left over, and service resumes after it.
    EXPECT_EQ(recv, (std::vector<int64_t>{1, 0, 2}));
    EXPECT_EQ(budget, 3);
    EXPECT_EQ(cursor, 0u);
}

TEST(CycleSim, SaturatedRowBusDeliversOneLinePerCycle)
{
    // More operand-A words than MACs on the row bus: the wave is
    // word-bound at one multicast line per row per cycle.
    WaveSpec w = uniformWave(4, 4, 100, 200, 10);
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 200.0, 15.0);
    EXPECT_GT(r.stallCycles, 0);
}

TEST(CycleSim, SaturatedColBusDeliversOneLinePerCycle)
{
    WaveSpec w = uniformWave(4, 4, 100, 10, 200);
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 200.0, 15.0);
    EXPECT_GT(r.stallCycles, 0);
}

TEST(CycleSim, DrainOnlyWaveTakesBandwidthBoundCycles)
{
    // No MACs, no operand words — just partial sums to drain. The
    // wave must not spin on compute: 4 PEs x 25 psums over a 4-wide
    // unicast output channel is exactly 25 drain cycles.
    WaveSpec w = uniformWave(2, 2, 0, 0, 0);
    for (auto &t : w.tiles)
        t.psumWords = 25;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 4;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_EQ(r.macsRetired, 0);
    EXPECT_EQ(r.computeCycles, 0);
    EXPECT_EQ(r.drainCycles, 25);
    EXPECT_EQ(r.cycles, 25);
}

TEST(CycleSim, GlbBankConflictsStallAndAreCounted)
{
    // 16 unicast words/cycle against 4 single-ported banks: every
    // delivery cycle oversubscribes the GLB 4x and must replay.
    WaveSpec w = uniformWave(8, 8, 100, 1, 100);
    w.channelB = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 16;
    cfg.glbBanks = 4;
    cfg.glbBankPortsPerCycle = 1;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_GT(r.glbConflicts, 0);
    EXPECT_GT(r.glbConflictCycles, 0);
    EXPECT_EQ(r.cycles,
              r.computeCycles + r.drainCycles + r.glbConflictCycles);
    // Unicast words read once per PE; the single operand-A word is a
    // multicast line per row (one GLB read fans out to 8 PEs). Every
    // psum written once.
    EXPECT_EQ(r.totalGlbReads(), 64 * 100 + 8);
    EXPECT_EQ(r.totalGlbWrites(), 64 * 1);

    // The default GLB (64 banks) covers the full per-cycle demand of
    // the baseline array: same wave, no conflicts.
    const SimResult wide = simulateWave(w, SimConfig{});
    EXPECT_EQ(wide.glbConflicts, 0);
    EXPECT_EQ(wide.glbConflictCycles, 0);
}

TEST(CycleSim, FifoBackpressureThrottlesDeliveryWithoutSlowdown)
{
    // Row bus can feed one word per cycle but each word covers two
    // MACs: a shallow operand queue fills and withholds deliveries.
    // Backpressure must be counted, and — since words still arrive
    // ahead of consumption — must not change the makespan.
    WaveSpec w = uniformWave(4, 4, 200, 100, 1);
    SimConfig shallow;
    shallow.peFifoDepth = 2;
    const SimResult r_shallow = simulateWave(w, shallow);
    SimConfig unbounded;
    unbounded.peFifoDepth = 0;
    const SimResult r_unbounded = simulateWave(w, unbounded);
    EXPECT_GT(r_shallow.fifoBackpressureCycles, 0);
    EXPECT_EQ(r_unbounded.fifoBackpressureCycles, 0);
    EXPECT_EQ(r_shallow.computeCycles, r_unbounded.computeCycles);
    EXPECT_EQ(r_shallow.macsRetired, r_unbounded.macsRetired);
}

/** Serial-mode accounting identity (no overlap, no refill). */
void
expectSerialIdentity(const SimResult &r)
{
    EXPECT_EQ(r.overlappedDrainCycles, 0);
    EXPECT_EQ(r.dramStallCycles, 0);
    EXPECT_EQ(r.cycles,
              r.computeCycles + r.drainCycles + r.glbConflictCycles);
}

/** Full accounting contract (holds in every mode). */
void
expectCycleContract(const SimResult &r)
{
    EXPECT_EQ(r.cycles, r.computeCycles + r.drainCycles +
                            r.glbConflictCycles -
                            r.overlappedDrainCycles + r.dramStallCycles);
    EXPECT_GE(r.overlappedDrainCycles, 0);
    EXPECT_LE(r.overlappedDrainCycles,
              r.drainCycles + r.glbConflictCycles);
    EXPECT_GE(r.dramStallCycles, 0);
    EXPECT_LE(r.dramStallCycles, r.dramRefillCycles);
}

TEST(CycleSim, DoubleBufferTwoWaveOverlapHandComputed)
{
    // One 1x1-PE wave: 2 broadcast operand words unlock 10 MACs (10
    // compute cycles, 2 GLB reads), then 20 psums drain over the
    // 1-word/cycle broadcast output channel (20 drain cycles). Two of
    // them serially: 2 x (10 + 20) = 60 cycles.
    WaveSpec w = uniformWave(1, 1, 10, 1, 1);
    w.channelA = Channel::Broadcast;
    w.channelB = Channel::Broadcast;
    w.channelOut = Channel::Broadcast;
    w.tiles[0].psumWords = 20;
    const std::vector<WaveSpec> seq = {w, w};

    SimConfig cfg;   // 64 banks x 1 port: bank bandwidth 64 words/cycle
    const SimResult serial = simulateWaveSequence(seq, cfg);
    EXPECT_EQ(serial.computeCycles, 20);
    EXPECT_EQ(serial.drainCycles, 40);
    EXPECT_EQ(serial.cycles, 60);
    expectSerialIdentity(serial);

    // Double-buffered: wave 1's 20 staged words vanish into wave 2's
    // spare GLB write bandwidth (64 x 10 - 2 = 638 words spare), saving
    // all 20 serial drain cycles; wave 2's 20 words flush at the full
    // 64-words/cycle bank bandwidth in ceil(20/64) = 1 cycle, saving
    // 19 of 20. Total: 20 compute + 1 flush = 21 cycles, 39 overlapped.
    cfg.doubleBufferOutputs = true;
    const SimResult db = simulateWaveSequence(seq, cfg);
    EXPECT_EQ(db.cycles, 21);
    EXPECT_EQ(db.overlappedDrainCycles, 39);
    EXPECT_EQ(db.drainCycles, serial.drainCycles);
    expectCycleContract(db);
}

TEST(CycleSim, DoubleBufferNeverSlowerAndTrafficInvariant)
{
    // On every wave sequence and every (even oversubscribed) GLB
    // geometry: double-buffered total cycles <= serial, the accounting
    // contract holds, and the per-bank read/write traffic is bitwise
    // identical — the second buffer re-times the drain, it never
    // re-routes it.
    WaveSpec heavy_drain = uniformWave(8, 8, 10, 1, 1);
    for (auto &t : heavy_drain.tiles)
        t.psumWords = 40;
    WaveSpec unicast_out = uniformWave(4, 4, 50, 5, 50);
    unicast_out.channelB = Channel::UnicastNet;
    WaveSpec compute_heavy = uniformWave(8, 8, 500, 10, 10);
    const std::vector<std::vector<WaveSpec>> sequences = {
        {heavy_drain, heavy_drain, heavy_drain},
        {compute_heavy, heavy_drain},
        {heavy_drain, compute_heavy, unicast_out, heavy_drain},
        {unicast_out},
        {},
    };

    std::vector<SimConfig> cfgs(3);
    cfgs[1].glbBanks = 4;   // bank bandwidth below every output channel
    cfgs[2].glbBanks = 16;
    cfgs[2].unicastWordsPerCycle = 32;
    for (size_t c = 0; c < cfgs.size(); ++c) {
        SimConfig serial_cfg = cfgs[c];
        SimConfig db_cfg = cfgs[c];
        db_cfg.doubleBufferOutputs = true;
        for (size_t s = 0; s < sequences.size(); ++s) {
            const SimResult a =
                simulateWaveSequence(sequences[s], serial_cfg);
            const SimResult b =
                simulateWaveSequence(sequences[s], db_cfg);
            expectSerialIdentity(a);
            expectCycleContract(b);
            EXPECT_LE(b.cycles, a.cycles) << "cfg " << c << " seq " << s;
            EXPECT_EQ(a.glbBankReads, b.glbBankReads)
                << "cfg " << c << " seq " << s;
            EXPECT_EQ(a.glbBankWrites, b.glbBankWrites)
                << "cfg " << c << " seq " << s;
            EXPECT_EQ(a.computeCycles, b.computeCycles);
            EXPECT_EQ(a.drainCycles, b.drainCycles);
            EXPECT_EQ(a.macsRetired, b.macsRetired);
        }
    }
}

TEST(CycleSim, DoubleBufferEqualsSerialWhenDrainIsFree)
{
    // With nothing to drain the second buffer has nothing to hide:
    // both modes must clock identically.
    WaveSpec w = uniformWave(4, 4, 100, 10, 10);
    for (auto &t : w.tiles)
        t.psumWords = 0;
    const std::vector<WaveSpec> seq = {w, w, w};
    SimConfig db_cfg;
    db_cfg.doubleBufferOutputs = true;
    const SimResult serial = simulateWaveSequence(seq, SimConfig{});
    const SimResult db = simulateWaveSequence(seq, db_cfg);
    EXPECT_EQ(serial.cycles, db.cycles);
    EXPECT_EQ(db.overlappedDrainCycles, 0);
    EXPECT_EQ(serial.drainCycles, 0);
}

TEST(CycleSim, ZeroDensitySlotsStayIdle)
{
    // A fully pruned layer maps to zero-demand slots everywhere: no
    // phantom MACs or psum drain from per-slot floors. (The seed
    // clamped every slot to at least one MAC and one word, so an
    // all-zero mask still "computed".)
    const LayerShape layer = arch::convLayer("z", 32, 32, 3, 8);
    sparse::SparsityMask mask = sparse::SparsityMask::dense(
        layer.K, layer.effectiveC(), layer.R, layer.S);
    std::fill(mask.bits.begin(), mask.bits.end(),
              static_cast<uint8_t>(0));
    const LayerSparsityProfile profile(mask, 0.5);
    const ArrayConfig acfg = ArrayConfig::baseline16();
    for (Phase phase : {Phase::Forward, Phase::Backward}) {
        const SimResult r =
            simulateLayerPhase(layer, phase, MappingKind::KN, profile,
                               8, acfg, SimConfig{});
        EXPECT_EQ(r.macsRetired, 0) << static_cast<int>(phase);
        EXPECT_EQ(r.cycles, 0) << static_cast<int>(phase);
        EXPECT_EQ(r.stallCycles, 0) << static_cast<int>(phase);
    }
}

/** Small sparse-backend conv/bn/relu/fc net (trace-driven tests). */
void
buildTraceNet(nn::Network &net, uint64_t seed)
{
    nn::Conv2dConfig c1;
    c1.inChannels = 3;
    c1.outChannels = 8;
    c1.kernel = 3;
    c1.pad = 1;
    c1.bias = false;
    nn::Conv2d *conv1 = net.add<nn::Conv2d>(c1, "conv1");
    conv1->setBackend(kernels::KernelBackend::kSparse);
    net.add<nn::BatchNorm2d>(8, "bn1");
    net.add<nn::ReLU>("relu1");
    net.add<nn::MaxPool2d>(2, "pool1");
    net.add<nn::GlobalAvgPool>("gap");
    nn::Linear *fc = net.add<nn::Linear>(8, 4, "fc");
    fc->setBackend(kernels::KernelBackend::kSparse);
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
    // Prune a third of every trainable layer up front so the traced
    // masks are genuinely sparse from epoch 0.
    for (size_t i = 0; i < net.size(); ++i) {
        Tensor *w = nullptr;
        if (auto *conv = dynamic_cast<nn::Conv2d *>(net.layer(i)))
            w = &conv->weight().value;
        else if (auto *lin = dynamic_cast<nn::Linear *>(net.layer(i)))
            w = &lin->weight().value;
        if (!w)
            continue;
        for (int64_t j = 0; j < w->numel(); j += 3)
            w->at(j) = 0.0f;
    }
}

/** The non-default co-run config the trace tests exercise: drain
    double-buffering plus the DRAM refill front end at the paper's
    2 words/cycle. */
SimConfig
dbRefillConfig()
{
    SimConfig cfg;
    cfg.doubleBufferOutputs = true;
    cfg.dramWordsPerCycle = 2.0;
    return cfg;
}

/** Train 2 epochs and return the trace plus each epoch's co-runs
    (default serial config and the db+refill config). */
struct TracePipeline
{
    arch::WorkloadTrace trace;
    std::vector<TraceSimResult> sims;
    std::vector<TraceSimResult> dbSims;
};

TracePipeline
runTraceSimPipeline()
{
    nn::Network net;
    buildTraceNet(net, 41);
    nn::BlobImageConfig dcfg;
    dcfg.numClasses = 4;
    dcfg.samplesPerClass = 12;
    const nn::Dataset train = nn::makeBlobImages(dcfg);
    dcfg.sampleSeed = 77;
    const nn::Dataset val = nn::makeBlobImages(dcfg);
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    // Gradual magnitude pruning with an interval shorter than an
    // epoch, so the two epoch-final masks genuinely differ.
    sparse::GradualPruningConfig pcfg;
    pcfg.targetSparsity = 4.0;
    pcfg.lr = 0.05f;
    pcfg.pruneInterval = 3;
    pcfg.pruneFraction = 0.3;
    pcfg.warmupIterations = 2;
    sparse::GradualMagnitudePruningOptimizer opt(pcfg);
    TracePipeline out;
    trainNetwork(net, opt, train, val, tc, out.trace.observer());
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    for (size_t e = 0; e < out.trace.epochCount(); ++e) {
        TraceSimResult csim;
        acc.evaluateTrace(out.trace, e, nullptr, &csim);
        out.sims.push_back(csim);
        TraceSimResult dbsim;
        acc.evaluateTrace(out.trace, e, nullptr, &dbsim,
                          dbRefillConfig());
        out.dbSims.push_back(dbsim);
    }
    return out;
}

/** One trained pipeline shared by the single-configuration trace
    tests (the thread sweep re-trains under each pool size on
    purpose). */
const TracePipeline &
sharedPipeline()
{
    static const TracePipeline p = runTraceSimPipeline();
    return p;
}

TEST(TraceSim, EpochCoRunAgreesWithAnalyticModel)
{
    // Integration: the cycle-level simulator replays every traced
    // epoch from the measured masks/activations, and its total cycles
    // must stay within a bounded band of the analytic compute latency
    // (the simulator adds drain, fill, and contention on top — the
    // band is the fidelity bound BENCH_cosim.json v5 records).
    const TracePipeline &p = sharedPipeline();
    ASSERT_EQ(p.trace.epochCount(), 2u);
    for (size_t e = 0; e < p.sims.size(); ++e) {
        const TraceSimResult &cs = p.sims[e];
        EXPECT_GT(cs.total.macsRetired, 0) << e;
        EXPECT_GT(cs.analyticComputeCycles, 0.0) << e;
        // With refill off the ratio reference is the compute latency.
        EXPECT_EQ(cs.analyticRefCycles, cs.analyticComputeCycles) << e;
        EXPECT_GT(cs.analyticCycleRatio, 0.6) << e;
        EXPECT_LT(cs.analyticCycleRatio, 3.6) << e;
        // In serial mode with refill off the historical additive
        // cycle decomposition holds exactly for the accumulated
        // epoch, and phases sum to the total.
        EXPECT_EQ(cs.total.cycles,
                  cs.total.computeCycles + cs.total.drainCycles +
                      cs.total.glbConflictCycles)
            << e;
        EXPECT_EQ(cs.total.cycles,
                  cs.fw.cycles + cs.bw.cycles + cs.wu.cycles)
            << e;
        EXPECT_EQ(cs.total.macsRetired,
                  cs.fw.macsRetired + cs.bw.macsRetired +
                      cs.wu.macsRetired)
            << e;
        // The default 64-bank GLB covers the baseline array's peak
        // per-cycle demand: no conflicts on the default config.
        EXPECT_EQ(cs.total.glbConflicts, 0) << e;
        EXPECT_EQ(cs.total.glbConflictCycles, 0) << e;
        // Reads/writes happened and landed in the bank counters.
        EXPECT_GT(cs.total.totalGlbReads(), 0) << e;
        EXPECT_GT(cs.total.totalGlbWrites(), 0) << e;
    }
    // Pruning progresses between epochs, so the epochs are genuinely
    // different workloads (guards against comparing a constant).
    EXPECT_NE(p.sims[0].total.macsRetired, p.sims[1].total.macsRetired);
}

TEST(TraceSim, DoubleBufferAndRefillEpochInvariants)
{
    // The db+refill co-run of every traced epoch obeys the full
    // accounting contract, is never slower than the serial co-run on
    // compute+drain terms, keeps the per-bank traffic image identical,
    // and charges a genuinely positive refill demand from the measured
    // bytes. The refill-aware analytic reference also grows, keeping
    // the ratio meaningful.
    const TracePipeline &p = sharedPipeline();
    ASSERT_EQ(p.sims.size(), p.dbSims.size());
    for (size_t e = 0; e < p.sims.size(); ++e) {
        const TraceSimResult &serial = p.sims[e];
        const TraceSimResult &db = p.dbSims[e];
        expectCycleContract(db.total);
        EXPECT_GT(db.total.overlappedDrainCycles, 0) << e;
        EXPECT_GT(db.total.dramRefillCycles, 0) << e;
        // Same waves, same compute and drain demand, same traffic —
        // only the clocking differs.
        EXPECT_EQ(db.total.computeCycles, serial.total.computeCycles)
            << e;
        EXPECT_EQ(db.total.drainCycles, serial.total.drainCycles) << e;
        EXPECT_EQ(db.total.macsRetired, serial.total.macsRetired) << e;
        EXPECT_EQ(db.total.glbBankReads, serial.total.glbBankReads)
            << e;
        EXPECT_EQ(db.total.glbBankWrites, serial.total.glbBankWrites)
            << e;
        // Net of the refill stall, double-buffering never loses to
        // serial drain.
        EXPECT_LE(db.total.cycles - db.total.dramStallCycles,
                  serial.total.cycles)
            << e;
        // With overlap on, cross-boundary hidden cycles are
        // attributed to the total only: phases bound it from above.
        EXPECT_LE(db.total.cycles - db.total.dramStallCycles,
                  db.fw.cycles + db.bw.cycles + db.wu.cycles)
            << e;
        // Refill makes the analytic reference a max(compute, refill)
        // bound: at least the compute-only reference.
        EXPECT_GE(db.analyticRefCycles, db.analyticComputeCycles) << e;
        EXPECT_GT(db.analyticCycleRatio, 0.0) << e;
    }
}

TEST(TraceSim, PrebuiltPlanMatchesDirectEpochSimulation)
{
    // buildEpochWavePlan + simulateEpochPlan is the sweep-facing split
    // of simulateTraceEpoch: under any config (here db+refill) the two
    // paths must agree bitwise, or cached-geometry sweeps would drift
    // from the co-run they claim to re-clock.
    const TracePipeline &p = sharedPipeline();
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    const arch::EpochTrace &et = p.trace.epoch(0);
    const EpochWavePlan plan = buildEpochWavePlan(
        et, acc.mapping(), acc.costModel().config(),
        acc.costModel().options().balance);
    EXPECT_EQ(plan.order.size(), 3 * et.layers.size());
    for (const SimConfig &cfg :
         {SimConfig{}, dbRefillConfig()}) {
        const TraceSimResult direct = simulateTraceEpoch(
            et, acc.mapping(), acc.costModel().config(), cfg,
            acc.costModel().options().balance);
        const TraceSimResult replay = simulateEpochPlan(plan, cfg);
        EXPECT_EQ(direct.total.cycles, replay.total.cycles);
        EXPECT_EQ(direct.total.overlappedDrainCycles,
                  replay.total.overlappedDrainCycles);
        EXPECT_EQ(direct.total.dramStallCycles,
                  replay.total.dramStallCycles);
        EXPECT_EQ(direct.fw.cycles, replay.fw.cycles);
        EXPECT_EQ(direct.bw.cycles, replay.bw.cycles);
        EXPECT_EQ(direct.wu.cycles, replay.wu.cycles);
        EXPECT_EQ(direct.total.glbBankReads, replay.total.glbBankReads);
        EXPECT_EQ(direct.total.glbBankWrites,
                  replay.total.glbBankWrites);
    }
}

TEST(TraceSim, PlanRefillWordsAreTheCostModelsDramWords)
{
    // The trace replay's DRAM->GLB refill demand is the analytic
    // model's own DRAM-word accounting for the measured facts, not a
    // hand mirror of it: bitwise equal for every (layer, phase).
    const TracePipeline &p = sharedPipeline();
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    const arch::CostModel &model = acc.costModel();
    const arch::EpochTrace &et = p.trace.epoch(0);
    const auto profiles = p.trace.profiles(0);
    const EpochWavePlan plan = buildEpochWavePlan(
        et, acc.mapping(), model.config(), model.options().balance);
    ASSERT_EQ(plan.order.size(), 3 * et.layers.size());
    for (const PhaseWavePlan &e : plan.order) {
        const arch::LayerTrace &l = et.layers[e.layerIndex];
        const arch::MeasuredLayerStats stats =
            l.measuredStats(e.phase, model.options().sparse);
        EXPECT_GT(e.refillWords, 0.0);
        EXPECT_EQ(e.refillWords,
                  model.dramWords(l.shape, e.phase,
                                  profiles[e.layerIndex], et.batchSize,
                                  stats))
            << l.name << " " << arch::phaseName(e.phase);
        // ... which are the words behind the model's DRAM cycles.
        EXPECT_DOUBLE_EQ(
            e.refillWords / model.config().dramWordsPerCycle(),
            model
                .evaluatePhase(l.shape, e.phase, acc.mapping(),
                               profiles[e.layerIndex], et.batchSize,
                               stats)
                .dramCycles)
            << l.name << " " << arch::phaseName(e.phase);
    }
}

/**
 * A one-layer trace, fed through WorkloadTrace::observe like a real
 * step: a 32x32 3x3 conv at batch 16 whose input channels 16..31 are
 * dead (ReLU zeroed them in every sample) and whose sample 3 is dead.
 * Live channels run at 0.2 density.
 */
arch::WorkloadTrace
deadSlotTrace()
{
    constexpr int64_t kBatch = 16;
    constexpr int64_t kC = 32;
    constexpr int64_t kDeadSample = 3;
    nn::LayerStepReport r;
    r.layerName = "conv";
    r.kind = nn::LayerStepReport::Kind::Conv;
    r.batch = kBatch;
    r.K = 32;
    r.C = kC;
    r.R = r.S = 3;
    r.P = r.Q = 8;
    r.hasMacs = true;
    r.hasMask = true;
    sparse::SyntheticMaskConfig mc;
    mc.targetDensity = 0.25;
    mc.seed = 9;
    r.mask = sparse::makeSyntheticMask(r.K, r.C, r.R, r.S, mc);
    r.inputDensity = 0.1 * 15.0 / 16.0;
    for (int64_t c = 0; c < kC; ++c)
        r.inputChannelDensity.push_back(c < kC / 2 ? 0.2 * 15.0 / 16.0
                                                   : 0.0);
    for (int64_t n = 0; n < kBatch; ++n) {
        const double d = n == kDeadSample ? 0.0 : 0.1;
        r.inputSampleDensity.push_back(d);
        // Every live channel sits in the first C half.
        r.inputSampleHalfDensity.push_back(d);
        r.inputSampleHalfDensity.push_back(0.0);
    }
    r.inputRowDensity.assign(8, r.inputDensity);
    r.inputColDensity.assign(8, r.inputDensity);
    nn::StepTelemetry t;
    t.batchSize = kBatch;
    t.reports.push_back(r);
    arch::WorkloadTrace trace;
    trace.observe(t);
    return trace;
}

TEST(TraceSim, DeadChannelsAndSamplesAreZeroWorkToModelAndSimulator)
{
    // A dead ReLU channel or sample is zero work. The measured profile
    // must say so (no density floor), the cost model must then charge
    // those slots nothing, and — since the simulator idles them — the
    // analytic and simulated weight-update compute cycles must agree
    // on the measured epoch as they do on synthetic profiles.
    const arch::WorkloadTrace trace = deadSlotTrace();
    const arch::EpochTrace &et = trace.epoch(0);
    const LayerShape &shape = et.layers[0].shape;
    const LayerSparsityProfile profile = trace.profiles(0)[0];

    for (int64_t c = 16; c < 32; ++c) {
        EXPECT_EQ(profile.iactChannelDensity(c), 0.0) << c;
        EXPECT_EQ(profile.iactChannelHalfDensity(c, 0), 0.0) << c;
        EXPECT_EQ(profile.iactChannelHalfDensity(c, 1), 0.0) << c;
        EXPECT_EQ(profile.iactSampleChannelDensity(0, c), 0.0) << c;
    }
    EXPECT_EQ(profile.iactSampleDensity(3), 0.0);
    EXPECT_EQ(profile.iactSampleHalfDensity(3, 0), 0.0);
    EXPECT_EQ(profile.iactSampleHalfDensity(3, 1), 0.0);
    EXPECT_EQ(profile.iactSampleChannelDensity(3, 0), 0.0);
    EXPECT_GT(profile.iactSampleChannelDensity(0, 0), 0.0);

    const ArrayConfig acfg = ArrayConfig::baseline16();
    arch::CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    for (MappingKind mapping : {MappingKind::CK, MappingKind::CN}) {
        const std::string name = arch::mappingName(mapping);
        // Both mappings put C on the PE rows: waves over channels
        // 16..31 hold only dead slots and cost nothing.
        const arch::CostModel model(acfg, opts);
        const auto stats = model.waveStats(shape, Phase::WeightUpdate,
                                           mapping, profile, et.batchSize);
        const arch::WaveTiler tiler(acfg, shape, Phase::WeightUpdate,
                                    mapping, et.batchSize);
        ASSERT_EQ(tiler.dims()[0], arch::Dim::C) << name;
        size_t i = 0;
        int dead_waves = 0;
        tiler.forEachWave([&](const arch::Wave &w) {
            ASSERT_LT(i, stats.size());
            if (w.b0 >= 16) {
                EXPECT_EQ(stats[i].maxWork, 0.0) << name << " " << i;
                EXPECT_EQ(stats[i].meanWork, 0.0) << name << " " << i;
                ++dead_waves;
            } else {
                EXPECT_GT(stats[i].maxWork, 0.0) << name << " " << i;
            }
            ++i;
        });
        EXPECT_EQ(i, stats.size()) << name;
        EXPECT_GT(dead_waves, 0) << name;

        const arch::Accelerator acc(acfg, opts, mapping);
        TraceSimResult csim;
        const arch::NetworkCost cost =
            acc.evaluateTrace(trace, 0, nullptr, &csim);
        ASSERT_GT(cost.wu.computeCycles, 0.0) << name;
        EXPECT_NEAR(static_cast<double>(csim.wu.computeCycles) /
                        cost.wu.computeCycles,
                    1.0, 0.01)
            << name;
    }
}

/** Restores the process-wide pool to its env-resolved size on exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

void
expectSimResultsIdentical(const SimResult &a, const SimResult &b,
                          int threads)
{
    EXPECT_EQ(a.cycles, b.cycles) << threads;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << threads;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << threads;
    EXPECT_EQ(a.macsRetired, b.macsRetired) << threads;
    EXPECT_EQ(a.drainCycles, b.drainCycles) << threads;
    EXPECT_EQ(a.overlappedDrainCycles, b.overlappedDrainCycles)
        << threads;
    EXPECT_EQ(a.glbConflictCycles, b.glbConflictCycles) << threads;
    EXPECT_EQ(a.glbConflicts, b.glbConflicts) << threads;
    EXPECT_EQ(a.fifoBackpressureCycles, b.fifoBackpressureCycles)
        << threads;
    EXPECT_EQ(a.dramRefillCycles, b.dramRefillCycles) << threads;
    EXPECT_EQ(a.dramStallCycles, b.dramStallCycles) << threads;
    EXPECT_EQ(a.glbBankReads, b.glbBankReads) << threads;
    EXPECT_EQ(a.glbBankWrites, b.glbBankWrites) << threads;
}

TEST(TraceSim, ThreadSweepBitwiseIdenticalAcrossThreadCounts)
{
    // The whole trace-driven co-simulation — training on the CSB
    // executors, telemetry aggregation, and the cycle-level replay —
    // must be bitwise invariant to the thread-pool size.
    GlobalPoolGuard guard;
    ThreadPool::resetGlobal(1);
    const TracePipeline ref = runTraceSimPipeline();
    ASSERT_EQ(ref.sims.size(), 2u);

    for (int threads : {2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        ASSERT_EQ(ThreadPool::global().numThreads(), threads);
        const TracePipeline got = runTraceSimPipeline();
        ASSERT_EQ(got.sims.size(), ref.sims.size());
        ASSERT_EQ(got.dbSims.size(), ref.dbSims.size());
        for (size_t e = 0; e < ref.sims.size(); ++e) {
            expectSimResultsIdentical(got.sims[e].total,
                                      ref.sims[e].total, threads);
            expectSimResultsIdentical(got.sims[e].fw, ref.sims[e].fw,
                                      threads);
            expectSimResultsIdentical(got.sims[e].bw, ref.sims[e].bw,
                                      threads);
            expectSimResultsIdentical(got.sims[e].wu, ref.sims[e].wu,
                                      threads);
            // The overlap chain and refill accounting must be just as
            // thread-count-invariant as the serial path.
            expectSimResultsIdentical(got.dbSims[e].total,
                                      ref.dbSims[e].total, threads);
            EXPECT_EQ(got.sims[e].analyticComputeCycles,
                      ref.sims[e].analyticComputeCycles)
                << threads;
            EXPECT_EQ(got.sims[e].analyticCycleRatio,
                      ref.sims[e].analyticCycleRatio)
                << threads;
            EXPECT_EQ(got.dbSims[e].analyticRefCycles,
                      ref.dbSims[e].analyticRefCycles)
                << threads;
            EXPECT_EQ(got.dbSims[e].analyticCycleRatio,
                      ref.dbSims[e].analyticCycleRatio)
                << threads;
        }
    }
}

// ---- differential test against the previous simulator ---------------

/**
 * The simulator as it was before distinct waves were clocked once and
 * the cycle loop lost its divisions, kept verbatim as a test-only
 * reference: every wave clocks on its own, per-cycle queue caps come
 * from ceilDiv, the unicast scan wraps with %, banks are charged word
 * by word, and the drain runs cycle by cycle. The current simulator
 * must agree with it on every SimResult field and bank vector.
 */
namespace reference {

size_t
unicastRoundRobin(const std::vector<int64_t> &cap,
                  std::vector<int64_t> &recv, int &budget, size_t cursor)
{
    const size_t n = cap.size();
    if (n == 0)
        return 0;
    size_t next = cursor % n;
    for (size_t step = 0; step < n && budget > 0; ++step) {
        const size_t idx = (cursor + step) % n;
        if (recv[idx] < cap[idx]) {
            ++recv[idx];
            --budget;
            next = (idx + 1) % n;
        }
    }
    return next;
}

/** True if the PE may retire one more MAC this cycle. */
bool
canIssue(const TileDemand &d, int64_t done, int64_t recv_a, int64_t recv_b)
{
    if (done >= d.macs)
        return false;
    // Operand words unlock MACs proportionally: word w of operand A
    // enables MACs up to w * (macs / wordsA).
    if (d.wordsA > 0 && done * d.wordsA >= recv_a * d.macs)
        return false;
    if (d.wordsB > 0 && done * d.wordsB >= recv_b * d.macs)
        return false;
    return true;
}

/**
 * Most words a PE may have received: the queue holds `depth` words
 * past the `consumed` point (the words its retired MACs have used up),
 * never more than the full demand.
 */
int64_t
deliveryCap(int64_t words, int64_t macs, int64_t done, int depth)
{
    if (depth <= 0 || macs <= 0)
        return words;
    const int64_t consumed = ceilDiv(done * words, macs);
    return std::min(words, consumed + depth);
}

/**
 * Deliver one multicast word along each row (or column) with a hungry,
 * non-full PE; returns the number of lines that fired (one GLB word
 * read per fired line).
 */
int64_t
deliverBus(const WaveSpec &wave, const std::vector<int64_t> &cap,
           std::vector<int64_t> &recv, bool row_major)
{
    const int outer = row_major ? wave.rows : wave.cols;
    const int inner = row_major ? wave.cols : wave.rows;
    int64_t fired = 0;
    for (int o = 0; o < outer; ++o) {
        bool any = false;
        for (int i = 0; i < inner; ++i) {
            const int r = row_major ? o : i;
            const int c = row_major ? i : o;
            const auto idx = static_cast<size_t>(r * wave.cols + c);
            if (recv[idx] < cap[idx]) {
                any = true;
                break;
            }
        }
        if (!any)
            continue;
        ++fired;
        for (int i = 0; i < inner; ++i) {
            const int r = row_major ? o : i;
            const int c = row_major ? i : o;
            const auto idx = static_cast<size_t>(r * wave.cols + c);
            if (recv[idx] < cap[idx])
                ++recv[idx];
        }
    }
    return fired;
}

/** Deliver one broadcast word to every hungry, non-full PE. */
int64_t
deliverBroadcast(const std::vector<int64_t> &cap,
                 std::vector<int64_t> &recv)
{
    int64_t fired = 0;
    for (size_t idx = 0; idx < cap.size(); ++idx) {
        if (recv[idx] < cap[idx]) {
            ++recv[idx];
            fired = 1;
        }
    }
    return fired;
}

/**
 * Move one operand's words for one cycle; returns words transmitted
 * (= GLB reads). `uni_budget` is the cycle's remaining aggregate
 * unicast bandwidth, shared across operands: when both operands ride
 * the unicast network they split one budget instead of each spending
 * the full configured bandwidth.
 */
int64_t
deliverChannel(const WaveSpec &wave, const std::vector<int64_t> &cap,
               std::vector<int64_t> &recv, Channel ch, int &uni_budget,
               size_t &uni_cursor)
{
    switch (ch) {
      case Channel::RowBus:
        return deliverBus(wave, cap, recv, /*row_major=*/true);
      case Channel::ColBus:
        return deliverBus(wave, cap, recv, /*row_major=*/false);
      case Channel::Broadcast:
        return deliverBroadcast(cap, recv);
      case Channel::UnicastNet: {
        const int before = uni_budget;
        uni_cursor = unicastRoundRobin(cap, recv, uni_budget, uni_cursor);
        return before - uni_budget;
      }
    }
    PANIC("unknown channel");
}

/**
 * Per-wave facts the double-buffered drain accounting needs beyond
 * SimResult: how much spare GLB write bandwidth the compute window
 * left (reads have priority), and what the wave's own drain costs in
 * serial mode (drain cycles plus the bank-conflict replay cycles the
 * drain's writes caused).
 */
struct WaveSideband
{
    int64_t computeCycles = 0;
    int64_t computeReads = 0;        //!< GLB reads during compute
    int64_t drainWords = 0;          //!< psum words written
    int64_t drainSerialCycles = 0;   //!< drainCycles + drain conflicts
};

SimResult
simulateWaveImpl(const WaveSpec &wave, const SimConfig &cfg,
                 WaveSideband *sb)
{
    PROCRUSTES_ASSERT(
        wave.tiles.size() ==
            static_cast<size_t>(wave.rows) * static_cast<size_t>(wave.cols),
        "tile count mismatch");
    validateSimConfig(cfg);
    SimResult res;
    const int64_t banks = cfg.glbBanks;
    const int64_t bank_bw = banks * cfg.glbBankPortsPerCycle;
    res.glbBankReads.assign(static_cast<size_t>(banks), 0);
    res.glbBankWrites.assign(static_cast<size_t>(banks), 0);

    const size_t n = wave.tiles.size();
    std::vector<int64_t> macs_done(n, 0);
    std::vector<int64_t> recv_a(n, 0);
    std::vector<int64_t> recv_b(n, 0);
    std::vector<int64_t> cap_a(n, 0);
    std::vector<int64_t> cap_b(n, 0);
    size_t uni_cursor = 0;
    int64_t glb_addr = 0;   // rolling word address, interleaved on banks

    // Charge one cycle's GLB accesses to banks; surplus beyond the
    // aggregate bank bandwidth replays in appended stall cycles.
    auto chargeGlb = [&](int64_t words, std::vector<int64_t> &per_bank) {
        for (int64_t w = 0; w < words; ++w)
            ++per_bank[static_cast<size_t>((glb_addr++) % banks)];
        if (words > bank_bw) {
            res.glbConflicts += words - bank_bw;
            res.glbConflictCycles += ceilDiv(words, bank_bw) - 1;
        }
    };

    int64_t remaining = 0;
    for (const TileDemand &d : wave.tiles)
        remaining += d.macs;

    int64_t compute_reads = 0;
    while (remaining > 0) {
        PROCRUSTES_ASSERT(res.computeCycles < cfg.maxCycles,
                          "wave exceeded cycle limit");
        // Queue caps for this cycle; a hungry PE at its cap has a word
        // withheld by backpressure.
        for (size_t idx = 0; idx < n; ++idx) {
            const TileDemand &d = wave.tiles[idx];
            cap_a[idx] = deliveryCap(d.wordsA, d.macs, macs_done[idx],
                                     cfg.peFifoDepth);
            cap_b[idx] = deliveryCap(d.wordsB, d.macs, macs_done[idx],
                                     cfg.peFifoDepth);
            if (recv_a[idx] < d.wordsA && recv_a[idx] >= cap_a[idx])
                ++res.fifoBackpressureCycles;
            if (recv_b[idx] < d.wordsB && recv_b[idx] >= cap_b[idx])
                ++res.fifoBackpressureCycles;
        }

        // Delivery happens first; a word arriving this cycle can feed
        // a MAC this cycle (single-cycle forwarding). One unicast
        // budget serves both operands.
        int uni_budget = cfg.unicastWordsPerCycle;
        int64_t words = deliverChannel(wave, cap_a, recv_a, wave.channelA,
                                       uni_budget, uni_cursor);
        words += deliverChannel(wave, cap_b, recv_b, wave.channelB,
                                uni_budget, uni_cursor);
        chargeGlb(words, res.glbBankReads);
        compute_reads += words;

        for (size_t idx = 0; idx < n; ++idx) {
            const TileDemand &d = wave.tiles[idx];
            if (macs_done[idx] >= d.macs)
                continue;
            if (canIssue(d, macs_done[idx], recv_a[idx], recv_b[idx])) {
                ++macs_done[idx];
                ++res.macsRetired;
                --remaining;
            } else {
                ++res.stallCycles;
            }
        }
        ++res.computeCycles;
    }

    // Drain partial sums through the output channel, one bandwidth-
    // limited batch of GLB writes per cycle. The writes are charged to
    // banks here regardless of drain mode, so the per-bank traffic
    // image is identical in both modes: with double-buffered outputs
    // the sequence layer re-times this drain (hiding it in the next
    // wave's spare GLB write bandwidth) but never re-routes it — see
    // simulateWaveSequence.
    int64_t psum_words = 0;
    for (const TileDemand &d : wave.tiles)
        psum_words += d.psumWords;
    const int64_t psum_total = psum_words;
    const int64_t pre_drain_conflicts = res.glbConflictCycles;
    int64_t drain_bw = 1;
    switch (wave.channelOut) {
      case Channel::RowBus:
        drain_bw = wave.rows;
        break;
      case Channel::ColBus:
        drain_bw = wave.cols;
        break;
      case Channel::Broadcast:
        drain_bw = 1;
        break;
      case Channel::UnicastNet:
        drain_bw = cfg.unicastWordsPerCycle;
        break;
    }
    drain_bw = std::max<int64_t>(1, drain_bw);
    while (psum_words > 0) {
        const int64_t w = std::min(drain_bw, psum_words);
        psum_words -= w;
        ++res.drainCycles;
        chargeGlb(w, res.glbBankWrites);
    }

    res.cycles = res.computeCycles + res.drainCycles + res.glbConflictCycles;
    if (sb != nullptr) {
        sb->computeCycles = res.computeCycles;
        sb->computeReads = compute_reads;
        sb->drainWords = psum_total;
        sb->drainSerialCycles =
            res.drainCycles +
            (res.glbConflictCycles - pre_drain_conflicts);
    }
    return res;
}

/**
 * What a clocked piece exposes so callers can continue the
 * double-buffered drain chain across piece boundaries
 * (simulateEpochPlan): the spare GLB write capacity of the FIRST
 * wave's compute window (unused inside the piece — the first wave has
 * no in-piece predecessor to drain), and the LAST wave's staged psum
 * words together with the bank-bandwidth flush cycles for them that
 * the piece's own cycle count already includes. A boundary can then
 * hide some of those tail words under the next piece's head spare and
 * refund the difference in flush cycles.
 */
struct PieceLink
{
    int64_t headSpareWords = 0;
    int64_t tailWords = 0;
    int64_t tailFlushCycles = 0;
    bool hasWaves = false;
};

/**
 * Clock a wave sequence, chaining the two-psum-buffer drain overlap
 * when cfg.doubleBufferOutputs. At each wave boundary the finished
 * wave's psums swap into the spare buffer and stream to the GLB
 * through the write bandwidth the next wave's compute window leaves
 * spare (operand reads have priority: spare = banks x ports x C_next
 * minus the window's reads); words still pending when the window
 * closes flush at the full aggregate bank bandwidth before the next
 * swap. The cycles this saves versus the serial drain (drain cycles
 * plus the drain's own conflict-replay cycles) are removed from
 * `cycles` and reported in overlappedDrainCycles; per-bank traffic is
 * untouched, so reads/writes match serial mode exactly. The saving is
 * provably non-negative, so double-buffered never clocks slower than
 * serial on the same waves.
 */
SimResult
simulateSequencePiece(const std::vector<WaveSpec> &waves,
                      const SimConfig &cfg, PieceLink *link)
{
    validateSimConfig(cfg);
    SimResult total;
    total.glbBankReads.assign(static_cast<size_t>(cfg.glbBanks), 0);
    total.glbBankWrites.assign(static_cast<size_t>(cfg.glbBanks), 0);
    const int64_t bank_bw =
        static_cast<int64_t>(cfg.glbBanks) * cfg.glbBankPortsPerCycle;
    int64_t pending_words = 0;   // staged psums of the previous wave
    int64_t pending_serial = 0;  // their serial-mode drain cycles
    bool first = true;
    for (const WaveSpec &wave : waves) {
        WaveSideband sb;
        const SimResult r = simulateWaveImpl(wave, cfg, &sb);
        total.accumulate(r);
        if (cfg.doubleBufferOutputs) {
            const int64_t spare = std::max<int64_t>(
                0, bank_bw * sb.computeCycles - sb.computeReads);
            if (first && link != nullptr)
                link->headSpareWords = spare;
            if (!first) {
                const int64_t hidden = std::min(pending_words, spare);
                const int64_t flush =
                    ceilDiv(pending_words - hidden, bank_bw);
                const int64_t saved = pending_serial - flush;
                total.cycles -= saved;
                total.overlappedDrainCycles += saved;
            }
            pending_words = sb.drainWords;
            pending_serial = sb.drainSerialCycles;
        }
        first = false;
    }
    if (cfg.doubleBufferOutputs && !first) {
        // Last wave: the array is idle, so the staging buffer flushes
        // at the full bank bandwidth. The flush stays exposed here;
        // piece-chaining callers may refund part of it at the boundary.
        const int64_t flush = ceilDiv(pending_words, bank_bw);
        const int64_t saved = pending_serial - flush;
        total.cycles -= saved;
        total.overlappedDrainCycles += saved;
        if (link != nullptr) {
            link->tailWords = pending_words;
            link->tailFlushCycles = flush;
        }
    }
    if (link != nullptr)
        link->hasWaves = !first;
    return total;
}

/**
 * Clock one (layer, phase) piece: the wave sequence plus its DRAM->GLB
 * refill. Refill is double-buffered against the piece's whole
 * array-busy window (compute + drain + conflict replay, net of
 * internal overlap): only the excess demand surfaces as dramStallCycles
 * and extends `cycles`.
 */
SimResult
simulatePhasePiece(const std::vector<WaveSpec> &waves, double refill_words,
                   const SimConfig &cfg, PieceLink *link)
{
    SimResult res = simulateSequencePiece(waves, cfg, link);
    if (cfg.dramWordsPerCycle > 0.0 && refill_words > 0.0) {
        const int64_t refill = static_cast<int64_t>(
            std::ceil(refill_words / cfg.dramWordsPerCycle));
        res.dramRefillCycles += refill;
        const int64_t stall = std::max<int64_t>(0, refill - res.cycles);
        res.dramStallCycles += stall;
        res.cycles += stall;
    }
    return res;
}

TraceSimResult
simulateEpochPlan(const EpochWavePlan &plan, const SimConfig &scfg)
{
    validateSimConfig(scfg);
    const size_t n = plan.order.size();
    const int64_t bank_bw =
        static_cast<int64_t>(scfg.glbBanks) * scfg.glbBankPortsPerCycle;
    std::vector<SimResult> piece(n);
    std::vector<PieceLink> link(n);

    // Each (layer, phase) piece is an independent pure function of
    // (plan, scfg): simulate them in parallel, stitch in fixed order.
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(n), [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                const auto idx = static_cast<size_t>(i);
                piece[idx] = simulatePhasePiece(
                    plan.order[idx].waves, plan.order[idx].refillWords,
                    scfg, &link[idx]);
            }
        });

    TraceSimResult out;
    int64_t tail_words = 0;   // previous piece's staged tail psums
    int64_t tail_flush = 0;   // their flush cycles, already counted
    for (size_t i = 0; i < n; ++i) {
        const PhaseWavePlan &e = plan.order[i];
        SimResult &bucket = e.phase == Phase::Forward
                                ? out.fw
                                : e.phase == Phase::Backward ? out.bw
                                                             : out.wu;
        bucket.accumulate(piece[i]);
        out.total.accumulate(piece[i]);
        if (scfg.doubleBufferOutputs && link[i].hasWaves) {
            // Boundary overlap: the previous piece's tail words hide
            // under this piece's first compute window (its spare GLB
            // write bandwidth, unused inside the piece); the refunded
            // flush cycles are attributed to `total` only — inside a
            // phase bucket the pieces are not adjacent in time.
            const int64_t hidden =
                std::min(tail_words, link[i].headSpareWords);
            const int64_t new_flush =
                ceilDiv(tail_words - hidden, bank_bw);
            const int64_t credit = tail_flush - new_flush;
            out.total.cycles -= credit;
            out.total.overlappedDrainCycles += credit;
            tail_words = link[i].tailWords;
            tail_flush = link[i].tailFlushCycles;
        }
    }
    return out;
}

} // namespace reference

void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &where)
{
    EXPECT_EQ(got.cycles, want.cycles) << where;
    EXPECT_EQ(got.computeCycles, want.computeCycles) << where;
    EXPECT_EQ(got.stallCycles, want.stallCycles) << where;
    EXPECT_EQ(got.macsRetired, want.macsRetired) << where;
    EXPECT_EQ(got.drainCycles, want.drainCycles) << where;
    EXPECT_EQ(got.overlappedDrainCycles, want.overlappedDrainCycles)
        << where;
    EXPECT_EQ(got.glbConflictCycles, want.glbConflictCycles) << where;
    EXPECT_EQ(got.glbConflicts, want.glbConflicts) << where;
    EXPECT_EQ(got.fifoBackpressureCycles, want.fifoBackpressureCycles)
        << where;
    EXPECT_EQ(got.dramRefillCycles, want.dramRefillCycles) << where;
    EXPECT_EQ(got.dramStallCycles, want.dramStallCycles) << where;
    EXPECT_EQ(got.glbBankReads, want.glbBankReads) << where;
    EXPECT_EQ(got.glbBankWrites, want.glbBankWrites) << where;
}

constexpr Channel kChannels[] = {Channel::RowBus, Channel::ColBus,
                                 Channel::Broadcast, Channel::UnicastNet};

/**
 * A random wave: any channel for A, B and the output; some idle tiles;
 * operand words from none up to twice the MACs (words > macs lets a
 * PE finish while still hungry); now and then words on a PE with no
 * MACs at all.
 */
WaveSpec
randomWave(Xorshift128Plus &rng)
{
    auto below = [&rng](uint64_t n) {
        return static_cast<int64_t>(rng.nextBounded(n));
    };
    WaveSpec w;
    w.rows = 1 + static_cast<int>(below(5));
    w.cols = 1 + static_cast<int>(below(5));
    w.channelA = kChannels[below(4)];
    w.channelB = kChannels[below(4)];
    w.channelOut = kChannels[below(4)];
    w.tiles.resize(static_cast<size_t>(w.rows) * w.cols);
    for (TileDemand &d : w.tiles) {
        const int64_t kind = below(10);
        if (kind < 2)
            continue;   // idle
        if (kind == 2) {
            d.wordsA = below(4);
            d.wordsB = below(4);
            continue;   // no MACs, but words to deliver
        }
        d.macs = 1 + below(40);
        d.wordsA = below(2 * d.macs + 1);
        d.wordsB = below(2 * d.macs + 1);
        d.psumWords = below(12);
    }
    return w;
}

/**
 * A sequence that repeats waves and holds near-duplicates: copies of
 * one wave with a single tile's psumWords changed, or with channelOut
 * changed. A memo keyed on less than the whole WaveSpec reuses the
 * wrong result for those.
 */
std::vector<WaveSpec>
randomSequence(Xorshift128Plus &rng)
{
    std::vector<WaveSpec> seq;
    const WaveSpec base = randomWave(rng);
    WaveSpec psum_twin = base;
    psum_twin.tiles[rng.nextBounded(psum_twin.tiles.size())].psumWords +=
        1 + static_cast<int64_t>(rng.nextBounded(30));
    WaveSpec out_twin = base;
    out_twin.channelOut = out_twin.channelOut == Channel::Broadcast
                              ? Channel::UnicastNet
                              : Channel::Broadcast;
    const WaveSpec other = randomWave(rng);
    const WaveSpec *pool[] = {&base, &psum_twin, &out_twin, &other};
    const int64_t len = 1 + static_cast<int64_t>(rng.nextBounded(7));
    for (int64_t i = 0; i < len; ++i)
        seq.push_back(*pool[rng.nextBounded(4)]);
    return seq;
}

/** The knob grid of the sweep: 144 configurations. */
std::vector<SimConfig>
sweepConfigs()
{
    std::vector<SimConfig> cfgs;
    for (int depth : {0, 1, 2, 8}) {
        for (int uni : {1, 3, 16}) {
            for (int banks : {1, 3, 64}) {
                for (int ports : {1, 2}) {
                    for (bool db : {false, true}) {
                        SimConfig c;
                        c.peFifoDepth = depth;
                        c.unicastWordsPerCycle = uni;
                        c.glbBanks = banks;
                        c.glbBankPortsPerCycle = ports;
                        c.doubleBufferOutputs = db;
                        cfgs.push_back(c);
                    }
                }
            }
        }
    }
    return cfgs;
}

std::string
describe(const SimConfig &c, int trial)
{
    return "depth=" + std::to_string(c.peFifoDepth) +
           " uni=" + std::to_string(c.unicastWordsPerCycle) +
           " banks=" + std::to_string(c.glbBanks) +
           " ports=" + std::to_string(c.glbBankPortsPerCycle) +
           " db=" + std::to_string(c.doubleBufferOutputs) +
           " dram=" + std::to_string(c.dramWordsPerCycle) +
           " trial=" + std::to_string(trial);
}

TEST(CycleSimDifferential, WavesAndSequencesMatchReference)
{
    Xorshift128Plus rng(20261020);
    for (const SimConfig &cfg : sweepConfigs()) {
        for (int trial = 0; trial < 5; ++trial) {
            const std::vector<WaveSpec> seq = randomSequence(rng);
            const std::string where = describe(cfg, trial);
            expectSameResult(simulateWaveSequence(seq, cfg),
                             reference::simulateSequencePiece(seq, cfg,
                                                              nullptr),
                             where);
            for (const WaveSpec &w : seq) {
                expectSameResult(
                    simulateWave(w, cfg),
                    reference::simulateWaveImpl(w, cfg, nullptr), where);
            }
        }
    }
}

TEST(CycleSimDifferential, EpochPlansMatchReference)
{
    // Pieces share waves across (layer, phase) boundaries, some pieces
    // are empty, and refill is on for half the configurations, so the
    // epoch-wide memo, the drain-overlap chain, the refill and the
    // cross-piece stitch are all compared.
    Xorshift128Plus rng(7);
    int trial = 0;
    for (SimConfig cfg : sweepConfigs()) {
        cfg.dramWordsPerCycle = (trial % 2 == 0) ? 0.0 : 0.5;
        EpochWavePlan plan;
        plan.batchSize = 4;
        std::vector<WaveSpec> shared = randomSequence(rng);
        const int64_t pieces = 1 + static_cast<int64_t>(rng.nextBounded(6));
        for (int64_t p = 0; p < pieces; ++p) {
            PhaseWavePlan e;
            e.layerIndex = static_cast<size_t>(p);
            e.phase = static_cast<Phase>(rng.nextBounded(3));
            const uint64_t kind = rng.nextBounded(4);
            if (kind == 0)
                e.waves = shared;
            else if (kind != 1)
                e.waves = randomSequence(rng);
            e.refillWords = static_cast<double>(rng.nextBounded(4000));
            plan.order.push_back(std::move(e));
        }
        const TraceSimResult got = simulateEpochPlan(plan, cfg);
        const TraceSimResult want =
            reference::simulateEpochPlan(plan, cfg);
        const std::string where = describe(cfg, trial++);
        expectSameResult(got.total, want.total, "total " + where);
        expectSameResult(got.fw, want.fw, "fw " + where);
        expectSameResult(got.bw, want.bw, "bw " + where);
        expectSameResult(got.wu, want.wu, "wu " + where);
    }
}

} // namespace
} // namespace sim
} // namespace procrustes
