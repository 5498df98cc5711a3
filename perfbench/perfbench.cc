/**
 * @file
 * perfbench: the repository's benchmark. One workload per process,
 * driving only public entry points: serve::TrainingJob::step,
 * TrainingJob::checkpoint/restore, arch::WorkloadTrace::observe,
 * arch::Accelerator::evaluateTrace and sim::buildEpochWavePlan /
 * simulateEpochPlan. Workloads, metrics and the layer-to-end-to-end
 * table are documented in README.md next to this file.
 *
 * Usage: perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--smoke] [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with tracing off: set-ups
 * and the timed window on one pool thread, replays on nproc threads.
 * --trace 1 runs the traced passes (nproc threads, then 1 thread)
 * beside an untraced reference pass and prints the per-layer metrics;
 * it also writes a Chrome trace-event file into --out-dir.
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. Every failed operation is reported on
 * stderr, and the exit code is non-zero when any operation failed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/accelerator.h"
#include "arch/trace_imbalance.h"
#include "arch/workload_trace.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/sparse_microkernels.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "serve/stats_writer.h"
#include "serve/training_job.h"
#include "sim/cycle_sim.h"
#include "sparse/dropback.h"
#include "tracing.h"

using namespace procrustes;
using perfbench::Clock;
using perfbench::Group;
using perfbench::Kind;
using perfbench::Section;
using perfbench::Span;
using perfbench::StepClock;
using perfbench::Tracer;
using perfbench::timed;

namespace {

// ---- configuration ---------------------------------------------------

/** Training network and data, shared by both workloads. */
constexpr int kClasses = 10;
constexpr int64_t kImage = 32;
constexpr int64_t kBatch = 16;
/** 400 training samples: 25 steps per epoch, so epoch-closing steps
    (which also run validation) stay well under the slowest 10%. */
constexpr int64_t kTrainPerClass = 40;
constexpr int64_t kValPerClass = 8;
/** Steps the traced run times: four whole epochs. */
constexpr int64_t kTracedSteps = 100;
/** Whole epochs the end-to-end window runs at least. */
constexpr int64_t kMinWindowEpochs = 2;
/** Measured runs set up and replay at least kRepeats times and until
    kSetupSeconds / kReplaySeconds have passed, and report the medians. */
constexpr int kRepeats = 3;
constexpr double kSetupSeconds = 2.0;
constexpr double kReplaySeconds = 2.0;
/** A run warns when the hypervisor stole more than this share of the
    host's CPU time while it measured. */
constexpr double kStealWarn = 0.01;
/** Pool threads of the end-to-end set-ups and timed window. A parallel
    region waits for its slowest thread, so on a shared host every
    thread the window adds multiplies how much steal slows it; one
    thread leaves only its own share (README.md, "Steadiness"). */
constexpr int kWindowThreads = 1;
/** The 1-thread traced pass runs this many ops (one training epoch)
    and is compared with the same prefix of the nproc traced pass. */
constexpr int64_t kScalingOps = kTrainPerClass * kClasses / kBatch;

/** Dropback: the paper's scheme with the decay horizon shortened so
    the untimed warm-up passes it. */
constexpr int64_t kDecayHorizon = 5;
constexpr int64_t kDropbackWarmupSteps = 7;
/** dense_gemm: warm-up steps before the window. */
constexpr int64_t kWarmupSteps = 3;
/** Band the dropback weight density must stay in. The QE threshold
    settles well below the 10x target; the band records where. */
constexpr double kDropbackDensityLo = 0.01;
constexpr double kDropbackDensityHi = 0.10;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string outDir = "perfbench-out";
};

uint64_t
deriveSeed(uint64_t seed, uint64_t salt)
{
    return splitmix64(seed ^ splitmix64(salt));
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

/** Nearest-rank percentile of a sample (p in (0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---- host steal ------------------------------------------------------

/** Steal and total jiffies over all CPUs, from /proc/stat's first line;
    zeros where it cannot be read. */
struct CpuTicks
{
    uint64_t steal = 0;
    uint64_t total = 0;
};

CpuTicks
readCpuTicks()
{
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal: guest time is
    // already counted in user and nice.
    for (int i = 0; i < 8; ++i) {
        uint64_t v = 0;
        if (!(in >> v))
            break;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

/** Share of the host's CPU time the hypervisor stole between a and b. */
double
stealShare(const CpuTicks &a, const CpuTicks &b)
{
    return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.total - a.total)
                             : 0.0;
}

/** Steal shares of repeated measurements (set-ups, replays, windows). */
class StealLog
{
  public:
    void begin() { ticks_ = readCpuTicks(); }
    void end() { steal_.push_back(stealShare(ticks_, readCpuTicks())); }

    double mean() const { return ::mean(steal_); }
    double
    max() const
    {
        return steal_.empty() ? 0.0
                              : *std::max_element(steal_.begin(), steal_.end());
    }

  private:
    CpuTicks ticks_;
    std::vector<double> steal_;
};

// ---- failure accounting ----------------------------------------------

/** Operations attempted and failed, with each failure on stderr. */
struct Gate
{
    int64_t attempted = 0;
    int64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "FAILED: %s\n", what.c_str());
        }
    }
};

// ---- metrics ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;   //!< the BENCHMARK.json set
    std::vector<Metric> extras;    //!< not in BENCHMARK.json, printed only

    void add(const std::string &n, double v, const std::string &u)
    {
        metrics.push_back({n, v, u});
    }
    void extra(const std::string &n, double v, const std::string &u)
    {
        extras.push_back({n, v, u});
    }
};

// ---- per-step losses through the job's own JSONL sink ----------------

/** Step losses recorded by a serve::StatsWriter file, in order. */
std::vector<double>
readStepLosses(const std::string &path)
{
    std::vector<double> out;
    std::ifstream in(path);
    std::string line;
    const std::string key = "\"loss\": ";
    while (std::getline(in, line)) {
        if (line.find("\"kind\": \"step\"") == std::string::npos)
            continue;
        const size_t at = line.find(key);
        if (at == std::string::npos)
            continue;
        out.push_back(std::strtod(line.c_str() + at + key.size(),
                                  nullptr));
    }
    return out;
}

// ---- telemetry of the observed epoch -----------------------------------

/**
 * Observer for the one epoch recorded after the timed window: feeds
 * WorkloadTrace::observe (timed) and counts, from the public
 * LayerStepReports, the conv MACs, executed-vs-dense forward MACs and
 * how often a layer's live mask equals its previous step's.
 */
struct EpochObserver
{
    arch::WorkloadTrace trace;
    Tracer *tracer = nullptr;
    std::vector<std::vector<uint8_t>> prevMask;
    int64_t maskSteps = 0;
    int64_t maskReused = 0;
    int64_t convFw = 0, convBwData = 0, convBwWeight = 0;
    double executedFw = 0.0, denseFw = 0.0;
    int64_t steps = 0;
    double observeMs = 0.0;

    void
    operator()(const nn::StepTelemetry &t)
    {
        observeMs += timed(tracer, Kind::Observe, "WorkloadTrace.observe",
                           [&] { trace.observe(t); });
        ++steps;
        size_t mi = 0;
        for (const nn::LayerStepReport &r : t.reports) {
            if (r.kind == nn::LayerStepReport::Kind::Conv && r.hasMacs) {
                convFw += r.fwMacs;
                convBwData += r.bwDataMacs;
                convBwWeight += r.bwWeightMacs;
            }
            if ((r.kind == nn::LayerStepReport::Kind::Conv ||
                 r.kind == nn::LayerStepReport::Kind::Linear) &&
                r.hasMacs) {
                executedFw += static_cast<double>(r.fwMacs);
                denseFw += static_cast<double>(r.batch) * r.K * r.C *
                           r.R * r.S * r.P * r.Q;
            }
            if (!r.hasMask)
                continue;
            if (prevMask.size() <= mi)
                prevMask.resize(mi + 1);
            if (!prevMask[mi].empty()) {
                ++maskSteps;
                if (prevMask[mi] == r.mask.bits)
                    ++maskReused;
            }
            prevMask[mi] = r.mask.bits;
            ++mi;
        }
    }
};

/** Host time and results of replaying one observed epoch. */
struct ReplayResult
{
    double replayS = 0.0;
    arch::NetworkCost proc, dense;
    sim::TraceSimResult sim;
    sim::TraceSimResult planSim;   //!< plan + clock (traced only)
    double analyticMs = 0.0, imbalanceMs = 0.0;
    double planMs = 0.0, clockMs = 0.0;
};

/**
 * Replay the observed epoch on Accelerator::procrustes() (analytic +
 * imbalance + cycle-sim co-run) and denseBaseline(); replay_s times
 * exactly that. When traced, also time each piece of the replay on its
 * own, rebuilding the cycle-sim result from buildEpochWavePlan +
 * simulateEpochPlan for the equality gate.
 */
ReplayResult
replayEpoch(const arch::WorkloadTrace &trace, Tracer *tracer)
{
    ReplayResult r;
    const arch::Accelerator proc = arch::Accelerator::procrustes();
    const arch::Accelerator dense = arch::Accelerator::denseBaseline();
    arch::EpochImbalance imb;
    const Clock::time_point t0 = Clock::now();
    r.proc = proc.evaluateTrace(trace, 0, &imb, &r.sim);
    r.dense = dense.evaluateTrace(trace, 0);
    r.replayS = secondsSince(t0);

    if (!tracer)
        return r;
    const arch::EpochTrace &e = trace.epoch(0);
    const arch::MappingKind mapping = proc.mapping();
    const arch::ArrayConfig &acfg = proc.costModel().config();
    const arch::BalanceMode balance = proc.costModel().options().balance;
    sim::EpochWavePlan plan;
    r.planMs = timed(tracer, Kind::SimPlan, "sim.buildEpochWavePlan", [&] {
        plan = sim::buildEpochWavePlan(e, mapping, acfg, balance);
    });
    r.clockMs = timed(tracer, Kind::SimClock, "sim.simulateEpochPlan", [&] {
        r.planSim = sim::simulateEpochPlan(plan, sim::SimConfig{});
    });
    r.analyticMs = timed(tracer, Kind::Analytic, "arch.evaluateTrace", [&] {
        proc.evaluateTrace(trace, 0);
        dense.evaluateTrace(trace, 0);
    });
    r.imbalanceMs =
        timed(tracer, Kind::Imbalance, "arch.measuredEpochImbalance", [&] {
            arch::measuredEpochImbalance(e, mapping, acfg, balance);
        });
    return r;
}

/** Add the replay's per-layer metrics and counts to a report. */
void
reportReplay(Report &rep, const EpochObserver &obs, const ReplayResult &r)
{
    const double steps = static_cast<double>(std::max<int64_t>(obs.steps, 1));
    rep.add("arch.observe_ms", obs.observeMs / steps, "ms");
    rep.add("arch.analytic_ms", r.analyticMs, "ms");
    rep.add("arch.imbalance_ms", r.imbalanceMs, "ms");
    rep.add("sim.plan_ms", r.planMs, "ms");
    rep.add("sim.clock_ms", r.clockMs, "ms");
    rep.add("sim.cycles_per_host_s",
            static_cast<double>(r.planSim.total.cycles) /
                (r.clockMs / 1000.0),
            "1/s");
    rep.add("sim.cycles", static_cast<double>(r.sim.total.cycles), "count");
    rep.add("sim.stall_cycles", static_cast<double>(r.sim.total.stallCycles),
            "count");
    rep.add("sim.glb_conflicts",
            static_cast<double>(r.sim.total.glbConflicts), "count");
    rep.add("sim.analytic_cycle_ratio", r.sim.analyticCycleRatio, "ratio");
    rep.add("arch.model_speedup",
            r.dense.totalCycles() / r.proc.totalCycles(), "ratio");
    rep.add("arch.model_energy_ratio",
            r.dense.totalEnergyJ() / r.proc.totalEnergyJ(), "ratio");
    rep.add("kernels.conv.fw_macs", static_cast<double>(obs.convFw) / steps,
            "count");
    rep.add("kernels.conv.bw_data_macs",
            static_cast<double>(obs.convBwData) / steps, "count");
    rep.add("kernels.conv.bw_weight_macs",
            static_cast<double>(obs.convBwWeight) / steps, "count");
    rep.add("sparse.tap_reuse_frac",
            obs.maskSteps ? static_cast<double>(obs.maskReused) /
                                static_cast<double>(obs.maskSteps)
                          : 1.0,
            "ratio");
    const arch::EpochTrace &e = obs.trace.epoch(0);
    rep.add("sparse.csb_weight_bytes",
            static_cast<double>(e.totalCsbWeightBytes()), "bytes");
    rep.add("sparse.weight_density", e.meanWeightDensity(), "ratio");
    rep.add("sparse.mac_density",
            obs.denseFw > 0.0 ? obs.executedFw / obs.denseFw : 1.0, "ratio");
}

// ---- span aggregation ----------------------------------------------------

/** Per-step means of traced time, from one pass's spans. */
struct LayerTimes
{
    int64_t steps = 0;
    double stepMs = 0.0;       //!< summed step spans
    double selfMs = 0.0;
    double optMs = 0.0;
    std::map<std::pair<Group, Kind>, double> ms;
    double checkpointMs = 0.0, restoreMs = 0.0;
    int64_t checkpoints = 0, restores = 0;

    double
    group(Group g) const
    {
        double s = 0.0;
        for (Kind k : {Kind::Fwd, Kind::Bwd}) {
            auto it = ms.find({g, k});
            if (it != ms.end())
                s += it->second;
        }
        return s;
    }
    double conv() const { return group(Group::Conv) + group(Group::ConvS2); }
    double
    nonconv() const
    {
        return group(Group::Bn) + group(Group::Relu) + group(Group::Other);
    }
    double
    perStep(double v) const
    {
        return steps ? v / static_cast<double>(steps) : 0.0;
    }
    double
    perStep(Group g, Kind k) const
    {
        auto it = ms.find({g, k});
        return perStep(it == ms.end() ? 0.0 : it->second);
    }
};

/** Aggregate one section's spans, up to the end of its max_steps-th step. */
LayerTimes
aggregate(const std::vector<Span> &spans, Section section,
          int64_t max_steps = INT64_MAX)
{
    std::vector<int64_t> step_ends;
    for (const Span &s : spans) {
        if (s.section == section && s.kind == Kind::Step)
            step_ends.push_back(s.t1);
    }
    std::sort(step_ends.begin(), step_ends.end());
    const int64_t cutoff =
        static_cast<int64_t>(step_ends.size()) > max_steps
            ? step_ends[static_cast<size_t>(max_steps) - 1]
            : INT64_MAX;
    LayerTimes lt;
    for (const Span &s : spans) {
        const double d = static_cast<double>(s.t1 - s.t0) / 1e6;
        if (s.kind == Kind::Checkpoint) {
            lt.checkpointMs += d;
            ++lt.checkpoints;
        } else if (s.kind == Kind::Restore) {
            lt.restoreMs += d;
            ++lt.restores;
        }
        if (s.section != section || s.t1 > cutoff)
            continue;
        switch (s.kind) {
        case Kind::Step:
            ++lt.steps;
            lt.stepMs += d;
            lt.selfMs += static_cast<double>(s.selfNs) / 1e6;
            break;
        case Kind::Opt:
            lt.optMs += d;
            break;
        case Kind::Fwd:
        case Kind::Bwd:
            lt.ms[{s.group, s.kind}] += d;
            break;
        default:
            break;
        }
    }
    return lt;
}

/** Per-step layer times of the nproc pass, and the 1-thread pass's
    scaling against the same prefix of it. */
void
reportLayerTimes(Report &rep, const LayerTimes &nproc,
                 const LayerTimes &prefix, const LayerTimes &one)
{
    rep.add("nn.conv.fwd_ms", nproc.perStep(Group::Conv, Kind::Fwd), "ms");
    rep.add("nn.conv.bwd_ms", nproc.perStep(Group::Conv, Kind::Bwd), "ms");
    rep.add("nn.bn.fwd_ms", nproc.perStep(Group::Bn, Kind::Fwd), "ms");
    rep.add("nn.bn.bwd_ms", nproc.perStep(Group::Bn, Kind::Bwd), "ms");
    rep.add("nn.relu.fwd_ms", nproc.perStep(Group::Relu, Kind::Fwd), "ms");
    rep.add("nn.relu.bwd_ms", nproc.perStep(Group::Relu, Kind::Bwd), "ms");
    rep.add("nn.other.fwd_ms", nproc.perStep(Group::Other, Kind::Fwd), "ms");
    rep.add("nn.other.bwd_ms", nproc.perStep(Group::Other, Kind::Bwd), "ms");
    rep.add("nn.opt.step_ms", nproc.perStep(nproc.optMs), "ms");
    rep.add("nn.step.self_ms", nproc.perStep(nproc.selfMs), "ms");
    rep.add("nn.nonconv_share",
            nproc.stepMs > 0.0 ? nproc.nonconv() / nproc.stepMs : 0.0,
            "ratio");
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    rep.add("common.pool.scaling.conv",
            ratio(one.perStep(one.conv()), prefix.perStep(prefix.conv())),
            "ratio");
    rep.add("common.pool.scaling.nonconv",
            ratio(one.perStep(one.nonconv()),
                  prefix.perStep(prefix.nonconv())),
            "ratio");
    rep.add("common.pool.scaling.opt",
            ratio(one.perStep(one.optMs), prefix.perStep(prefix.optMs)),
            "ratio");
    if (nproc.perStep(Group::ConvS2, Kind::Fwd) > 0.0) {
        rep.extra("nn.conv_s2.fwd_ms",
                  nproc.perStep(Group::ConvS2, Kind::Fwd), "ms");
        rep.extra("nn.conv_s2.bwd_ms",
                  nproc.perStep(Group::ConvS2, Kind::Bwd), "ms");
    }
}

// ---- the training network --------------------------------------------------

/**
 * The CIFAR ResNet-18 conv stack at a quarter of its widths
 * (16/32/64/128): a 3x3 stem, four groups of two blocks of two 3x3
 * convs (the first conv of groups 2-4 has stride 2), conv->BN->ReLU
 * throughout, then global average pooling and a 10-way fc.
 * nn::Network is sequential, so the residual adds and 1x1 shortcuts
 * are left out.
 */
void
buildResNetStack(nn::Network &net, kernels::KernelBackend backend,
                 uint64_t init_seed)
{
    int64_t in = 3;
    auto convBnRelu = [&](int64_t out, int64_t stride,
                          const std::string &name) {
        nn::Conv2dConfig c;
        c.inChannels = in;
        c.outChannels = out;
        c.kernel = 3;
        c.stride = stride;
        c.pad = 1;
        c.bias = false;
        net.add<nn::Conv2d>(c, name)->setBackend(backend);
        net.add<nn::BatchNorm2d>(out, name + ".bn");
        net.add<nn::ReLU>(name + ".relu");
        in = out;
    };
    convBnRelu(16, 1, "stem");
    const int64_t widths[4] = {16, 32, 64, 128};
    for (int g = 0; g < 4; ++g) {
        for (int b = 0; b < 2; ++b) {
            for (int c = 0; c < 2; ++c) {
                const int64_t stride = (g > 0 && b == 0 && c == 0) ? 2 : 1;
                convBnRelu(widths[g], stride,
                           "g" + std::to_string(g + 1) + "b" +
                               std::to_string(b + 1) + "c" +
                               std::to_string(c + 1));
            }
        }
    }
    net.add<nn::GlobalAvgPool>("gap");
    net.add<nn::Linear>(in, kClasses, "fc")->setBackend(backend);
    Xorshift128Plus rng(init_seed);
    nn::kaimingInit(net, rng);
}

// ---- job construction (traced or not) ------------------------------------

/**
 * Builds jobs for one pass. A traced factory wraps each job's layers
 * and optimizer in the delegating wrappers of tracing.h, with one
 * StepClock per job.
 */
class JobFactory
{
  public:
    explicit JobFactory(Tracer *tracer) : tracer_(tracer) {}

    std::unique_ptr<serve::TrainingJob>
    make(const serve::JobConfig &cfg, const serve::NetworkBuilder &build,
         const serve::OptimizerFactory &make_opt, const nn::Dataset *train,
         const nn::Dataset *val)
    {
        if (!tracer_) {
            clocks_.push_back(nullptr);
            return std::make_unique<serve::TrainingJob>(cfg, build, make_opt,
                                                        train, val);
        }
        auto clock = std::make_shared<StepClock>(
            tracer_, static_cast<int>(clocks_.size()));
        clocks_.push_back(clock);
        return std::make_unique<serve::TrainingJob>(
            cfg,
            [build, clock](nn::Network &net) {
                auto inner = std::make_shared<nn::Network>();
                build(*inner);
                perfbench::wrapNetwork(net, inner, clock);
            },
            [make_opt, clock] {
                return std::make_unique<perfbench::TracedOptimizer>(
                    make_opt(), clock);
            },
            train, val);
    }

    /** Mark the start of a step for job i, when traced. */
    void
    begin(size_t i, Clock::time_point t)
    {
        if (clocks_.at(i))
            clocks_[i]->begin(t);
    }

    void clear() { clocks_.clear(); }

  private:
    Tracer *tracer_;
    std::vector<std::shared_ptr<StepClock>> clocks_;
};

// ---- workloads -------------------------------------------------------------

/** What one pass over a workload's timed window measured. */
struct PassResult
{
    std::vector<double> opMs;   //!< per step
    double windowS = 0.0;
    int64_t samples = 0;
    int64_t ops = 0;
    std::vector<std::vector<double>> losses;   //!< per job
    std::vector<double> setupS;
    StealLog setupLog;
    StealLog windowLog;
};

/** Whether a pass sets up once more: at least `setups` times and, when
    measured (setups > 1), for at least kSetupSeconds. */
bool
moreSetups(const PassResult &pr, int setups)
{
    if (static_cast<int>(pr.setupS.size()) < setups)
        return true;
    double spent = 0.0;
    for (double d : pr.setupS)
        spent += d;
    return setups > 1 && spent < kSetupSeconds;
}

enum class TrainingKind
{
    DropbackQe,
    DenseGemm,
};

/** One training workload: its job, set-ups, timed window and checks. */
class Workload
{
  public:
    Workload(const Options &opt, Gate &gate, TrainingKind kind)
        : opt_(opt), gate_(gate), kind_(kind),
          perClass_(opt.smoke ? 8 : kTrainPerClass)
    {}

    /** Size of the last checkpoint a round trip took. */
    int64_t lastCheckpointBytes() const { return lastCheckpointBytes_; }

    /** Steps the traced run times: always as many, so its observed
        epoch always starts at the same step. */
    int64_t tracedSteps() const { return opt_.smoke ? 1 : kTracedSteps; }

    /** Sizes and recipe, for the config record. */
    std::string
    describe() const
    {
        std::ostringstream o;
        o << "{\"network\": \"resnet18-quarter-width conv stack\", "
          << "\"batch\": " << kBatch << ", \"image\": [3, " << kImage << ", "
          << kImage << "], \"classes\": " << kClasses
          << ", \"train_samples\": " << perClass_ * kClasses
          << ", \"val_samples\": " << kValPerClass * kClasses
          << ", \"steps_per_epoch\": " << stepsPerEpoch()
          << ", \"warmup_steps\": " << warmupSteps() << "}";
        return o.str();
    }

    /**
     * Set up (at least `setups` times, the last one kept) and run the
     * timed window in whole epochs until `seconds` pass and at least
     * kMinWindowEpochs ran — or exactly `fixed_ops` steps when non-zero.
     */
    PassResult
    pass(Tracer *tracer, int setups, int64_t fixed_ops,
         const std::string &tag)
    {
        PassResult pr;
        JobFactory factory(tracer);
        while (moreSetups(pr, setups)) {
            job_.reset();
            data_.reset();
            factory.clear();
            pr.setupLog.begin();
            const Clock::time_point t0 = Clock::now();
            buildJob(factory);
            for (int64_t i = 0; i < warmupSteps(); ++i) {
                factory.begin(0, Clock::now());
                job_->step();
            }
            pr.setupS.push_back(secondsSince(t0));
            pr.setupLog.end();
        }
        // Dropback's first epoch past the decay horizon still churns its
        // mask and runs about a third slower than the ones after it, so
        // its timed window starts one untimed epoch later.
        if (isDropback() && fixed_ops == 0 && !opt_.smoke) {
            for (int64_t i = 0; i < stepsPerEpoch(); ++i)
                job_->step();
        }
        if (tracer)
            tracer->setSection(Section::Window);

        serve::StatsWriter stats(statsPath(tag));
        job_->setStatsWriter(&stats);
        windowDensity_.clear();
        // Whole epochs' worth of steps: each run of stepsPerEpoch()
        // consecutive steps holds exactly one epoch-closing step, which
        // also runs validation.
        const int64_t min_steps =
            (opt_.smoke ? 1 : kMinWindowEpochs) * stepsPerEpoch();
        pr.windowLog.begin();
        const Clock::time_point w0 = Clock::now();
        const int64_t n = job_->globalStep();
        for (;;) {
            const Clock::time_point t0 = Clock::now();
            factory.begin(0, t0);
            const bool closed = job_->step();
            pr.opMs.push_back(msBetween(t0, Clock::now()));
            if (closed)
                checkEpoch();
            const int64_t done = job_->globalStep() - n;
            if (fixed_ops > 0) {
                if (done >= fixed_ops)
                    break;
                continue;
            }
            if (done % stepsPerEpoch() == 0 && done >= min_steps &&
                secondsSince(w0) >= opt_.seconds)
                break;
        }
        pr.windowS = secondsSince(w0);
        pr.windowLog.end();
        pr.ops = static_cast<int64_t>(pr.opMs.size());
        pr.samples = pr.ops * kBatch;
        job_->setStatsWriter(nullptr);
        pr.losses.push_back(readStepLosses(stats.path()));
        if (tracer)
            tracer->setSection(Section::Setup);
        return pr;
    }

    /** Record one epoch with an observer after the window. */
    void
    observeEpoch(EpochObserver &obs)
    {
        if (obs.tracer)
            obs.tracer->setSection(Section::Observed);
        job_->setObserver([&obs](const nn::StepTelemetry &t) { obs(t); });
        while (!job_->step()) {
        }
        job_->setObserver({});
        if (obs.tracer)
            obs.tracer->setSection(Section::Replay);
    }

    /** Checkpoint, restore in place, checkpoint again, n times on the
        kept job; gate byte equality. */
    void
    checkpointRoundTrips(int n, Tracer *tracer)
    {
        for (int i = 0; i < n; ++i) {
            std::vector<uint8_t> blob, again;
            timed(tracer, Kind::Checkpoint, "TrainingJob.checkpoint",
                  [&] { blob = job_->checkpoint(); });
            timed(tracer, Kind::Restore, "TrainingJob.restore",
                  [&] { job_->restore(blob); });
            timed(tracer, Kind::Checkpoint, "TrainingJob.checkpoint",
                  [&] { again = job_->checkpoint(); });
            gate_.check(blob == again, opt_.workload +
                                           ": checkpoint -> restore -> "
                                           "checkpoint is not byte-identical");
            lastCheckpointBytes_ = static_cast<int64_t>(blob.size());
        }
    }

    /** The dropback window's first and last epoch-close densities,
        printed only. */
    void
    reportExtras(Report &rep) const
    {
        if (windowDensity_.empty())
            return;
        rep.extra("sparse.window_density_first", windowDensity_.front(),
                  "ratio");
        rep.extra("sparse.window_density_last", windowDensity_.back(),
                  "ratio");
    }

  private:
    bool isDropback() const { return kind_ == TrainingKind::DropbackQe; }

    std::string
    statsPath(const std::string &tag) const
    {
        return opt_.outDir + "/" + opt_.workload + "-" + tag + ".jsonl";
    }

    int64_t
    warmupSteps() const
    {
        return isDropback() ? kDropbackWarmupSteps : kWarmupSteps;
    }

    int64_t
    stepsPerEpoch() const
    {
        return (perClass_ * kClasses + kBatch - 1) / kBatch;
    }

    void
    buildJob(JobFactory &factory)
    {
        data_ = std::make_unique<Data>();
        nn::BlobImageConfig dc;
        dc.numClasses = kClasses;
        dc.channels = 3;
        dc.height = kImage;
        dc.width = kImage;
        dc.samplesPerClass = perClass_;
        dc.seed = 1;
        dc.sampleSeed = deriveSeed(opt_.seed, 1);
        data_->train = nn::makeBlobImages(dc);
        dc.samplesPerClass = kValPerClass;
        dc.sampleSeed = deriveSeed(opt_.seed, 2);
        data_->val = nn::makeBlobImages(dc);

        serve::JobConfig jc;
        jc.name = opt_.workload;
        jc.epochs = 1000000;
        jc.batchSize = kBatch;
        jc.shuffleSeed = deriveSeed(opt_.seed, 3);
        const uint64_t init_seed = deriveSeed(opt_.seed, 4);
        const kernels::KernelBackend backend =
            isDropback() ? kernels::KernelBackend::kSparse
                         : kernels::KernelBackend::kGemm;
        serve::NetworkBuilder build = [=](nn::Network &net) {
            buildResNetStack(net, backend, init_seed);
        };
        serve::OptimizerFactory make_opt;
        if (isDropback()) {
            make_opt = [] {
                sparse::DropbackConfig c;
                c.sparsity = 10.0;
                c.initDecay = 0.9f;
                c.decayHorizon = kDecayHorizon;
                c.selection = sparse::SelectionMode::QuantileEstimate;
                return std::make_unique<sparse::DropbackOptimizer>(c);
            };
        } else {
            make_opt = [] { return std::make_unique<nn::Sgd>(0.05f, 0.9f); };
        }
        job_ = factory.make(jc, build, make_opt, &data_->train, &data_->val);
    }

    void
    checkEpoch()
    {
        const nn::EpochStats &st = job_->history().back();
        const std::string where =
            opt_.workload + " epoch " + std::to_string(st.epoch);
        switch (kind_) {
        case TrainingKind::DropbackQe: {
            const double d = 1.0 - st.weightSparsity;
            gate_.check(d >= kDropbackDensityLo && d <= kDropbackDensityHi,
                        where + ": weight density " + std::to_string(d) +
                            " outside the band");
            windowDensity_.push_back(d);
            break;
        }
        case TrainingKind::DenseGemm:
            gate_.check(st.weightSparsity == 0.0,
                        where + ": a dense weight was pruned");
            break;
        }
    }

    struct Data
    {
        nn::Dataset train, val;
    };

    const Options &opt_;
    Gate &gate_;
    TrainingKind kind_;
    int64_t perClass_;
    std::unique_ptr<Data> data_;
    std::unique_ptr<serve::TrainingJob> job_;
    std::vector<double> windowDensity_;
    int64_t lastCheckpointBytes_ = 0;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt, Gate &gate)
{
    if (opt.workload == "dropback_qe")
        return std::make_unique<Workload>(opt, gate, TrainingKind::DropbackQe);
    if (opt.workload == "dense_gemm")
        return std::make_unique<Workload>(opt, gate, TrainingKind::DenseGemm);
    return nullptr;
}

// ---- runs --------------------------------------------------------------------

void
checkLosses(Gate &gate, const PassResult &pr, const std::string &what)
{
    for (const auto &job : pr.losses) {
        for (double l : job)
            gate.check(std::isfinite(l), what + ": non-finite step loss");
    }
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** --trace 0: the end-to-end metrics, tracing off. */
Report
runEndToEnd(const Options &opt, Workload &w, Gate &gate)
{
    Report rep;
    const int setups = opt.smoke ? 1 : kRepeats;
    const int nproc = ThreadPool::global().numThreads();
    ThreadPool::resetGlobal(kWindowThreads);
    const PassResult pr = w.pass(nullptr, setups, 0, "e2e");
    ThreadPool::resetGlobal(nproc);
    checkLosses(gate, pr, opt.workload);
    EpochObserver obs;
    w.observeEpoch(obs);
    const int replays = opt.smoke ? 1 : kRepeats;
    std::vector<double> replay_s;
    StealLog replay_log;
    const Clock::time_point r0 = Clock::now();
    do {
        replay_log.begin();
        replay_s.push_back(replayEpoch(obs.trace, nullptr).replayS);
        replay_log.end();
    } while (replay_s.size() < static_cast<size_t>(replays) ||
             secondsSince(r0) < (opt.smoke ? 0.0 : kReplaySeconds));
    w.checkpointRoundTrips(1, nullptr);

    std::printf("  %lld steps timed in %.2f s on %d pool thread(s), %lld "
                "samples\n",
                static_cast<long long>(pr.ops), pr.windowS, kWindowThreads,
                static_cast<long long>(pr.samples));
    std::printf("steal {\"window\": %.4f, \"setup\": %.4f, "
                "\"replay\": %.4f, \"setups\": %zu, \"replays\": %zu}\n",
                pr.windowLog.mean(), pr.setupLog.mean(), replay_log.mean(),
                pr.setupS.size(), replay_s.size());
    const double worst = std::max(
        {pr.windowLog.max(), pr.setupLog.max(), replay_log.max()});
    if (worst > kStealWarn)
        std::fprintf(stderr,
                     "warning: %s: hypervisor steal up to %.1f%% while "
                     "measuring; wall times are inflated\n",
                     opt.workload.c_str(), 100.0 * worst);

    rep.add("step_ms_p50", percentile(pr.opMs, 0.5), "ms");
    rep.extra("step_ms_p10", percentile(pr.opMs, 0.1), "ms");
    rep.extra("step_ms_p90", percentile(pr.opMs, 0.9), "ms");
    rep.add("samples_per_s", static_cast<double>(pr.samples) / pr.windowS,
            "1/s");
    rep.add("replay_s", percentile(replay_s, 0.5), "s");
    rep.add("setup_s", percentile(pr.setupS, 0.5), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    w.reportExtras(rep);
    return rep;
}

/** Each of a's per-job loss sequences is a non-empty, bitwise-equal
    prefix of b's. */
bool
bitwisePrefix(const std::vector<std::vector<double>> &a,
              const std::vector<std::vector<double>> &b)
{
    if (a.size() != b.size() || a.empty())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].empty() || a[i].size() > b[i].size() ||
            std::memcmp(a[i].data(), b[i].data(),
                        a[i].size() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

/** The first n step times of a pass. */
std::vector<double>
firstOps(const PassResult &p, size_t n)
{
    return {p.opMs.begin(), p.opMs.begin() + std::min(n, p.opMs.size())};
}

/** --trace 1: untraced reference, traced at nproc, traced at 1 thread. */
Report
runTraced(const Options &opt, Workload &w, Gate &gate,
          const std::string &trace_path, const std::string &config_json)
{
    Report rep;
    const int nproc = ThreadPool::global().numThreads();
    // A fixed number of steps, not a timed window: the observed epoch
    // then starts at the same step on every run, so its counts repeat.
    const PassResult ref = w.pass(nullptr, 1, w.tracedSteps(), "untraced");
    checkLosses(gate, ref, opt.workload);

    Tracer tracer;
    const PassResult traced = w.pass(&tracer, 1, ref.ops, "traced");
    gate.check(bitwisePrefix(traced.losses, ref.losses) &&
                   bitwisePrefix(ref.losses, traced.losses),
               "traced step losses differ from the untraced run's");
    EpochObserver obs;
    obs.tracer = &tracer;
    w.observeEpoch(obs);
    tracer.setSection(Section::Replay);
    const ReplayResult rr = replayEpoch(obs.trace, &tracer);
    gate.check(rr.planSim.total.cycles == rr.sim.total.cycles,
               "plan + clock sim.cycles differ from the co-run's");
    w.checkpointRoundTrips(opt.smoke ? 1 : 5, &tracer);
    const std::vector<Span> spans = tracer.spans();
    const LayerTimes lt = aggregate(spans, Section::Window);
    const LayerTimes observed = aggregate(spans, Section::Observed);

    ThreadPool::resetGlobal(1);
    Tracer tracer1;
    const PassResult one =
        w.pass(&tracer1, 1, std::min(ref.ops, kScalingOps), "traced1t");
    ThreadPool::resetGlobal(nproc);
    gate.check(bitwisePrefix(one.losses, ref.losses),
               "1-thread step losses differ from the nproc run's");
    const LayerTimes lt1 = aggregate(tracer1.spans(), Section::Window);
    const LayerTimes prefix = aggregate(spans, Section::Window, lt1.steps);
    const std::vector<double> traced_prefix =
        firstOps(traced, one.opMs.size());

    if (!tracer.writeChromeJson(trace_path, config_json))
        std::fprintf(stderr, "warning: could not write %s\n",
                     trace_path.c_str());
    std::printf("  trace: %s (%zu spans)\n", trace_path.c_str(),
                spans.size());

    reportLayerTimes(rep, lt, prefix, lt1);
    rep.add("common.pool.scaling.step",
            mean(one.opMs) / mean(traced_prefix), "ratio");
    rep.add("trace.overhead",
            percentile(traced.opMs, 0.5) / percentile(ref.opMs, 0.5) - 1.0,
            "ratio");
    const double conv_macs = static_cast<double>(
        obs.convFw + obs.convBwData + obs.convBwWeight);
    rep.add("kernels.conv.gmacs_per_s",
            observed.conv() > 0.0 ? conv_macs / (observed.conv() / 1e3) / 1e9
                                  : 0.0,
            "GMAC/s");
    reportReplay(rep, obs, rr);
    rep.add("serve.checkpoint_ms",
            lt.checkpoints ? lt.checkpointMs / lt.checkpoints : 0.0, "ms");
    rep.add("serve.restore_ms", lt.restores ? lt.restoreMs / lt.restores : 0.0,
            "ms");
    rep.add("serve.checkpoint_bytes",
            static_cast<double>(w.lastCheckpointBytes()), "bytes");

    return rep;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload dropback_qe|dense_gemm --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--out-dir DIR]\n",
                 argv0);
    return 2;
}

} // namespace

bool
perfbench::Tracer::writeChromeJson(const std::string &path,
                                   const std::string &process) const
{
    static const char *kKind[] = {
        "fwd",      "bwd",     "eval",      "opt",      "step",
        "checkpoint", "restore", "observe", "analytic",
        "imbalance", "sim.plan", "sim.clock"};
    static const char *kGroup[] = {"", "conv", "conv_s2", "bn", "relu",
                                   "other"};
    static const char *kSection[] = {"setup", "window", "observed",
                                     "replay"};
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    "\"traceEvents\": [\n",
                 process.c_str());
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(
            f,
            "{\"name\": \"%s\", \"cat\": \"%s%s%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"section\": \"%s\", \"job\": %d%s%s}}%s\n",
            jsonEscape(name(s.name)).c_str(),
            kKind[static_cast<int>(s.kind)],
            s.group == Group::None ? "" : ".",
            kGroup[static_cast<int>(s.group)], s.tid,
            static_cast<double>(s.t0) / 1e3,
            static_cast<double>(s.t1 - s.t0) / 1e3,
            kSection[static_cast<int>(s.section)], s.job,
            s.kind == Kind::Step ? ", \"self_ms\": " : "",
            s.kind == Kind::Step
                ? jsonNumber(static_cast<double>(s.selfNs) / 1e6).c_str()
                : "",
            i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

int
main(int argc, char **argv)
{
    Options opt;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--smoke") {
            opt.smoke = true;
        } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                    a == "--trace" || a == "--out-dir") &&
                   (v = value())) {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::strtoull(v, nullptr, 10);
            else if (a == "--seconds")
                opt.seconds = std::strtod(v, nullptr);
            else if (a == "--trace") {
                opt.trace = std::strcmp(v, "1") == 0;
                have_trace = std::strcmp(v, "0") == 0 || opt.trace;
            } else
                opt.outDir = v;
        } else {
            return usage(argv[0]);
        }
    }
    Gate gate;
    std::unique_ptr<Workload> w = makeWorkload(opt, gate);
    if (!w || !have_trace || !(opt.seconds > 0.0))
        return usage(argv[0]);

    const int pool = ThreadPool::global().numThreads();
    std::ostringstream cfg;
    cfg << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"seconds\": " << opt.seconds
        << ", \"trace\": " << (opt.trace ? 1 : 0)
        << ", \"smoke\": " << (opt.smoke ? "true" : "false")
        << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency()
        << ", \"pool_threads\": " << pool
        << ", \"window_threads\": " << (opt.trace ? pool : kWindowThreads)
        << ", \"simd\": \""
        << kernels::simdLevelName(kernels::activeSimdLevel())
        << "\", \"sizes\": " << w->describe() << "}";
    std::printf("config %s\n", cfg.str().c_str());
    std::fflush(stdout);

    const std::string trace_path = opt.outDir + "/" + opt.workload +
                                   "-seed" + std::to_string(opt.seed) +
                                   ".trace.json";
    const Report rep = opt.trace
                           ? runTraced(opt, *w, gate, trace_path, cfg.str())
                           : runEndToEnd(opt, *w, gate);

    for (const Metric &m : rep.metrics)
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : rep.extras)
        std::printf("  %-34s %14.6g %s   (report only)\n", m.name.c_str(),
                    m.value, m.unit.c_str());

    std::ostringstream js;
    js << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << gate.attempted
       << ", \"failed\": " << gate.failed << ", \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return gate.failed == 0 ? 0 : 1;
}
