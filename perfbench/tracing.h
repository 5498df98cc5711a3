/**
 * @file
 * Span recording for the benchmark's traced run, built entirely from
 * outside the library: TracedLayer and TracedOptimizer delegate every
 * call to the real nn::Layer / nn::Optimizer and time it with
 * steady_clock, so the real serve::TrainingJob::step path runs
 * unchanged. Spans are kept in memory and written at the end as
 * Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
 *
 * Delegation never touches tensors, so a traced run is bitwise equal
 * to an untraced one; the harness checks that on every traced run.
 */

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/network.h"
#include "nn/sgd.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** What a span timed. */
enum class Kind : uint8_t
{
    Fwd,        //!< Layer::forward with training = true
    Bwd,        //!< Layer::backward
    Eval,       //!< Layer::forward with training = false (validation)
    Opt,        //!< Optimizer::step
    Step,       //!< one training step of one job
    Checkpoint, //!< TrainingJob::checkpoint
    Restore,    //!< TrainingJob::restore
    Observe,    //!< WorkloadTrace::observe
    Analytic,   //!< Accelerator::evaluateTrace, analytic model only
    Imbalance,  //!< arch::measuredEpochImbalance
    SimPlan,    //!< sim::buildEpochWavePlan
    SimClock,   //!< sim::simulateEpochPlan
};

/** Layer family a Fwd/Bwd/Eval span belongs to. */
enum class Group : uint8_t
{
    None,
    Conv,     //!< stride-1 Conv2d
    ConvS2,   //!< stride-2 Conv2d
    Bn,
    Relu,
    Other,    //!< Linear, pooling, flatten
};

/** Section of the run a span falls in; metrics filter on it. */
enum class Section : uint8_t
{
    Setup,
    Window,     //!< the timed window
    Observed,   //!< the epoch recorded for the accelerator replay
    Replay,
};

struct Span
{
    int name = 0;          //!< Tracer::name() index
    Kind kind = Kind::Fwd;
    Group group = Group::None;
    Section section = Section::Setup;
    int tid = 0;
    int job = -1;
    int64_t t0 = 0;        //!< ns since the tracer's origin
    int64_t t1 = 0;
    int64_t selfNs = 0;    //!< Step spans: duration minus traced children
};

/** In-memory span store shared by every wrapper of one traced pass. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int
    intern(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < names_.size(); ++i) {
            if (names_[i] == name)
                return static_cast<int>(i);
        }
        names_.push_back(name);
        return static_cast<int>(names_.size() - 1);
    }

    void
    record(Span s, Clock::time_point t0, Clock::time_point t1)
    {
        s.t0 = ns(t0);
        s.t1 = ns(t1);
        s.tid = threadId();
        s.section = section_.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(s);
    }

    void setSection(Section s) { section_.store(s); }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

    const std::string &name(int i) const { return names_.at(i); }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path,
                         const std::string &process) const;

  private:
    int64_t
    ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    static int
    threadId()
    {
        static std::atomic<int> next{0};
        thread_local int id = next.fetch_add(1);
        return id;
    }

    Clock::time_point origin_;
    std::atomic<Section> section_{Section::Setup};
    mutable std::mutex mu_;
    std::vector<Span> spans_;         //!< guarded by mu_
    std::vector<std::string> names_;  //!< guarded by mu_
};

/** Run fn(), record it as a span when traced, and return its ms. */
template <typename Fn>
double
timed(Tracer *tracer, Kind kind, const char *name, Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (tracer) {
        Span s;
        s.name = tracer->intern(name);
        s.kind = kind;
        tracer->record(s, t0, t1);
    }
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Per-job step boundary tracker. A job's steps run back to back on one
 * thread, so a step spans from its start (the caller's step() call, or
 * the previous step's optimizer end) to the end of
 * its optimizer step. Everything the wrappers time in between is a
 * child; the rest (batch gather, zeroGrad, loss) is the step's self
 * time.
 */
class StepClock
{
  public:
    StepClock(Tracer *tracer, int job)
        : tracer_(tracer), job_(job),
          stepName_(tracer->intern("TrainingJob.step"))
    {}

    Tracer *tracer() const { return tracer_; }

    void
    begin(Clock::time_point t)
    {
        boundary_ = t;
        childNs_ = 0;
    }

    void
    child(Span s, Clock::time_point t0, Clock::time_point t1)
    {
        childNs_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count();
        s.job = job_;
        tracer_->record(s, t0, t1);
    }

    /** Close the current step at `t` (the optimizer's end). */
    void
    end(Clock::time_point t)
    {
        Span s;
        s.name = stepName_;
        s.kind = Kind::Step;
        s.job = job_;
        s.selfNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - boundary_)
                .count() -
            childNs_;
        tracer_->record(s, boundary_, t);
        begin(t);
    }

  private:
    Tracer *tracer_;
    int job_;
    int stepName_;
    Clock::time_point boundary_ = Clock::now();
    int64_t childNs_ = 0;
};

/** Delegating layer: times forward/backward of a layer it borrows. */
class TracedLayer : public procrustes::nn::Layer
{
  public:
    /** `owner` keeps the network holding `inner` alive. */
    TracedLayer(std::shared_ptr<procrustes::nn::Network> owner,
                procrustes::nn::Layer *inner,
                std::shared_ptr<StepClock> clock)
        : owner_(std::move(owner)), inner_(inner),
          clock_(std::move(clock)),
          name_(clock_->tracer()->intern(inner->name())),
          group_(classify(inner))
    {}

    procrustes::Tensor
    forward(const procrustes::Tensor &x, bool training) override
    {
        const Clock::time_point t0 = Clock::now();
        procrustes::Tensor y = inner_->forward(x, training);
        clock_->child(span(training ? Kind::Fwd : Kind::Eval), t0,
                      Clock::now());
        return y;
    }

    procrustes::Tensor
    backward(const procrustes::Tensor &dy) override
    {
        const Clock::time_point t0 = Clock::now();
        procrustes::Tensor dx = inner_->backward(dy);
        clock_->child(span(Kind::Bwd), t0, Clock::now());
        return dx;
    }

    std::vector<procrustes::nn::Param *>
    params() override
    {
        return inner_->params();
    }

    std::string name() const override { return inner_->name(); }

    bool
    stepReport(procrustes::nn::LayerStepReport *out) const override
    {
        return inner_->stepReport(out);
    }

    void
    serializeState(procrustes::ByteWriter &w) const override
    {
        inner_->serializeState(w);
    }

    void
    restoreState(procrustes::ByteReader &r) override
    {
        inner_->restoreState(r);
    }

  private:
    static Group
    classify(procrustes::nn::Layer *l)
    {
        using namespace procrustes::nn;
        if (auto *c = dynamic_cast<Conv2d *>(l))
            return c->config().stride == 1 ? Group::Conv : Group::ConvS2;
        if (dynamic_cast<BatchNorm2d *>(l))
            return Group::Bn;
        if (dynamic_cast<ReLU *>(l))
            return Group::Relu;
        return Group::Other;
    }

    Span
    span(Kind kind) const
    {
        Span s;
        s.name = name_;
        s.kind = kind;
        s.group = group_;
        return s;
    }

    std::shared_ptr<procrustes::nn::Network> owner_;
    procrustes::nn::Layer *inner_;
    std::shared_ptr<StepClock> clock_;
    int name_;
    Group group_;
};

/** Delegating optimizer: times step() and closes the job's step span. */
class TracedOptimizer : public procrustes::nn::Optimizer
{
  public:
    TracedOptimizer(std::unique_ptr<procrustes::nn::Optimizer> inner,
                    std::shared_ptr<StepClock> clock)
        : inner_(std::move(inner)), clock_(std::move(clock)),
          name_(clock_->tracer()->intern("optimizer.step"))
    {}

    void
    step(const std::vector<procrustes::nn::Param *> &params) override
    {
        const Clock::time_point t0 = Clock::now();
        inner_->step(params);
        const Clock::time_point t1 = Clock::now();
        Span s;
        s.name = name_;
        s.kind = Kind::Opt;
        clock_->child(s, t0, t1);
        clock_->end(t1);
    }

    const char *stateKind() const override { return inner_->stateKind(); }

    bool
    checkpointComplete() const override
    {
        return inner_->checkpointComplete();
    }

    void
    serializeState(procrustes::ByteWriter &w) const override
    {
        inner_->serializeState(w);
    }

    void
    restoreState(procrustes::ByteReader &r) override
    {
        inner_->restoreState(r);
    }

  private:
    std::unique_ptr<procrustes::nn::Optimizer> inner_;
    std::shared_ptr<StepClock> clock_;
    int name_;
};

/**
 * Fill `outer` with TracedLayers over every layer of `inner`, which
 * the wrappers keep alive. Params, state and reports all delegate, so
 * `outer` trains exactly as `inner` would.
 */
inline void
wrapNetwork(procrustes::nn::Network &outer,
            std::shared_ptr<procrustes::nn::Network> inner,
            const std::shared_ptr<StepClock> &clock)
{
    for (size_t i = 0; i < inner->size(); ++i)
        outer.add<TracedLayer>(inner, inner->layer(i), clock);
}

} // namespace perfbench

#endif // PERFBENCH_TRACING_H_
