/**
 * @file
 * The training step, written once, and the loops built on it.
 *
 * Trainer is a cursor-driven stepper: it cuts each batch from the
 * epoch's shuffled order (ragged tail included), hands it to its one
 * hook, accumulates the sample-weighted epoch loss and accuracy,
 * builds the step's telemetry, and closes each epoch with validation.
 * The default hook trains one network with one optimizer. trainNetwork
 * runs it to completion, serve::TrainingJob drives it step by step
 * with checkpoints, and scaleout::trainSharded swaps in a hook that
 * splits the batch over replicas. Their bitwise equivalences therefore
 * hold by construction: there is one step, not three.
 */

#ifndef PROCRUSTES_NN_TRAINER_H_
#define PROCRUSTES_NN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/data.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/sgd.h"

namespace procrustes {
namespace nn {

/**
 * Everything the network measured during one training step: one
 * LayerStepReport per reporting layer, in layer order, sampled after
 * the optimizer update that closed the step (so each report's mask is
 * the post-update live mask). This is the unit the workload-trace
 * pipeline (arch/workload_trace.h) aggregates.
 */
struct StepTelemetry
{
    int64_t epoch = 0;
    int64_t step = 0;        //!< global step index across epochs
    int64_t batchSize = 0;
    double batchLoss = 0.0;
    std::vector<LayerStepReport> reports;
};

/**
 * Per-step observer invoked after each optimizer step. Collecting
 * reports costs O(activations) per step, so the trainer only gathers
 * them when an observer is attached.
 */
using StepObserver = std::function<void(const StepTelemetry &)>;

/** One epoch's summary statistics. */
struct EpochStats
{
    int64_t epoch = 0;
    double trainLoss = 0.0;
    double trainAccuracy = 0.0;
    double valAccuracy = 0.0;
    double weightSparsity = 0.0;  //!< zero fraction over prunable params
};

/** Training-loop configuration. */
struct TrainConfig
{
    int64_t epochs = 10;
    int64_t batchSize = 16;
    uint64_t shuffleSeed = 7;
};

/** Builds a network (must be deterministic). */
using NetworkBuilder = std::function<void(Network &)>;

/** Creates an optimizer (must be deterministic). */
using OptimizerFactory = std::function<std::unique_ptr<Optimizer>()>;

/**
 * Where a training run is in its sample stream, plus the running
 * accumulators of the open epoch. `stepInEpoch` counts completed
 * optimizer steps within `epoch`; the next batch starts at sample
 * offset stepInEpoch * batchSize of the epoch's shuffled order.
 * epochOrder is a pure function of (size, seed, epoch), so a cursor
 * alone resumes mid-stream.
 */
struct TrainCursor
{
    int64_t epoch = 0;
    int64_t stepInEpoch = 0;
    int64_t globalStep = 0;
    /** @name Open-epoch accumulators (sample-weighted sums). */
    /**@{*/
    double lossSum = 0.0;
    double accSum = 0.0;
    int64_t samples = 0;
    /**@}*/
};

/** Loss and top-1 accuracy of one forward/backward over a grad slice. */
struct SliceResult
{
    double loss = 0.0;
    double accuracy = 0.0;
    int64_t samples = 0;
};

/**
 * Gather samples `idx` of `ds`, then zeroGrad, forward in training
 * mode, loss and backward on `net`. The gradients are left in each
 * Param::grad for the caller to apply.
 */
SliceResult backprop(Network &net, SoftmaxCrossEntropy &loss,
                     const Dataset &ds, const std::vector<int64_t> &idx);

/** The reports of every reporting layer of `net`, in layer order. */
std::vector<LayerStepReport> stepReports(Network &net);

/** The cursor-driven training step (see the file comment). */
class Trainer
{
  public:
    /**
     * The step's one variable part: train on the samples `idx` (the
     * batch, in order) and apply the optimizer update. Returns each
     * grad slice's result in batch order. When `reports` is non-null,
     * fills it with the post-update layer reports.
     */
    using StepHook = std::function<std::vector<SliceResult>(
        const std::vector<int64_t> &idx,
        std::vector<LayerStepReport> *reports)>;

    /** Train `net` with `opt`: backprop the batch, then opt.step. */
    Trainer(Network &net, Optimizer &opt, const Dataset &train,
            const Dataset &val, const TrainConfig &cfg);

    /** Train by `hook`; `net` is the network validated per epoch. */
    Trainer(Network &net, StepHook hook, const Dataset &train,
            const Dataset &val, const TrainConfig &cfg);

    /**
     * Run one optimizer step. Returns true when the step closed an
     * epoch (validation ran and an EpochStats was appended). Must not
     * be called once finished().
     */
    bool step();

    bool finished() const { return cursor_.epoch >= cfg_.epochs; }

    const TrainCursor &cursor() const { return cursor_; }

    /** Resume from `cursor` (e.g. one restored from a checkpoint). */
    void setCursor(const TrainCursor &cursor);

    /** Epochs closed by this trainer, oldest first. */
    const std::vector<EpochStats> &history() const { return history_; }

    /** The last step's epoch, step, batch size and loss. Its reports
        are always empty: they go to the observer only. */
    const StepTelemetry &lastStep() const { return last_; }

    void setObserver(const StepObserver &observer) { observer_ = observer; }

  private:
    void closeEpoch();

    Network &net_;
    const Dataset &train_;
    const Dataset &val_;
    TrainConfig cfg_;
    StepHook hook_;
    TrainCursor cursor_;
    std::vector<EpochStats> history_;
    StepObserver observer_;
    StepTelemetry last_;
    /** Cached epochOrder for orderEpoch_; rebuilt lazily on demand. */
    std::vector<int64_t> order_;
    int64_t orderEpoch_ = -1;
};

/**
 * Run SGD-style training of `net` on `train`, validating on `val` after
 * each epoch; returns one EpochStats per epoch. The loop is
 * deterministic given the seeds in the configs. When `observer` is
 * non-null it receives a StepTelemetry after every optimizer step
 * (e.g. arch::WorkloadTrace::observer() to drive the accelerator
 * model from the measured run).
 */
std::vector<EpochStats> trainNetwork(Network &net, Optimizer &opt,
                                     const Dataset &train,
                                     const Dataset &val,
                                     const TrainConfig &cfg,
                                     const StepObserver &observer = {});

/** Evaluate top-1 accuracy of `net` on a dataset (inference mode). */
double evaluateAccuracy(Network &net, const Dataset &ds,
                        int64_t batch_size = 64);

/** Zero fraction across all prunable parameters of a network. */
double weightSparsity(Network &net);

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_TRAINER_H_
