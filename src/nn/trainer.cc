#include "nn/trainer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace procrustes {
namespace nn {

SliceResult
backprop(Network &net, SoftmaxCrossEntropy &loss, const Dataset &ds,
         const std::vector<int64_t> &idx)
{
    const Tensor x = ds.batch(idx);
    const auto y = ds.batchLabels(idx);
    net.zeroGrad();
    const Tensor logits = net.forward(x, /*training=*/true);
    SliceResult r;
    r.loss = loss.forward(logits, y);
    r.accuracy = loss.accuracy();
    r.samples = static_cast<int64_t>(idx.size());
    net.backward(loss.backward());
    return r;
}

std::vector<LayerStepReport>
stepReports(Network &net)
{
    std::vector<LayerStepReport> reports;
    for (size_t li = 0; li < net.size(); ++li) {
        LayerStepReport r;
        if (net.layer(li)->stepReport(&r))
            reports.push_back(std::move(r));
    }
    return reports;
}

Trainer::Trainer(Network &net, Optimizer &opt, const Dataset &train,
                 const Dataset &val, const TrainConfig &cfg)
    : Trainer(net,
              [&net, &opt, &train, params = net.params(),
               loss = SoftmaxCrossEntropy()](
                  const std::vector<int64_t> &idx,
                  std::vector<LayerStepReport> *reports) mutable {
                  const SliceResult r = backprop(net, loss, train, idx);
                  opt.step(params);
                  if (reports)
                      *reports = stepReports(net);
                  return std::vector<SliceResult>{r};
              },
              train, val, cfg)
{
}

Trainer::Trainer(Network &net, StepHook hook, const Dataset &train,
                 const Dataset &val, const TrainConfig &cfg)
    : net_(net), train_(train), val_(val), cfg_(cfg),
      hook_(std::move(hook))
{
    PROCRUSTES_ASSERT(cfg.batchSize > 0, "batch size must be positive");
    PROCRUSTES_ASSERT(train.size() > 0, "empty training set");
}

void
Trainer::setCursor(const TrainCursor &cursor)
{
    cursor_ = cursor;
    orderEpoch_ = -1;
}

bool
Trainer::step()
{
    PROCRUSTES_ASSERT(!finished(), "step() past the last epoch");
    if (orderEpoch_ != cursor_.epoch) {
        order_ = epochOrder(train_.size(), cfg_.shuffleSeed,
                            cursor_.epoch);
        orderEpoch_ = cursor_.epoch;
    }
    // The last batch of an epoch may be ragged (train.size() %
    // batchSize != 0); it is trained and weighted by its size.
    const int64_t start = cursor_.stepInEpoch * cfg_.batchSize;
    PROCRUSTES_ASSERT(start < train_.size(),
                      "training cursor past end of epoch");
    const int64_t end = std::min(start + cfg_.batchSize, train_.size());
    const int64_t n = end - start;
    const std::vector<int64_t> idx(order_.begin() + start,
                                   order_.begin() + end);

    std::vector<LayerStepReport> reports;
    const std::vector<SliceResult> slices =
        hook_(idx, observer_ ? &reports : nullptr);

    // Sample-weighted sums, so a ragged batch or slice counts in
    // proportion to its size. Snapshots carry the open epoch's sums,
    // and the compiler may fuse this multiply-add: rewriting the
    // expression can change how an epoch resumed from an older build's
    // snapshot rounds.
    for (const SliceResult &s : slices) {
        cursor_.lossSum += s.loss * static_cast<double>(s.samples);
        cursor_.accSum += s.accuracy * static_cast<double>(s.samples);
    }
    last_.epoch = cursor_.epoch;
    last_.step = cursor_.globalStep;
    last_.batchSize = n;
    last_.batchLoss = slices[0].loss;
    if (slices.size() > 1) {
        double sum = 0.0;
        for (const SliceResult &s : slices)
            sum += s.loss * static_cast<double>(s.samples);
        last_.batchLoss = sum / static_cast<double>(n);
    }
    if (observer_) {
        last_.reports = std::move(reports);
        observer_(last_);
        last_.reports.clear();
    }

    ++cursor_.globalStep;
    ++cursor_.stepInEpoch;
    cursor_.samples += n;
    if (end < train_.size())
        return false;
    closeEpoch();
    return true;
}

void
Trainer::closeEpoch()
{
    // A step just ran, so the epoch holds at least one sample.
    const double samples = static_cast<double>(cursor_.samples);
    EpochStats st;
    st.epoch = cursor_.epoch;
    st.trainLoss = cursor_.lossSum / samples;
    st.trainAccuracy = cursor_.accSum / samples;
    st.valAccuracy = evaluateAccuracy(net_, val_);
    st.weightSparsity = weightSparsity(net_);
    history_.push_back(st);

    TrainCursor next;
    next.epoch = cursor_.epoch + 1;
    next.globalStep = cursor_.globalStep;
    cursor_ = next;
}

std::vector<EpochStats>
trainNetwork(Network &net, Optimizer &opt, const Dataset &train,
             const Dataset &val, const TrainConfig &cfg,
             const StepObserver &observer)
{
    Trainer trainer(net, opt, train, val, cfg);
    trainer.setObserver(observer);
    while (!trainer.finished())
        trainer.step();
    return trainer.history();
}

double
evaluateAccuracy(Network &net, const Dataset &ds, int64_t batch_size)
{
    SoftmaxCrossEntropy loss;
    double correct_weighted = 0.0;
    int64_t seen = 0;
    for (int64_t start = 0; start < ds.size(); start += batch_size) {
        const int64_t end = std::min(start + batch_size, ds.size());
        std::vector<int64_t> idx;
        for (int64_t i = start; i < end; ++i)
            idx.push_back(i);
        const Tensor x = ds.batch(idx);
        const auto y = ds.batchLabels(idx);
        const Tensor logits = net.forward(x, /*training=*/false);
        loss.forward(logits, y);
        correct_weighted +=
            loss.accuracy() * static_cast<double>(end - start);
        seen += end - start;
    }
    return seen ? correct_weighted / static_cast<double>(seen) : 0.0;
}

double
weightSparsity(Network &net)
{
    int64_t zeros = 0;
    int64_t total = 0;
    for (Param *p : net.params()) {
        if (!p->prunable)
            continue;
        const float *v = p->value.data();
        const int64_t n = p->value.numel();
        for (int64_t i = 0; i < n; ++i) {
            if (v[i] == 0.0f)
                ++zeros;
        }
        total += n;
    }
    return total ? static_cast<double>(zeros) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace nn
} // namespace procrustes
