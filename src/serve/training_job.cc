#include "serve/training_job.h"

#include "common/logging.h"

namespace procrustes {
namespace serve {

TrainingJob::TrainingJob(const JobConfig &cfg, const NetworkBuilder &build,
                         const OptimizerFactory &make_opt,
                         const nn::Dataset *train, const nn::Dataset *val)
    : cfg_(cfg)
{
    PROCRUSTES_ASSERT(train && val, "job datasets must be non-null");
    PROCRUSTES_ASSERT(cfg.epochs > 0 && cfg.batchSize > 0,
                      "job epochs and batch size must be positive");
    build(net_);
    opt_ = make_opt();
    PROCRUSTES_ASSERT(opt_ != nullptr, "optimizer factory returned null");
    trainer_ = std::make_unique<nn::Trainer>(net_, *opt_, *train, *val,
                                             cfg);
}

bool
TrainingJob::step()
{
    PROCRUSTES_ASSERT(!finished(), "step() on a finished job");
    const bool closed = trainer_->step();
    if (stats_) {
        stats_->writeStep(cfg_.name, trainer_->lastStep());
        if (closed)
            stats_->writeEpoch(cfg_.name, history().back());
    }
    return closed;
}

void
TrainingJob::runEpoch()
{
    while (!step()) {
    }
}

void
TrainingJob::run()
{
    while (!finished())
        runEpoch();
}

std::vector<uint8_t>
TrainingJob::checkpoint()
{
    return snapshotTrainingState(net_, *opt_, trainer_->cursor());
}

void
TrainingJob::restore(const std::vector<uint8_t> &blob)
{
    trainer_->setCursor(restoreTrainingState(blob, net_, *opt_));
}

void
TrainingJob::setObserver(const nn::StepObserver &observer)
{
    trainer_->setObserver(observer);
}

} // namespace serve
} // namespace procrustes
