#include "sparse/gradual_pruning.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "common/logging.h"

namespace procrustes {
namespace sparse {

GradualMagnitudePruningOptimizer::GradualMagnitudePruningOptimizer(
    const GradualPruningConfig &cfg)
    : cfg_(cfg)
{
    PROCRUSTES_ASSERT(cfg.targetSparsity > 1.0,
                      "target sparsity must exceed 1x");
    PROCRUSTES_ASSERT(cfg.lr > 0.0f, "learning rate must be positive");
    PROCRUSTES_ASSERT(cfg.pruneFraction > 0.0 && cfg.pruneFraction < 1.0,
                      "prune fraction must be in (0,1)");
    PROCRUSTES_ASSERT(cfg.pruneInterval > 0, "prune interval positive");
}

void
GradualMagnitudePruningOptimizer::capture(
    const std::vector<nn::Param *> &params)
{
    masks_.clear();
    prunableCount_ = 0;
    for (nn::Param *p : params) {
        if (p->prunable) {
            masks_.emplace_back(
                static_cast<size_t>(p->value.numel()), 1);
            prunableCount_ += p->value.numel();
        } else {
            masks_.emplace_back();
        }
    }
    aliveCount_ = prunableCount_;
    initialized_ = true;
}

void
GradualMagnitudePruningOptimizer::pruneStep(
    const std::vector<nn::Param *> &params)
{
    const auto floor_alive = static_cast<int64_t>(
        std::ceil(static_cast<double>(prunableCount_) /
                  cfg_.targetSparsity));
    if (aliveCount_ <= floor_alive)
        return;

    // Collect the magnitudes of surviving weights across the model
    // (both baselines sort globally, Section II-E).
    std::vector<float> mags;
    mags.reserve(static_cast<size_t>(aliveCount_));
    for (size_t pi = 0; pi < params.size(); ++pi) {
        if (masks_[pi].empty())
            continue;
        const float *v = params[pi]->value.data();
        for (size_t i = 0; i < masks_[pi].size(); ++i) {
            if (masks_[pi][i])
                mags.push_back(std::fabs(v[i]));
        }
    }

    auto to_remove = static_cast<int64_t>(
        std::llround(cfg_.pruneFraction *
                     static_cast<double>(aliveCount_)));
    to_remove =
        std::min(to_remove, aliveCount_ - floor_alive);
    if (to_remove <= 0)
        return;

    std::nth_element(mags.begin(), mags.begin() + to_remove - 1,
                     mags.end());
    const float threshold = mags[static_cast<size_t>(to_remove - 1)];

    int64_t removed = 0;
    for (size_t pi = 0; pi < params.size() && removed < to_remove;
         ++pi) {
        if (masks_[pi].empty())
            continue;
        float *v = params[pi]->value.data();
        for (size_t i = 0;
             i < masks_[pi].size() && removed < to_remove; ++i) {
            if (masks_[pi][i] && std::fabs(v[i]) <= threshold) {
                masks_[pi][i] = 0;
                v[i] = 0.0f;
                ++removed;
            }
        }
    }
    aliveCount_ -= removed;
    ++pruneEvents_;
}

void
GradualMagnitudePruningOptimizer::step(
    const std::vector<nn::Param *> &params)
{
    if (!initialized_)
        capture(params);
    PROCRUSTES_ASSERT(masks_.size() == params.size(),
                      "parameter set changed between steps");

    for (size_t pi = 0; pi < params.size(); ++pi) {
        nn::Param *p = params[pi];
        float *v = p->value.data();
        const float *g = p->grad.data();
        const int64_t n = p->value.numel();
        if (masks_[pi].empty()) {
            for (int64_t i = 0; i < n; ++i)
                v[i] -= cfg_.lr * g[i];
            continue;
        }
        for (int64_t i = 0; i < n; ++i) {
            if (masks_[pi][static_cast<size_t>(i)])
                v[i] -= cfg_.lr * g[i];
            // Pruned positions stay exactly zero.
        }
    }

    ++iteration_;
    densityIntegral_ += currentDensity();
    if (iteration_ >= cfg_.warmupIterations &&
        (iteration_ - cfg_.warmupIterations) % cfg_.pruneInterval == 0) {
        pruneStep(params);
    }
}

void
GradualMagnitudePruningOptimizer::serializeState(ByteWriter &w) const
{
    Optimizer::serializeState(w);
    w.writeU8(initialized_ ? 1 : 0);
    w.writeI64(prunableCount_);
    w.writeI64(aliveCount_);
    w.writeF64(densityIntegral_);
    w.writeI64(pruneEvents_);
    w.writeU32(static_cast<uint32_t>(masks_.size()));
    for (const std::vector<uint8_t> &m : masks_) {
        w.writeU64(m.size());
        if (!m.empty())
            w.writeBytes(m.data(), m.size());
    }
}

void
GradualMagnitudePruningOptimizer::restoreState(ByteReader &r)
{
    Optimizer::restoreState(r);
    initialized_ = r.readBool();
    prunableCount_ = r.readI64();
    aliveCount_ = r.readI64();
    densityIntegral_ = r.readF64();
    const int64_t events = r.readI64();
    if (events < INT_MIN || events > INT_MAX)
        FATAL("checkpoint corrupt: prune event count out of range");
    pruneEvents_ = static_cast<int>(events);
    const uint32_t count = r.readU32();
    masks_.clear();
    for (uint32_t i = 0; i < count; ++i) {
        const uint64_t n = r.readU64();
        r.requireFits(n, 1);
        std::vector<uint8_t> m(static_cast<size_t>(n));
        if (n)
            r.readBytes(m.data(), m.size());
        masks_.push_back(std::move(m));
    }
}

double
GradualMagnitudePruningOptimizer::currentDensity() const
{
    return prunableCount_
               ? static_cast<double>(aliveCount_) /
                     static_cast<double>(prunableCount_)
               : 1.0;
}

double
GradualMagnitudePruningOptimizer::averageDensity() const
{
    return iteration_ ? densityIntegral_ /
                            static_cast<double>(iteration_)
                      : 1.0;
}

} // namespace sparse
} // namespace procrustes
