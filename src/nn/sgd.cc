#include "nn/sgd.h"

namespace procrustes {
namespace nn {

Sgd::Sgd(float lr, float momentum) : lr_(lr), momentum_(momentum)
{
    PROCRUSTES_ASSERT(lr > 0.0f, "learning rate must be positive");
    PROCRUSTES_ASSERT(momentum >= 0.0f && momentum < 1.0f,
                      "momentum out of range");
}

void
Sgd::step(const std::vector<Param *> &params)
{
    if (velocity_.empty() && momentum_ > 0.0f) {
        for (Param *p : params)
            velocity_.emplace_back(p->value.shape());
    }
    if (momentum_ > 0.0f) {
        PROCRUSTES_ASSERT(velocity_.size() == params.size(),
                          "parameter set changed between steps");
    }
    for (size_t pi = 0; pi < params.size(); ++pi) {
        Param *p = params[pi];
        float *v = p->value.data();
        const float *g = p->grad.data();
        const int64_t n = p->value.numel();
        if (momentum_ > 0.0f) {
            PROCRUSTES_ASSERT(velocity_[pi].numel() == n,
                              "parameter shape changed between steps");
            float *vel = velocity_[pi].data();
            if (p->prunable) {
                // Pruned positions hold an exact weight zero and get a
                // masked (zero) gradient. Stale velocity from before
                // the prune must not re-animate them: `v -= lr * vel`
                // would move the weight off exact zero, violating the
                // CSB mask/value invariant. Drop the velocity there.
                for (int64_t i = 0; i < n; ++i) {
                    if (v[i] == 0.0f && g[i] == 0.0f) {
                        vel[i] = 0.0f;
                        continue;
                    }
                    vel[i] = momentum_ * vel[i] + g[i];
                    v[i] -= lr_ * vel[i];
                }
            } else {
                for (int64_t i = 0; i < n; ++i) {
                    vel[i] = momentum_ * vel[i] + g[i];
                    v[i] -= lr_ * vel[i];
                }
            }
        } else {
            for (int64_t i = 0; i < n; ++i)
                v[i] -= lr_ * g[i];
        }
    }
    ++iteration_;
}

void
Sgd::serializeState(ByteWriter &w) const
{
    Optimizer::serializeState(w);
    // velocity_ is lazily sized on the first momentum step; a fresh
    // optimizer checkpointed before any step has none, and restore
    // must reproduce that exact lazy state.
    w.writeU8(velocity_.empty() ? 0 : 1);
    if (!velocity_.empty()) {
        w.writeU32(static_cast<uint32_t>(velocity_.size()));
        for (const Tensor &v : velocity_)
            w.writeTensor(v);
    }
}

void
Sgd::restoreState(ByteReader &r)
{
    Optimizer::restoreState(r);
    velocity_.clear();
    if (r.readBool()) {
        // No reserve: a corrupt count must fail on the first missing
        // tensor, not in the allocator.
        const uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i)
            velocity_.push_back(r.readTensor());
    }
}

} // namespace nn
} // namespace procrustes
