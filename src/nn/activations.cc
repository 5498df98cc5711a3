#include "nn/activations.h"

#include "common/vec8.h"

namespace procrustes {
namespace nn {

Tensor
ReLU::forward(const Tensor &x, bool)
{
    Tensor y(x.shape());
    mask_ = Tensor(x.shape());
    const float *px = x.data();
    float *py = y.data();
    float *pm = mask_.data();
    const int64_t n = x.numel();
    // Branchless and written over Vec8, so it is vectorized at -O2.
    // Non-positive inputs (-0 and NaN included) give +0.
    const Vec8 zero = {};
    const Vec8 one = zero + 1.0f;
    Vec8i live = {};   // per lane: minus the count of positive inputs
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        Vec8 v;
        load8(v, px + i);
        const Vec8i pos = v > zero;   // all-ones where positive
        store8(py + i, pos ? v : zero);
        store8(pm + i, pos ? one : zero);
        live += pos;
    }
    int64_t zeros = i;
    for (int lane = 0; lane < 8; ++lane)
        zeros += live[lane];
    for (; i < n; ++i) {
        const bool pos = px[i] > 0.0f;
        py[i] = pos ? px[i] : 0.0f;
        pm[i] = pos ? 1.0f : 0.0f;
        zeros += pos ? 0 : 1;
    }
    lastSparsity_ = n ? static_cast<double>(zeros) /
                            static_cast<double>(n)
                      : 0.0;
    return y;
}

bool
ReLU::stepReport(LayerStepReport *out) const
{
    if (mask_.numel() == 0)
        return false;
    out->layerName = name_;
    out->kind = LayerStepReport::Kind::Activation;
    out->batch = mask_.shape().rank() > 0 ? mask_.shape()[0] : 0;
    out->outputDensity = 1.0 - lastSparsity_;
    return true;
}

Tensor
ReLU::backward(const Tensor &dy)
{
    PROCRUSTES_ASSERT(dy.shape() == mask_.shape(),
                      "dy shape mismatch in relu backward");
    Tensor dx(dy.shape());
    const float *pdy = dy.data();
    const float *pm = mask_.data();
    float *pdx = dx.data();
    const int64_t n = dy.numel();
    for (int64_t i = 0; i < n; ++i)
        pdx[i] = pdy[i] * pm[i];
    return dx;
}

} // namespace nn
} // namespace procrustes
