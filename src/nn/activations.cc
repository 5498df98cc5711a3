#include "nn/activations.h"

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
    int64_t zeros = 0;
    // Branchless: every element is written, so the loop vectorizes.
    // Non-positive inputs (-0 and NaN included) give +0, as before.
    for (int64_t i = 0; i < n; ++i) {
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
