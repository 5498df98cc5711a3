#include "nn/batchnorm.h"

#include <cmath>

namespace procrustes {
namespace nn {

BatchNorm2d::BatchNorm2d(int64_t channels, const std::string &layer_name,
                         float momentum, float eps)
    : channels_(channels),
      name_(layer_name),
      momentum_(momentum),
      eps_(eps)
{
    PROCRUSTES_ASSERT(channels > 0, "batchnorm channels must be positive");
    gamma_.init(Shape{channels}, name_ + ".gamma", /*can_prune=*/false);
    beta_.init(Shape{channels}, name_ + ".beta", /*can_prune=*/false);
    gamma_.value.fill(1.0f);
    runningMean_ = Tensor(Shape{channels});
    runningVar_ = Tensor(Shape{channels});
    runningVar_.fill(1.0f);
}

std::vector<Param *>
BatchNorm2d::params()
{
    return {&gamma_, &beta_};
}

void
BatchNorm2d::serializeState(ByteWriter &w) const
{
    w.writeTensor(runningMean_);
    w.writeTensor(runningVar_);
}

void
BatchNorm2d::restoreState(ByteReader &r)
{
    Tensor mean = r.readTensor();
    Tensor var = r.readTensor();
    if (mean.numel() != channels_ || var.numel() != channels_)
        FATAL("checkpoint/network mismatch: batchnorm running-stat "
              "shape differs");
    runningMean_ = std::move(mean);
    runningVar_ = std::move(var);
}

Tensor
BatchNorm2d::forward(const Tensor &x, bool training)
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 4 && xs[1] == channels_,
                      "batchnorm expects NCHW with matching channels");
    const int64_t n = xs[0];
    const int64_t c = xs[1];
    const int64_t hw = xs[2] * xs[3];
    const int64_t count = n * hw;

    Tensor y(xs);
    cachedXhat_ = Tensor(xs);
    cachedInvStd_.assign(static_cast<size_t>(c), 0.0f);
    cachedCount_ = count;

    const float *px = x.data();
    float *py = y.data();
    float *pxh = cachedXhat_.data();

    for (int64_t ic = 0; ic < c; ++ic) {
        float m;
        float v;
        if (training) {
            double sum = 0.0;
            for (int64_t in = 0; in < n; ++in) {
                const float *row = px + (in * c + ic) * hw;
                for (int64_t i = 0; i < hw; ++i)
                    sum += row[i];
            }
            m = static_cast<float>(sum / static_cast<double>(count));
            double var = 0.0;
            for (int64_t in = 0; in < n; ++in) {
                const float *row = px + (in * c + ic) * hw;
                for (int64_t i = 0; i < hw; ++i) {
                    const double d = row[i] - m;
                    var += d * d;
                }
            }
            v = static_cast<float>(var / static_cast<double>(count));
            runningMean_.data()[ic] =
                (1.0f - momentum_) * runningMean_.data()[ic] +
                momentum_ * m;
            runningVar_.data()[ic] =
                (1.0f - momentum_) * runningVar_.data()[ic] +
                momentum_ * v;
        } else {
            m = runningMean_.data()[ic];
            v = runningVar_.data()[ic];
        }
        const float inv_std = 1.0f / std::sqrt(v + eps_);
        cachedInvStd_[static_cast<size_t>(ic)] = inv_std;
        const float g = gamma_.value.data()[ic];
        const float b = beta_.value.data()[ic];
        for (int64_t in = 0; in < n; ++in) {
            const float *row = px + (in * c + ic) * hw;
            float *yrow = py + (in * c + ic) * hw;
            float *xhrow = pxh + (in * c + ic) * hw;
            for (int64_t i = 0; i < hw; ++i) {
                const float xh = (row[i] - m) * inv_std;
                xhrow[i] = xh;
                yrow[i] = g * xh + b;
            }
        }
    }
    return y;
}

Tensor
BatchNorm2d::backward(const Tensor &dy)
{
    const Shape &xs = cachedXhat_.shape();
    PROCRUSTES_ASSERT(dy.shape() == xs, "dy shape mismatch in bn backward");
    const int64_t n = xs[0];
    const int64_t c = xs[1];
    const int64_t hw = xs[2] * xs[3];
    const auto count = static_cast<float>(cachedCount_);

    Tensor dx(xs);
    const float *pdy = dy.data();
    const float *pxh = cachedXhat_.data();
    float *pdx = dx.data();

    for (int64_t ic = 0; ic < c; ++ic) {
        // Accumulate dL/dgamma, dL/dbeta, and the two reduction terms
        // of the standard batch-norm input gradient.
        double sum_dy = 0.0;
        double sum_dy_xhat = 0.0;
        for (int64_t in = 0; in < n; ++in) {
            const float *dyr = pdy + (in * c + ic) * hw;
            const float *xhr = pxh + (in * c + ic) * hw;
            for (int64_t i = 0; i < hw; ++i) {
                sum_dy += dyr[i];
                sum_dy_xhat += dyr[i] * xhr[i];
            }
        }
        gamma_.grad.data()[ic] += static_cast<float>(sum_dy_xhat);
        beta_.grad.data()[ic] += static_cast<float>(sum_dy);

        const float g = gamma_.value.data()[ic];
        const float inv_std = cachedInvStd_[static_cast<size_t>(ic)];
        const auto mean_dy = static_cast<float>(
            sum_dy / static_cast<double>(count));
        const auto mean_dy_xhat = static_cast<float>(
            sum_dy_xhat / static_cast<double>(count));
        for (int64_t in = 0; in < n; ++in) {
            const float *dyr = pdy + (in * c + ic) * hw;
            const float *xhr = pxh + (in * c + ic) * hw;
            float *dxr = pdx + (in * c + ic) * hw;
            for (int64_t i = 0; i < hw; ++i) {
                dxr[i] = g * inv_std *
                         (dyr[i] - mean_dy - xhr[i] * mean_dy_xhat);
            }
        }
    }
    return dx;
}

} // namespace nn
} // namespace procrustes
