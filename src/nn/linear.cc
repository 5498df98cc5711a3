#include "nn/linear.h"

#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "kernels/gemm.h"
#include "sparse/sparse_linear.h"

namespace procrustes {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features,
               const std::string &layer_name, bool with_bias)
    : inFeatures_(in_features),
      outFeatures_(out_features),
      hasBias_(with_bias),
      name_(layer_name),
      backend_(kernels::defaultKernelBackend())
{
    PROCRUSTES_ASSERT(in_features > 0 && out_features > 0,
                      "linear features must be positive");
    weight_.init(Shape{out_features, in_features}, name_ + ".weight",
                 /*can_prune=*/true);
    if (hasBias_) {
        bias_.init(Shape{out_features}, name_ + ".bias",
                   /*can_prune=*/false);
    }
}

std::vector<Param *>
Linear::params()
{
    std::vector<Param *> out{&weight_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

Tensor
Linear::forward(const Tensor &x, bool)
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 2 && xs[1] == inFeatures_,
                      "linear input must be [N, in_features]");
    cachedInput_ = x;
    backwardSeen_ = false;
    Tensor y;
    if (backend_ == kernels::KernelBackend::kNaive)
        y = forwardNaive(x);
    else if (backend_ == kernels::KernelBackend::kSparse)
        y = forwardSparse(x);
    else
        y = forwardGemm(x);
    cachedOutput_ = y;   // COW alias for lazy density telemetry
    return y;
}

Tensor
Linear::backward(const Tensor &dy)
{
    const Shape &xs = cachedInput_.shape();
    PROCRUSTES_ASSERT(xs.rank() == 2, "backward before forward");
    PROCRUSTES_ASSERT(dy.shape() == Shape({xs[0], outFeatures_}),
                      "dy shape mismatch in linear backward");
    backwardSeen_ = true;
    if (backend_ == kernels::KernelBackend::kNaive)
        return backwardNaive(dy);
    if (backend_ == kernels::KernelBackend::kSparse)
        return backwardSparse(dy);
    return backwardGemm(dy);
}

bool
Linear::stepReport(LayerStepReport *out) const
{
    if (cachedInput_.shape().rank() != 2)
        return false;
    const int64_t n = cachedInput_.shape()[0];
    out->layerName = name_;
    out->kind = LayerStepReport::Kind::Linear;
    out->batch = n;
    out->K = outFeatures_;
    out->C = inFeatures_;

    measureInputDensities(cachedInput_, out);
    out->outputDensity =
        cachedOutput_.numel() ? 1.0 - cachedOutput_.zeroFraction() : 1.0;

    out->hasMask = true;
    out->mask = sparse::SparsityMask::fromTensor(weight_.value);

    // Compressed footprint of the live weights (the CSB image the
    // accelerator would stream). Always encoded fresh — the report is
    // sampled after the optimizer update that closed the step, so the
    // bytes must describe the same post-update weights as the mask
    // above, not the forward-time cachedCsb_ (a prune event in the
    // update would make the two disagree). stepReport is telemetry-
    // only O(numel) work, so the extra encode is acceptable.
    out->hasWeightBytes = true;
    out->csbWeightBytes =
        sparse::CsbTensor::encodeMatrix(weight_.value, kCsbBlockSide,
                                        storagePrecision_)
            .totalBytes();
    out->denseWeightBytes =
        sparse::CsbTensor::denseBytes(weight_.value.shape());

    out->hasMacs = backwardSeen_;
    if (!backwardSeen_)
        return true;
    if (backend_ == kernels::KernelBackend::kSparse && csbValid_) {
        // The fc executors' own tallies: weight-skip in fw, plus
        // dy-zero / activation-zero skipping in the backward phases.
        out->sparseExecuted = true;
        out->fwMacs = lastFwMacs_;
        out->bwDataMacs = lastBwDataMacs_;
        out->bwWeightMacs = lastBwWeightMacs_;
    } else {
        // Dense backends run the full [N, out, in] contraction in all
        // three phases.
        const int64_t dense = n * outFeatures_ * inFeatures_;
        out->fwMacs = dense;
        out->bwDataMacs = dense;
        out->bwWeightMacs = dense;
    }
    return true;
}

Tensor
Linear::forwardSparse(const Tensor &x)
{
    // Encode once per step: the weights cannot change between this
    // forward and the matching backward, so the backward passes reuse
    // the same compressed blocks (as the accelerator streams one CSB
    // image of the weights through all three phases). The tap views'
    // geometry (indices, offsets, permutation, weight-update aux) only
    // depends on the mask, so while the mask epoch holds across steps
    // only the packed values are refreshed — an O(nnz) copy instead of
    // the O(O*I) block walk.
    sparse::CsbTensor fresh = sparse::CsbTensor::encodeMatrix(
        weight_.value, kCsbBlockSide, storagePrecision_);
    const bool mask_same = csbValid_ && fresh.sameMaskAs(cachedCsb_);
    cachedCsb_ = std::move(fresh);
    if (mask_same)
        sparse::refreshFcTapValues(cachedCsb_, &cachedTaps_);
    else
        cachedTaps_ = sparse::gatherFcTapViews(cachedCsb_);
    csbValid_ = true;
    if (storagePrecision_ == Precision::kBf16)
        cachedInput_ = bf16RoundedCopy(x);
    Tensor y = sparse::sparseLinearForward(cachedInput_, cachedCsb_,
                                           &lastFwMacs_, &cachedTaps_);
    if (hasBias_)
        addBias(&y);
    return y;
}

Tensor
Linear::backwardSparse(const Tensor &dy)
{
    PROCRUSTES_ASSERT(csbValid_, "sparse backward before sparse forward");
    Tensor dx = sparse::sparseLinearBackwardData(
        dy, cachedCsb_, &lastBwDataMacs_, &cachedTaps_);
    // Weight-update pass through the same CSB blocks: only mask-live
    // positions accumulate gradient, pruned weights stay frozen.
    sparse::sparseLinearBackwardWeights(cachedInput_, dy, cachedCsb_,
                                        &weight_.grad,
                                        &lastBwWeightMacs_,
                                        &cachedTaps_);
    if (hasBias_)
        accumulateBiasGrad(dy);
    return dx;
}

void
Linear::addBias(Tensor *y) const
{
    const int64_t n = y->shape()[0];
    const float *pb = std::as_const(bias_.value).data();
    float *py = y->data();
    for (int64_t in = 0; in < n; ++in) {
        float *row = py + in * outFeatures_;
        for (int64_t o = 0; o < outFeatures_; ++o)
            row[o] += pb[o];
    }
}

void
Linear::accumulateBiasGrad(const Tensor &dy)
{
    const int64_t n = dy.shape()[0];
    const float *pdy = dy.data();
    float *pdb = bias_.grad.data();
    for (int64_t o = 0; o < outFeatures_; ++o) {
        float acc = 0.0f;
        for (int64_t in = 0; in < n; ++in)
            acc += pdy[in * outFeatures_ + o];
        pdb[o] += acc;
    }
}

Tensor
Linear::forwardGemm(const Tensor &x)
{
    const int64_t n = x.shape()[0];
    Tensor y(Shape{n, outFeatures_});

    // y = x * W^T: the GEMM packs W^T straight from W (const reads
    // avoid COW detaches).
    kernels::gemm(kernels::Trans::kNo, kernels::Trans::kYes, n,
                  outFeatures_, inFeatures_, x.data(), inFeatures_,
                  std::as_const(weight_.value).data(), inFeatures_,
                  y.data(), outFeatures_, /*accumulate=*/false,
                  &ThreadPool::global());

    if (hasBias_)
        addBias(&y);
    return y;
}

Tensor
Linear::backwardGemm(const Tensor &dy)
{
    const int64_t n = cachedInput_.shape()[0];
    Tensor dx(cachedInput_.shape());

    // dx = dy * W (both already in the right layout).
    kernels::gemm(n, inFeatures_, outFeatures_, dy.data(),
                  std::as_const(weight_.value).data(), dx.data(),
                  /*accumulate=*/false);

    // dW += dy^T * x. The cached input is read through a const view so
    // the COW alias never detaches into a deep copy here.
    kernels::gemm(kernels::Trans::kYes, kernels::Trans::kNo, outFeatures_,
                  inFeatures_, n, dy.data(), outFeatures_,
                  std::as_const(cachedInput_).data(), inFeatures_,
                  weight_.grad.data(), inFeatures_, /*accumulate=*/true,
                  &ThreadPool::global());

    if (hasBias_)
        accumulateBiasGrad(dy);
    return dx;
}

Tensor
Linear::forwardNaive(const Tensor &x)
{
    const int64_t n = x.shape()[0];
    Tensor y(Shape{n, outFeatures_});
    const float *px = x.data();
    const float *pw = std::as_const(weight_.value).data();
    const float *pb =
        hasBias_ ? std::as_const(bias_.value).data() : nullptr;
    float *py = y.data();
    for (int64_t in = 0; in < n; ++in) {
        const float *xr = px + in * inFeatures_;
        for (int64_t o = 0; o < outFeatures_; ++o) {
            const float *wr = pw + o * inFeatures_;
            float acc = pb ? pb[o] : 0.0f;
            for (int64_t i = 0; i < inFeatures_; ++i)
                acc += xr[i] * wr[i];
            py[in * outFeatures_ + o] = acc;
        }
    }
    return y;
}

Tensor
Linear::backwardNaive(const Tensor &dy)
{
    const Shape &xs = cachedInput_.shape();
    const int64_t n = xs[0];

    Tensor dx(xs);
    const float *px = std::as_const(cachedInput_).data();
    const float *pw = std::as_const(weight_.value).data();
    const float *pdy = dy.data();
    float *pdx = dx.data();
    float *pdw = weight_.grad.data();
    float *pdb = hasBias_ ? bias_.grad.data() : nullptr;

    for (int64_t in = 0; in < n; ++in) {
        const float *xr = px + in * inFeatures_;
        float *dxr = pdx + in * inFeatures_;
        for (int64_t o = 0; o < outFeatures_; ++o) {
            const float g = pdy[in * outFeatures_ + o];
            if (g == 0.0f)
                continue;
            const float *wr = pw + o * inFeatures_;
            float *dwr = pdw + o * inFeatures_;
            for (int64_t i = 0; i < inFeatures_; ++i) {
                dwr[i] += g * xr[i];
                dxr[i] += g * wr[i];
            }
            if (pdb)
                pdb[o] += g;
        }
    }
    return dx;
}

} // namespace nn
} // namespace procrustes
