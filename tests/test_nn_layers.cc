/**
 * @file
 * Unit tests for the NN layers' forward semantics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"

namespace procrustes {
namespace nn {
namespace {

TEST(Conv2d, OutputShape)
{
    Conv2dConfig cfg;
    cfg.inChannels = 3;
    cfg.outChannels = 8;
    cfg.kernel = 3;
    cfg.pad = 1;
    Conv2d conv(cfg, "c");
    Tensor x(Shape{2, 3, 8, 8});
    const Tensor y = conv.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({2, 8, 8, 8}));
}

TEST(Conv2d, StrideShrinksOutput)
{
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 1;
    cfg.kernel = 3;
    cfg.pad = 1;
    cfg.stride = 2;
    Conv2d conv(cfg, "c");
    Tensor x(Shape{1, 1, 8, 8});
    EXPECT_EQ(conv.forward(x, true).shape(), Shape({1, 1, 4, 4}));
}

TEST(Conv2d, IdentityKernelPassesThrough)
{
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 1;
    cfg.kernel = 3;
    cfg.pad = 1;
    cfg.bias = false;
    Conv2d conv(cfg, "c");
    conv.weight().value(0, 0, 1, 1) = 1.0f;   // centre tap only

    Xorshift128Plus rng(5);
    Tensor x(Shape{1, 1, 5, 5});
    x.fillGaussian(rng, 1.0f);
    const Tensor y = conv.forward(x, true);
    EXPECT_LT(maxAbsDiff(x, y), 1e-6f);
}

TEST(Conv2d, KnownValueConvolution)
{
    // 2x2 input, 2x2 kernel of ones, no padding -> single output
    // equal to the input sum.
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 1;
    cfg.kernel = 2;
    cfg.pad = 0;
    cfg.bias = false;
    Conv2d conv(cfg, "c");
    conv.weight().value.fill(1.0f);
    Tensor x(Shape{1, 1, 2, 2});
    x(0, 0, 0, 0) = 1.0f;
    x(0, 0, 0, 1) = 2.0f;
    x(0, 0, 1, 0) = 3.0f;
    x(0, 0, 1, 1) = 4.0f;
    const Tensor y = conv.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 10.0f);
}

TEST(Conv2d, BiasAddsPerChannel)
{
    Conv2dConfig cfg;
    cfg.inChannels = 1;
    cfg.outChannels = 2;
    cfg.kernel = 1;
    cfg.pad = 0;
    Conv2d conv(cfg, "c");
    conv.bias().value.at(0) = 1.5f;
    conv.bias().value.at(1) = -2.0f;
    Tensor x(Shape{1, 1, 2, 2});
    const Tensor y = conv.forward(x, true);
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 1.5f);
    EXPECT_FLOAT_EQ(y(0, 1, 0, 0), -2.0f);
}

TEST(Linear, MatVecSemantics)
{
    Linear fc(3, 2, "fc");
    // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5]
    for (int o = 0; o < 2; ++o) {
        for (int i = 0; i < 3; ++i)
            fc.weight().value(o, i) = static_cast<float>(o * 3 + i + 1);
    }
    fc.bias().value.at(0) = 0.5f;
    fc.bias().value.at(1) = -0.5f;
    Tensor x(Shape{1, 3});
    x(0, 0) = 1.0f;
    x(0, 1) = 1.0f;
    x(0, 2) = 1.0f;
    const Tensor y = fc.forward(x, true);
    EXPECT_FLOAT_EQ(y(0, 0), 6.5f);
    EXPECT_FLOAT_EQ(y(0, 1), 14.5f);
}

TEST(ReLU, ClampsAndTracksSparsity)
{
    ReLU relu("r");
    Tensor x(Shape{1, 1, 2, 2});
    x(0, 0, 0, 0) = -1.0f;
    x(0, 0, 0, 1) = 2.0f;
    x(0, 0, 1, 0) = 0.0f;
    x(0, 0, 1, 1) = -3.0f;
    const Tensor y = relu.forward(x, true);
    EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 2.0f);
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 0.0f);
    EXPECT_DOUBLE_EQ(relu.lastOutputSparsity(), 0.75);
}

TEST(ReLU, NegativeZeroAndNanGivePositiveZero)
{
    // Every non-positive input, -0 and NaN included, maps to +0 with a
    // zero mask; the output bits, not just the values, are fixed.
    ReLU relu("r");
    Tensor x(Shape{1, 1, 1, 5});
    x(0, 0, 0, 0) = -0.0f;
    x(0, 0, 0, 1) = std::nanf("");
    x(0, 0, 0, 2) = -std::nanf("");
    x(0, 0, 0, 3) = 0.5f;
    x(0, 0, 0, 4) = -2.0f;
    const Tensor y = relu.forward(x, true);
    for (int i : {0, 1, 2, 4}) {
        EXPECT_EQ(y(0, 0, 0, i), 0.0f);
        EXPECT_FALSE(std::signbit(y(0, 0, 0, i))) << i;
    }
    EXPECT_EQ(y(0, 0, 0, 3), 0.5f);
    EXPECT_DOUBLE_EQ(relu.lastOutputSparsity(), 0.8);
    Tensor dy(Shape{1, 1, 1, 5});
    dy.fill(1.0f);
    const Tensor dx = relu.backward(dy);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(dx(0, 0, 0, i), i == 3 ? 1.0f : 0.0f) << i;
}

TEST(ReLU, VectorBodyAndTailMatchScalarRule)
{
    // Lengths around the 8-wide vector body: every element, in the body
    // or the scalar tail, keeps its exact bits when positive and gives
    // +0 with a zero mask otherwise (-0, NaN, denormals and infinities
    // included), and the sparsity counts both parts.
    const float specials[] = {-0.0f,      0.0f,
                              std::nanf(""), -std::nanf(""),
                              1e-45f,     -1e-45f,
                              INFINITY,   -INFINITY,
                              0.25f,      -3.0f};
    Xorshift128Plus rng(61);
    for (int64_t n = 1; n <= 37; ++n) {
        Tensor x(Shape{1, 1, 1, n});
        for (int64_t i = 0; i < n; ++i) {
            x.at(i) = (i % 3 == 0)
                          ? specials[rng.nextBounded(std::size(specials))]
                          : static_cast<float>(rng.nextGaussian());
        }
        ReLU relu("r");
        const Tensor y = relu.forward(x, true);
        Tensor dy(x.shape());
        dy.fill(1.0f);
        const Tensor mask = relu.backward(dy);
        int64_t zeros = 0;
        for (int64_t i = 0; i < n; ++i) {
            const float v = x.at(i);
            const float got = y.at(i);
            const float want = v > 0.0f ? v : 0.0f;
            EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
                << "n=" << n << " i=" << i;
            EXPECT_EQ(mask.at(i), v > 0.0f ? 1.0f : 0.0f)
                << "n=" << n << " i=" << i;
            zeros += v > 0.0f ? 0 : 1;
        }
        EXPECT_DOUBLE_EQ(relu.lastOutputSparsity(),
                         static_cast<double>(zeros) /
                             static_cast<double>(n))
            << "n=" << n;
    }
}

TEST(ReLU, BackwardMasksGradient)
{
    ReLU relu("r");
    Tensor x(Shape{1, 1, 1, 2});
    x(0, 0, 0, 0) = -1.0f;
    x(0, 0, 0, 1) = 1.0f;
    relu.forward(x, true);
    Tensor dy(Shape{1, 1, 1, 2});
    dy.fill(3.0f);
    const Tensor dx = relu.backward(dy);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 1), 3.0f);
}

TEST(BatchNorm, NormalizesTrainingBatch)
{
    BatchNorm2d bn(2, "bn");
    Xorshift128Plus rng(9);
    Tensor x(Shape{8, 2, 4, 4});
    x.fillGaussian(rng, 3.0f);
    const Tensor y = bn.forward(x, /*training=*/true);

    // Per-channel mean ~0 and variance ~1 after normalization.
    for (int c = 0; c < 2; ++c) {
        double sum = 0.0;
        double sq = 0.0;
        int64_t count = 0;
        for (int n = 0; n < 8; ++n) {
            for (int h = 0; h < 4; ++h) {
                for (int w = 0; w < 4; ++w) {
                    const double v = y(n, c, h, w);
                    sum += v;
                    sq += v * v;
                    ++count;
                }
            }
        }
        EXPECT_NEAR(sum / count, 0.0, 1e-4);
        EXPECT_NEAR(sq / count, 1.0, 1e-2);
    }
}

TEST(BatchNorm, EvalUsesRunningStats)
{
    BatchNorm2d bn(1, "bn");
    Tensor x(Shape{4, 1, 2, 2});
    x.fill(10.0f);
    // Before any training step, running mean 0 / var 1: eval output
    // equals the input (gamma=1, beta=0).
    const Tensor y = bn.forward(x, /*training=*/false);
    EXPECT_NEAR(y(0, 0, 0, 0), 10.0f, 1e-3f);
}

TEST(MaxPool, SelectsMaxAndRoutesGradient)
{
    MaxPool2d pool(2, "p");
    Tensor x(Shape{1, 1, 2, 2});
    x(0, 0, 0, 0) = 1.0f;
    x(0, 0, 0, 1) = 5.0f;
    x(0, 0, 1, 0) = -2.0f;
    x(0, 0, 1, 1) = 0.5f;
    const Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 5.0f);

    Tensor dy(Shape{1, 1, 1, 1});
    dy.fill(2.0f);
    const Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 1), 2.0f);
    EXPECT_FLOAT_EQ(dx(0, 0, 0, 0), 0.0f);
}

TEST(GlobalAvgPool, AveragesPlane)
{
    GlobalAvgPool gap("g");
    Tensor x(Shape{1, 2, 2, 2});
    for (int i = 0; i < 4; ++i)
        x.at(i) = static_cast<float>(i + 1);   // channel 0: 1..4
    x.at(4) = 8.0f;                            // channel 1: 8,0,0,0
    const Tensor y = gap.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({1, 2}));
    EXPECT_FLOAT_EQ(y(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(y(0, 1), 2.0f);
}

TEST(Flatten, RoundTrip)
{
    Flatten fl("f");
    Tensor x(Shape{2, 3, 4, 4});
    x(1, 2, 3, 3) = 9.0f;
    const Tensor y = fl.forward(x, true);
    EXPECT_EQ(y.shape(), Shape({2, 48}));
    EXPECT_FLOAT_EQ(y(1, 47), 9.0f);
    const Tensor dx = fl.backward(y);
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC)
{
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{2, 4});
    const double l = loss.forward(logits, {0, 3});
    EXPECT_NEAR(l, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZero)
{
    SoftmaxCrossEntropy loss;
    Xorshift128Plus rng(2);
    Tensor logits(Shape{3, 5});
    logits.fillGaussian(rng, 1.0f);
    loss.forward(logits, {1, 2, 4});
    const Tensor g = loss.backward();
    // Softmax-CE gradient rows sum to zero.
    for (int n = 0; n < 3; ++n) {
        double row = 0.0;
        for (int j = 0; j < 5; ++j)
            row += g(n, j);
        EXPECT_NEAR(row, 0.0, 1e-6);
    }
}

TEST(SoftmaxCrossEntropy, AccuracyTracksArgmax)
{
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{2, 3});
    logits(0, 1) = 5.0f;   // predicts class 1
    logits(1, 0) = 5.0f;   // predicts class 0
    loss.forward(logits, {1, 2});
    EXPECT_DOUBLE_EQ(loss.accuracy(), 0.5);
}

} // namespace
} // namespace nn
} // namespace procrustes
