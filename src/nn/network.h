/**
 * @file
 * Sequential network container and weight-initialization helpers.
 */

#ifndef PROCRUSTES_NN_NETWORK_H_
#define PROCRUSTES_NN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace procrustes {

class Xorshift128Plus;

namespace nn {

/** A simple sequential stack of layers. */
class Network
{
  public:
    Network() = default;

    /** Append a layer (takes ownership) and return a typed handle. */
    template <typename L, typename... Args>
    L *
    add(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L *raw = layer.get();
        layers_.push_back(std::move(layer));
        return raw;
    }

    /** Run all layers in order. */
    Tensor forward(const Tensor &x, bool training);

    /** Back-propagate through all layers in reverse order. */
    Tensor backward(const Tensor &dy);

    /** All trainable parameters, in layer order. */
    std::vector<Param *> params();

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** Number of layers. */
    size_t size() const { return layers_.size(); }

    /** Access a layer by position. */
    Layer *layer(size_t i) { return layers_.at(i).get(); }

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

/**
 * Kaiming-normal initialization (He et al., ICCV 2015) for every
 * prunable parameter: std = sqrt(2 / fan_in). This is one of the two
 * initialization formulae the WR unit's integer scaling supports
 * (Section V of the paper). Biases and batch-norm parameters are left
 * at their constructor defaults.
 */
void kaimingInit(Network &net, Xorshift128Plus &rng);

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_NETWORK_H_
