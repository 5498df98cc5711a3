#include "nn/network.h"

#include <cmath>

#include "common/rng.h"

namespace procrustes {
namespace nn {

Tensor
Network::forward(const Tensor &x, bool training)
{
    Tensor cur = x;
    for (auto &layer : layers_)
        cur = layer->forward(cur, training);
    return cur;
}

Tensor
Network::backward(const Tensor &dy)
{
    Tensor cur = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        cur = (*it)->backward(cur);
    return cur;
}

std::vector<Param *>
Network::params()
{
    std::vector<Param *> out;
    for (auto &layer : layers_) {
        for (Param *p : layer->params())
            out.push_back(p);
    }
    return out;
}

void
Network::zeroGrad()
{
    for (Param *p : params())
        p->grad.zero();
}

void
kaimingInit(Network &net, Xorshift128Plus &rng)
{
    for (Param *p : net.params()) {
        if (!p->prunable)
            continue;
        const Shape &s = p->value.shape();
        // fan_in: C*R*S for conv [K,C,R,S]; in_features for fc
        // [out, in].
        int64_t fan_in = 1;
        for (int i = 1; i < s.rank(); ++i)
            fan_in *= s[i];
        const float std =
            std::sqrt(2.0f / static_cast<float>(fan_in));
        p->value.fillGaussian(rng, std);
    }
}

} // namespace nn
} // namespace procrustes
