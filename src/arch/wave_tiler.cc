#include "arch/wave_tiler.h"

#include "common/logging.h"
#include "common/math_utils.h"

namespace procrustes {
namespace arch {

int64_t
weightTileChunk(const ArrayConfig &cfg, const LayerShape &layer,
                int64_t ext, int64_t array_dim)
{
    const int64_t rf_weight_words = (cfg.rfBytesPerPe / 4) * 3 / 4;
    const int64_t by_rf =
        std::max<int64_t>(1, rf_weight_words / (layer.R * layer.S));
    const int64_t by_need = ceilDiv(ext, array_dim);
    return std::min(by_rf, by_need);
}

WaveTiler::WaveTiler(const ArrayConfig &cfg, const LayerShape &layer,
                     Phase phase, MappingKind mapping, int64_t batch,
                     bool structured)
    : dims_(spatialDims(mapping)),
      ext_{dimExtent(layer, dims_[0], batch),
           dimExtent(layer, dims_[1], batch)},
      rows_(cfg.rows),
      cols_(cfg.cols),
      sparse_(sparseOperand(phase)),
      halfTileOk_(supportsCheapBalancing(phase, mapping))
{
    const double dense_macs =
        static_cast<double>(batch) *
        static_cast<double>(layer.macsPerSample());
    perIndex_ = dense_macs / static_cast<double>(ext_[0] * ext_[1]);

    const bool dep0 = dependsOn(sparse_, dims_[0]);
    const bool dep1 = dependsOn(sparse_, dims_[1]);
    if (!structured || (!dep0 && !dep1)) {
        shape_ = SlotShape::Uniform;
    } else if (dep0 != dep1) {
        shape_ = SlotShape::Slice;
        sliceAxis_ = dep0 ? 0 : 1;
    } else {
        shape_ = SlotShape::Pair;
        // Weight-stationary tiling: each PE holds an RF-bounded chunk
        // of kernels along the second dim and streams activations over
        // it. Chunked granularity is what keeps the Figure 5 overheads
        // in the tens of percent rather than multiples.
        if (sparse_ == Operand::Weights)
            chunk_ = weightTileChunk(cfg, layer, ext_[1], cols_);
    }
}

int64_t
WaveTiler::waveCount() const
{
    return ceilDiv(ext_[0], rows_) * ceilDiv(ext_[1], cols_ * chunk_);
}

double
ProfileSlotWork::uniform(Operand sp) const
{
    return sp == Operand::Weights ? profile.weightDensity()
                                  : profile.iactDensity();
}

double
ProfileSlotWork::slice(Operand sp, Dim d, int64_t idx) const
{
    if (sp == Operand::Weights) {
        if (d == Dim::K)
            return profile.kDensity(idx);
        if (d == Dim::C)
            return profile.cDensity(idx);
        PANIC("weights sliced along a non-weight dim");
    }
    if (d == Dim::N)
        return profile.iactSampleDensity(idx);
    if (d == Dim::C)
        return profile.iactChannelDensity(idx);
    PANIC("iacts sliced along an unsupported dim");
}

TileHalves
ProfileSlotWork::halves(Operand sp, Dim d, int64_t idx) const
{
    if (sp == Operand::Weights) {
        if (d == Dim::K)
            return {profile.kHalfDensity(idx, 0),
                    profile.kHalfDensity(idx, 1)};
        if (d == Dim::C)
            return {profile.cHalfDensity(idx, 0),
                    profile.cHalfDensity(idx, 1)};
        PANIC("weights sliced along a non-weight dim");
    }
    if (d == Dim::N)
        return {profile.iactSampleHalfDensity(idx, 0),
                profile.iactSampleHalfDensity(idx, 1)};
    if (d == Dim::C)
        return {profile.iactChannelHalfDensity(idx, 0),
                profile.iactChannelHalfDensity(idx, 1)};
    PANIC("iacts sliced along an unsupported dim");
}

double
ProfileSlotWork::pair(Operand sp, Dim d0, int64_t i0, Dim d1,
                      int64_t i1) const
{
    if (sp == Operand::Weights) {
        // Only the C,K pairing can index weights in both dims.
        const int64_t k = d0 == Dim::K ? i0 : i1;
        const int64_t c = d0 == Dim::K ? i1 : i0;
        return profile.kernelDensity(k, c);
    }
    if ((d0 == Dim::P && d1 == Dim::Q) || (d0 == Dim::Q && d1 == Dim::P)) {
        // Keep (p, q) order: the measured spatial marginals are not
        // symmetric under index swap.
        const int64_t p = d0 == Dim::P ? i0 : i1;
        const int64_t q = d0 == Dim::P ? i1 : i0;
        return profile.iactSpatialDensity(p, q);
    }
    if (d0 == Dim::C && d1 == Dim::N)
        return profile.iactSampleChannelDensity(i1, i0);
    if (d0 == Dim::N && d1 == Dim::C)
        return profile.iactSampleChannelDensity(i0, i1);
    PANIC("iacts paired along an unsupported dim pair");
}

} // namespace arch
} // namespace procrustes
