/**
 * @file
 * The wave tiler: how one (layer, phase) under one mapping is cut into
 * full-PE-array waves, and which slices of the sparse operand each PE
 * slot of a wave carries (Figure 4).
 *
 * The analytic cost model (CostModel::waveStats / computeLatency), the
 * imbalance replay (collectOverheads, measuredEpochImbalance) and the
 * cycle simulator's wave builder all walk a WaveTiler, so they cannot
 * tile differently. What a slot's work *is* comes from one place, a
 * LayerSparsityProfile, read through ProfileSlotWork (below) in
 * densities. Synthetic profiles and the measured profiles of a traced
 * epoch (LayerSparsityProfile::measured) answer through the same
 * interface, so a trace replay sees exactly the work the cost model
 * charges.
 *
 * Each consumer keeps its own per-slot arithmetic: the cost model and
 * the replay scale densities by the dense MACs per index (overheads are
 * ratios), and the simulator converts densities into MAC and word
 * demand.
 *
 * Slot shapes, by how many spatial dims the phase's sparse operand
 * depends on:
 *
 *  Uniform  neither (or a machine that does not skip zeros): every
 *           active PE of every wave carries the same work.
 *  Slice    exactly one: one slice of the operand per index along that
 *           dim, replicated across the other axis. Only this shape
 *           admits the half-tile balancer (supportsCheapBalancing).
 *  Pair     both: one (dims[0], dims[1]) cell per PE. When the sparse
 *           operand is the weights (C,K), each PE instead holds an
 *           RF-bounded chunk of kernels along dims[1] (weightTileChunk)
 *           and streams activations over it.
 */

#ifndef PROCRUSTES_ARCH_WAVE_TILER_H_
#define PROCRUSTES_ARCH_WAVE_TILER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "arch/arch_config.h"
#include "arch/dataflow.h"
#include "arch/load_balancer.h"
#include "arch/sparsity_profile.h"

namespace procrustes {
namespace arch {

/**
 * Kernels per work tile along the spatialized weight dimension:
 * bounded by half the register file (weight-stationary residency) and
 * never more than what one pass over the dimension requires. Single
 * kernels only when the dimension is small or kernels are large.
 */
int64_t weightTileChunk(const ArrayConfig &cfg, const LayerShape &layer,
                        int64_t ext, int64_t array_dim);

/** How the sparse operand's work varies over a wave's PE slots. */
enum class SlotShape
{
    Uniform,   //!< same work on every active PE
    Slice,     //!< one slice per index along the single sparse dim
    Pair,      //!< one cell (or kernel chunk) per PE
};

/** One full-PE-array wave: a block of the two spatial dims. */
struct Wave
{
    int64_t b0 = 0;   //!< first index along dims[0]
    int64_t n0 = 0;   //!< active PE rows
    int64_t b1 = 0;   //!< first index along dims[1]
    int64_t n1 = 0;   //!< active PE columns (see chunkCount)
};

/** Wave geometry of one (layer, phase, mapping) on one array. */
class WaveTiler
{
  public:
    /**
     * @param structured false for a machine whose per-PE work does not
     *        follow the sparse operand (the dense baseline, the ideal
     *        model of Figure 1): every wave is Uniform, nothing is
     *        chunked.
     */
    WaveTiler(const ArrayConfig &cfg, const LayerShape &layer, Phase phase,
              MappingKind mapping, int64_t batch, bool structured = true);

    SlotShape shape() const { return shape_; }
    Operand sparse() const { return sparse_; }
    const std::array<Dim, 2> &dims() const { return dims_; }
    int64_t extent(int axis) const { return ext_[axis]; }

    /** Dense MACs per (dims[0], dims[1]) index pair. */
    double perIndex() const { return perIndex_; }

    /** The half-tile gate: supportsCheapBalancing(phase, mapping). */
    bool halfTileOk() const { return halfTileOk_; }

    int64_t waveCount() const;

    /** Slice shape: the sparse axis and dim, and its slices within a
        wave (slice s sits in PE row s on axis 0, column s on axis 1). */
    int sliceAxis() const { return sliceAxis_; }
    Dim sliceDim() const { return dims_[sliceAxis_]; }
    int64_t sliceCount(const Wave &w) const
    {
        return sliceAxis_ == 0 ? w.n0 : w.n1;
    }
    int64_t sliceIndex(const Wave &w, int64_t s) const
    {
        return (sliceAxis_ == 0 ? w.b0 : w.b1) + s;
    }

    /** First dims[1] index, and index count, of PE column j. */
    int64_t chunkBase(const Wave &w, int64_t j) const
    {
        return w.b1 + j * chunk_;
    }
    int64_t chunkCount(const Wave &w, int64_t j) const
    {
        return std::min(chunk_, ext_[1] - chunkBase(w, j));
    }

    /** Visit every wave in issue order: dims[0] blocks outer. */
    template <typename Fn>
    void
    forEachWave(Fn &&fn) const
    {
        for (int64_t b0 = 0; b0 < ext_[0]; b0 += rows_) {
            const int64_t n0 = std::min(rows_, ext_[0] - b0);
            for (int64_t b1 = 0; b1 < ext_[1]; b1 += cols_ * chunk_) {
                const int64_t n1 =
                    std::min(cols_, (ext_[1] - b1 + chunk_ - 1) / chunk_);
                fn(Wave{b0, n0, b1, n1});
            }
        }
    }

  private:
    std::array<Dim, 2> dims_;
    std::array<int64_t, 2> ext_;
    int64_t rows_;
    int64_t cols_;
    Operand sparse_;
    SlotShape shape_ = SlotShape::Uniform;
    int sliceAxis_ = 0;
    int64_t chunk_ = 1;   //!< dims[1] indices per PE column
    double perIndex_ = 0.0;
    bool halfTileOk_;
};

/**
 * The slot-work oracle: the sparse operand's work per slot as densities
 * of a LayerSparsityProfile. Weights answer from the mask's per-kernel
 * structure; activations from the profile's per-sample, per-channel
 * and spatial densities (measured or jittered).
 */
struct ProfileSlotWork
{
    const LayerSparsityProfile &profile;

    /** Layer-mean density of the operand (Uniform slots). */
    double uniform(Operand sp) const;

    /** Density of slice `idx` along `d`. */
    double slice(Operand sp, Dim d, int64_t idx) const;

    /** The two half densities of slice `idx` (for the balancer). */
    TileHalves halves(Operand sp, Dim d, int64_t idx) const;

    /** Density of the cell (i0 along d0, i1 along d1). */
    double pair(Operand sp, Dim d0, int64_t i0, Dim d1, int64_t i1) const;
};

/**
 * Call `fn(const std::vector<TileHalves> &)` with the half-split slot
 * work of every wave, in issue order: profile densities times `scale`.
 * A Uniform wave is one tile; a Slice wave one tile per slice (the
 * half-tile balancer's input); a Pair wave one tile per PE, holding the
 * summed work of its chunk split evenly (no half is ever paired on two
 * sparse axes).
 */
template <typename Fn>
void
forEachWaveTiles(const WaveTiler &tiler, const LayerSparsityProfile &profile,
                 double scale, Fn &&fn)
{
    const ProfileSlotWork oracle{profile};
    const Operand sp = tiler.sparse();
    const auto &dims = tiler.dims();
    std::vector<TileHalves> tiles;
    if (tiler.shape() == SlotShape::Uniform) {
        const double u = scale * oracle.uniform(sp);
        tiles.push_back(TileHalves{u / 2.0, u / 2.0});
    }
    int64_t built = -1;   // first slice index of `tiles` (Slice shape)
    tiler.forEachWave([&](const Wave &w) {
        if (tiler.shape() == SlotShape::Slice &&
            tiler.sliceIndex(w, 0) != built) {
            // Slices do not depend on the dense axis: waves that share
            // the sparse block share the tile set.
            built = tiler.sliceIndex(w, 0);
            tiles.clear();
            for (int64_t s = 0; s < tiler.sliceCount(w); ++s) {
                TileHalves h = oracle.halves(sp, tiler.sliceDim(),
                                             tiler.sliceIndex(w, s));
                h.first *= scale;
                h.second *= scale;
                tiles.push_back(h);
            }
        } else if (tiler.shape() == SlotShape::Pair) {
            tiles.clear();
            for (int64_t i = 0; i < w.n0; ++i) {
                for (int64_t j = 0; j < w.n1; ++j) {
                    double work = 0.0;
                    for (int64_t t = 0; t < tiler.chunkCount(w, j); ++t) {
                        work += scale *
                                oracle.pair(sp, dims[0], w.b0 + i, dims[1],
                                            tiler.chunkBase(w, j) + t);
                    }
                    tiles.push_back(TileHalves{work / 2.0, work / 2.0});
                }
            }
        }
        fn(tiles);
    });
}

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_WAVE_TILER_H_
