/**
 * @file
 * Per-layer sparsity description consumed by the cost model.
 *
 * The latency model needs more than a global density: load imbalance is
 * driven by how non-zeros distribute across work tiles (Figure 5), so
 * the profile carries per-kernel non-zero counts from a SparsityMask
 * and derives slice densities along any spatialized dimension,
 * including the half-tile splits the load balancer pairs up.
 *
 * Activation sparsity (exploited in the weight-update phase) has no
 * stored mask; per-sample / per-spatial variation is modelled with
 * deterministic hash-derived jitter around the layer's mean density —
 * unless the profile was built through measured(), in which case the
 * per-sample / per-sample-half / per-channel densities come from a
 * real training step (the workload-trace pipeline) and the jitter is
 * disabled entirely.
 */

#ifndef PROCRUSTES_ARCH_SPARSITY_PROFILE_H_
#define PROCRUSTES_ARCH_SPARSITY_PROFILE_H_

#include <cstdint>
#include <vector>

#include "arch/layer_shape.h"
#include "arch/phase.h"
#include "sparse/mask.h"

namespace procrustes {
namespace arch {

/**
 * Measured input-activation statistics of one layer, as accumulated by
 * the workload-trace pipeline from real training steps. Vectors may be
 * empty (fall back to `mean`); indices beyond a vector's length wrap,
 * so a profile measured at batch B still answers queries at other
 * batch sizes.
 */
struct MeasuredIactStats
{
    double mean = 1.0;                    //!< layer-mean density
    std::vector<double> perSample;        //!< [batch]
    /** [batch * 2], halves split along C; halves of sample n sum to
        perSample[n]. */
    std::vector<double> perSampleHalf;
    std::vector<double> perChannel;       //!< [C]
    /** Spatial marginals in *input* coordinates, rank-4 layers only
        (empty for fc): density of input row / column across the other
        axes. Output-location queries map through the layer stride
        (min(idx * stride, extent - 1)). */
    std::vector<double> perRow;           //!< [H]
    std::vector<double> perCol;           //!< [W]
};

/** Sparsity facts the cost model needs about one layer. */
class LayerSparsityProfile
{
  public:
    /** Dense profile (weight and activation density 1.0). */
    LayerSparsityProfile() = default;

    /**
     * Build from a weight mask plus a mean input-activation density.
     * @param iact_sigma relative jitter of per-sample / per-location
     *        activation density (drives wu-phase imbalance).
     */
    LayerSparsityProfile(const sparse::SparsityMask &mask,
                         double iact_density, double iact_sigma = 0.1,
                         uint64_t seed = 0x5eed);

    /** Profile with uniform weight density but no mask structure. */
    static LayerSparsityProfile uniform(double weight_density,
                                        double iact_density);

    /**
     * Trace-driven profile: a real weight mask plus *measured*
     * activation densities. No synthetic jitter — every per-sample /
     * per-channel / spatial query answers from the measurements (or
     * the measured mean where no finer-grained data exists).
     * @param stride layer stride, used to map output locations onto
     *        the input-space spatial marginals.
     */
    static LayerSparsityProfile measured(const sparse::SparsityMask &mask,
                                         const MeasuredIactStats &iacts,
                                         int64_t stride = 1);

    /** True when activation densities are measured, not modelled. */
    bool isMeasured() const { return measured_; }

    /** Global weight non-zero fraction. */
    double weightDensity() const { return weightDensity_; }

    /** Mean input-activation non-zero fraction. */
    double iactDensity() const { return iactDensity_; }

    /** True when per-kernel structure is available. */
    bool hasMask() const { return kernelElems_ > 0; }

    /** Density of the K-slice k (all C, R, S). */
    double kDensity(int64_t k) const;

    /** Density of half `h` (0/1, split along C) of K-slice k. */
    double kHalfDensity(int64_t k, int h) const;

    /** Density of the C-slice c (all K, R, S). */
    double cDensity(int64_t c) const;

    /** Density of half `h` (0/1, split along K) of C-slice c. */
    double cHalfDensity(int64_t c, int h) const;

    /** Density of kernel (k, c). */
    double kernelDensity(int64_t k, int64_t c) const;

    /** Input-activation density of sample n (deterministic jitter). */
    double iactSampleDensity(int64_t n) const;

    /** Half-split (along C) of sample n's activation density. */
    double iactSampleHalfDensity(int64_t n, int h) const;

    /** Input-activation density of channel c. */
    double iactChannelDensity(int64_t c) const;

    /**
     * Half `h` (0/1) of channel c's density, the halves the balancer
     * pairs when iacts are sliced along C. No measurement splits a
     * channel, so a measured profile halves iactChannelDensity(c)
     * evenly; a synthetic one jitters each half independently (the
     * halves then need not sum to the channel density).
     */
    double iactChannelHalfDensity(int64_t c, int h) const;

    /** Input-activation density at output location (p, q). */
    double iactSpatialDensity(int64_t p, int64_t q) const;

    /** Mask geometry (K extent). */
    int64_t maskK() const { return maskK_; }

    /** Mask geometry (C extent). */
    int64_t maskC() const { return maskC_; }

  private:
    double jitter(uint64_t a, uint64_t b) const;

    double weightDensity_ = 1.0;
    double iactDensity_ = 1.0;
    double iactSigma_ = 0.0;
    uint64_t seed_ = 0;
    bool measured_ = false;
    std::vector<double> measSample_;      //!< measured per-sample
    std::vector<double> measSampleHalf_;  //!< measured [n*2+h]
    std::vector<double> measChannel_;     //!< measured per-channel
    std::vector<double> measRow_;         //!< measured per input row
    std::vector<double> measCol_;         //!< measured per input col
    int64_t measStride_ = 1;              //!< output -> input mapping
    int64_t maskK_ = 0;
    int64_t maskC_ = 0;
    int64_t kernelElems_ = 0;
    std::vector<int32_t> kernelNnz_;     //!< [K*C]
    std::vector<int64_t> kNnz_;          //!< per K-slice
    std::vector<int64_t> kHalfNnz_;      //!< [K*2], split along C
    std::vector<int64_t> cNnz_;          //!< per C-slice
    std::vector<int64_t> cHalfNnz_;      //!< [C*2], split along K
};

} // namespace arch
} // namespace procrustes

#endif // PROCRUSTES_ARCH_SPARSITY_PROFILE_H_
