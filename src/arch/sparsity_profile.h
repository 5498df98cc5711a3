/**
 * @file
 * Per-layer sparsity description: the one slot-work oracle the cost
 * model, the imbalance replay and the cycle simulator all read.
 *
 * The latency model needs more than a global density: load imbalance is
 * driven by how non-zeros distribute across work tiles (Figure 5), so
 * the profile carries per-kernel non-zero counts from a SparsityMask
 * and derives slice densities along any spatialized dimension,
 * including the half-tile splits the load balancer pairs up.
 *
 * Activation sparsity (exploited in the weight-update phase) comes in
 * two modes, and every difference between them lives in this class:
 *
 *  Synthetic  (the constructors) per-sample / per-channel / spatial
 *             variation is deterministic hash-derived jitter around
 *             the layer's mean density, clamped into the range the
 *             paper's workloads span (>= 0.02, halves >= 0.01).
 *  Measured   (measured()) the per-sample, per-sample-half,
 *             per-channel and spatial densities of a real training
 *             epoch (the workload-trace pipeline), answered exactly:
 *             no jitter and no floor, so a dead ReLU channel or sample
 *             is zero work. Only the ratio-combines of two marginals
 *             are clamped, to [0, 1].
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
     * activation densities, kept unclamped (a mean of 0 is allowed).
     * No synthetic jitter — every per-sample / per-channel / spatial
     * query answers from the measurements (or the measured mean where
     * no finer-grained data exists).
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

    /** Input-activation density of sample n. */
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

    /**
     * Input-activation density of (sample n, channel c), the cell a PE
     * holds when iacts are sparse along both C and N: the two
     * marginals ratio-combined, channel x sample / mean. Clamped to
     * [0, 1] when measured, to [0.01, 1] when synthetic.
     */
    double iactSampleChannelDensity(int64_t n, int64_t c) const;

    /** Mask geometry (K extent). */
    int64_t maskK() const { return maskK_; }

    /** Mask geometry (C extent). */
    int64_t maskC() const { return maskC_; }

  private:
    /** Per-kernel / per-slice non-zero counts and weightDensity_. */
    void summariseMask(const sparse::SparsityMask &mask);

    double jitter(uint64_t a, uint64_t b) const;

    /** Measured vector entry, index wrapped; the mean when empty. */
    double wrapped(const std::vector<double> &v, int64_t idx) const;

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
