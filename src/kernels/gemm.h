/**
 * @file
 * Cache-blocked single-precision GEMM for the software compute backend.
 *
 * All lowered convolution and fully-connected work in the training loop
 * funnels into one primitive: row-major C = op(A) * op(B) (optionally
 * C += ...), where op() reads an operand as stored or transposed. The
 * implementation blocks over k and n for cache residency and packs
 * each k-slab of B into contiguous kc x 16 panels, so the 4x16
 * micro-kernel streams B unit-stride whatever its layout or leading
 * dimension; A is read in place through its row and column strides.
 * The micro-kernel keeps its tile in eight named accumulators of a
 * plain compiler vector type (Vec8), which GCC holds in registers at
 * -O2; an element-wise accumulator array spills to the stack under
 * GCC 12. It parallelizes over disjoint row panels of C through the
 * shared ThreadPool — so results are bitwise deterministic for any
 * thread count.
 *
 * Every C element takes one multiply-add per p, in ascending p, over
 * k-slabs of 256 in order, starting from zero (or from C when
 * accumulating). A transposed operand is only a different stride, so
 * it gives bitwise the result of its materialized transpose.
 */

#ifndef PROCRUSTES_KERNELS_GEMM_H_
#define PROCRUSTES_KERNELS_GEMM_H_

#include <cstdint>

namespace procrustes {

class ThreadPool;

namespace kernels {

/** Whether a GEMM operand is read as stored or transposed. */
enum class Trans { kNo, kYes };

/**
 * Row-major GEMM: C = op(A) * op(B), or C += op(A) * op(B) when
 * `accumulate`, with op(X) = X for Trans::kNo and X^T for Trans::kYes.
 *
 * @param m rows of op(A) and C.
 * @param n columns of op(B) and C.
 * @param k columns of op(A) / rows of op(B).
 * @param a A: m x k with lda >= k, or (kYes) k x m with lda >= m.
 * @param b B: k x n with ldb >= n, or (kYes) n x k with ldb >= k.
 * @param c C, m x n, leading dimension ldc >= n.
 * @param accumulate add into C instead of overwriting it.
 * @param pool pool to parallelize row panels over; nullptr runs serial.
 */
void gemm(Trans trans_a, Trans trans_b, int64_t m, int64_t n, int64_t k,
          const float *a, int64_t lda, const float *b, int64_t ldb,
          float *c, int64_t ldc, bool accumulate, ThreadPool *pool);

/** Convenience overload: packed leading dimensions, global pool. */
void gemm(int64_t m, int64_t n, int64_t k, const float *a, const float *b,
          float *c, bool accumulate = false);

} // namespace kernels
} // namespace procrustes

#endif // PROCRUSTES_KERNELS_GEMM_H_
