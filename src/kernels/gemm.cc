#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/scratch_arena.h"
#include "common/thread_pool.h"
#include "common/vec8.h"

namespace procrustes {
namespace kernels {

namespace {

// Register tile: 4 rows x 16 columns, two 8-float vectors per row, so
// eight named accumulators plus two B vectors and one broadcast A
// value fit the 16 vector registers of AVX2.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;

// Cache blocks: a KC x NC slab of B (512 KiB at 256x512 floats) is
// packed once per task and stays L2-resident while kMr rows of A
// stream against it.
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 512;

/**
 * Pack a kc x nr block of B into a row-major kc x 16 panel, zero-filling
 * the columns [nr, 16). Element (p, j) of the block is
 * b[p * sp + j * sj], so one packer reads B as stored or transposed.
 */
void
packB(int64_t kc, int64_t nr, const float *b, int64_t sp, int64_t sj,
      float *dst)
{
    if (sj == 1 && nr == kNr) {
        for (int64_t p = 0; p < kc; ++p)
            std::memcpy(dst + p * kNr, b + p * sp, kNr * sizeof(float));
        return;
    }
    std::fill(dst, dst + kc * kNr, 0.0f);
    for (int64_t j = 0; j < nr; ++j) {
        for (int64_t p = 0; p < kc; ++p)
            dst[p * kNr + j] = b[p * sp + j * sj];
    }
}

/**
 * Micro-kernel: C[0:4, 0:16] (+)= A * B over one k-slab. Row r of the
 * A strip is a_r[p * sa] for p < kc; B comes as a packed kc x 16
 * panel. `first` starts every accumulator at zero instead of at C.
 * Each element takes one multiply-add per p in ascending order.
 */
inline void
micro4x16(int64_t kc, const float *a0, const float *a1, const float *a2,
          const float *a3, int64_t sa, const float *bp, float *c,
          int64_t ldc, bool first)
{
    Vec8 c00 = {}, c01 = {}, c10 = {}, c11 = {};
    Vec8 c20 = {}, c21 = {}, c30 = {}, c31 = {};
    if (!first) {
        load8(c00, c + 0 * ldc);
        load8(c01, c + 0 * ldc + 8);
        load8(c10, c + 1 * ldc);
        load8(c11, c + 1 * ldc + 8);
        load8(c20, c + 2 * ldc);
        load8(c21, c + 2 * ldc + 8);
        load8(c30, c + 3 * ldc);
        load8(c31, c + 3 * ldc + 8);
    }
    for (int64_t p = 0; p < kc; ++p) {
        Vec8 b0, b1;
        load8(b0, bp);
        load8(b1, bp + 8);
        bp += kNr;
        const int64_t o = p * sa;
        const float x0 = a0[o];
        c00 += x0 * b0;
        c01 += x0 * b1;
        const float x1 = a1[o];
        c10 += x1 * b0;
        c11 += x1 * b1;
        const float x2 = a2[o];
        c20 += x2 * b0;
        c21 += x2 * b1;
        const float x3 = a3[o];
        c30 += x3 * b0;
        c31 += x3 * b1;
    }
    store8(c + 0 * ldc, c00);
    store8(c + 0 * ldc + 8, c01);
    store8(c + 1 * ldc, c10);
    store8(c + 1 * ldc + 8, c11);
    store8(c + 2 * ldc, c20);
    store8(c + 2 * ldc + 8, c21);
    store8(c + 3 * ldc, c30);
    store8(c + 3 * ldc + 8, c31);
}

/**
 * Partial mr x nr tile: run the full kernel on a local copy of C. Rows
 * past mr re-read row 0 of the strip and are discarded.
 */
void
microEdge(int64_t mr, int64_t nr, int64_t kc, const float *a, int64_t ra,
          int64_t sa, const float *bp, float *c, int64_t ldc, bool first)
{
    float tile[kMr * kNr] = {};
    if (!first) {
        for (int64_t i = 0; i < mr; ++i)
            std::memcpy(tile + i * kNr, c + i * ldc,
                        static_cast<size_t>(nr) * sizeof(float));
    }
    micro4x16(kc, a, a + (mr > 1 ? ra : 0), a + (mr > 2 ? 2 * ra : 0),
              a + (mr > 3 ? 3 * ra : 0), sa, bp, tile, kNr, first);
    for (int64_t i = 0; i < mr; ++i)
        std::memcpy(c + i * ldc, tile + i * kNr,
                    static_cast<size_t>(nr) * sizeof(float));
}

/** One GEMM call's operands, as element strides of the logical A, B. */
struct Operands
{
    int64_t n, k;
    const float *a;
    int64_t aRow, aCol;   //!< A(i, p) = a[i * aRow + p * aCol]
    const float *b;
    int64_t bRow, bCol;   //!< B(p, j) = b[p * bRow + j * bCol]
    float *c;
    int64_t ldc;
    bool accumulate;
};

/** Full blocked GEMM restricted to the row panel [i0, i1) of C. */
void
gemmPanel(const Operands &op, int64_t i0, int64_t i1)
{
    const int64_t kc_max = std::min(kKc, op.k);
    const int64_t nc_max = std::min(kNc, (op.n + kNr - 1) / kNr * kNr);
    ScratchArena::Buffer b_pack = ScratchArena::global().acquire(
        static_cast<size_t>(kc_max * nc_max));

    for (int64_t jc = 0; jc < op.n; jc += kNc) {
        const int64_t nc = std::min(kNc, op.n - jc);
        for (int64_t pc = 0; pc < op.k; pc += kKc) {
            const int64_t kc = std::min(kKc, op.k - pc);
            const bool first = (pc == 0) && !op.accumulate;
            for (int64_t j = 0; j < nc; j += kNr) {
                packB(kc, std::min(kNr, nc - j),
                      op.b + pc * op.bRow + (jc + j) * op.bCol, op.bRow,
                      op.bCol, b_pack.data() + j * kc);
            }
            for (int64_t i = i0; i < i1; i += kMr) {
                const int64_t mr = std::min(kMr, i1 - i);
                const float *ap = op.a + i * op.aRow + pc * op.aCol;
                for (int64_t j = 0; j < nc; j += kNr) {
                    const int64_t nr = std::min(kNr, nc - j);
                    const float *bp = b_pack.data() + j * kc;
                    float *cp = op.c + i * op.ldc + jc + j;
                    if (mr == kMr && nr == kNr) {
                        micro4x16(kc, ap, ap + op.aRow, ap + 2 * op.aRow,
                                  ap + 3 * op.aRow, op.aCol, bp, cp,
                                  op.ldc, first);
                    } else {
                        microEdge(mr, nr, kc, ap, op.aRow, op.aCol, bp,
                                  cp, op.ldc, first);
                    }
                }
            }
        }
    }
}

} // namespace

void
gemm(Trans trans_a, Trans trans_b, int64_t m, int64_t n, int64_t k,
     const float *a, int64_t lda, const float *b, int64_t ldb, float *c,
     int64_t ldc, bool accumulate, ThreadPool *pool)
{
    PROCRUSTES_ASSERT(m >= 0 && n >= 0 && k >= 0, "negative gemm extent");
    const bool ta = trans_a == Trans::kYes;
    const bool tb = trans_b == Trans::kYes;
    PROCRUSTES_ASSERT(lda >= (ta ? m : k) && ldb >= (tb ? k : n) &&
                          ldc >= n,
                      "gemm leading dimension too small");
    if (m == 0 || n == 0)
        return;
    if (k == 0) {
        if (!accumulate) {
            for (int64_t i = 0; i < m; ++i)
                std::memset(c + i * ldc, 0,
                            static_cast<size_t>(n) * sizeof(float));
        }
        return;
    }

    const Operands op{n,
                      k,
                      a,
                      ta ? 1 : lda,
                      ta ? lda : 1,
                      b,
                      tb ? 1 : ldb,
                      tb ? ldb : 1,
                      c,
                      ldc,
                      accumulate};
    auto panel = [&](int64_t i0, int64_t i1) { gemmPanel(op, i0, i1); };
    if (pool == nullptr) {
        panel(0, m);
        return;
    }
    // Row panels are disjoint in C, so the reduction order inside each
    // output element is fixed and the result is thread-count invariant.
    pool->parallelFor(0, m, panel, /*grain=*/kMr * 2);
}

void
gemm(int64_t m, int64_t n, int64_t k, const float *a, const float *b,
     float *c, bool accumulate)
{
    gemm(Trans::kNo, Trans::kNo, m, n, k, a, k, b, n, c, n, accumulate,
         &ThreadPool::global());
}

} // namespace kernels
} // namespace procrustes
