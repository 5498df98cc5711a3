#include "kernels/conv_kernels.h"

#include <algorithm>

#include "common/logging.h"
#include "common/scratch_arena.h"
#include "common/thread_pool.h"
#include "kernels/gemm.h"

namespace procrustes {
namespace kernels {

ConvGeom
convGeomFromTensors(const Tensor &x, const Shape &w_shape, int64_t stride,
                    int64_t pad)
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() == 4, "conv input must be NCHW");
    PROCRUSTES_ASSERT(w_shape.rank() == 4, "conv filters must be KCRS");
    PROCRUSTES_ASSERT(xs[1] == w_shape[1], "conv channel mismatch");
    return makeConvGeom(xs[1], xs[2], xs[3], w_shape[0], w_shape[2],
                        w_shape[3], stride, pad);
}

namespace {

/**
 * True when splitting the batch across tasks beats splitting each
 * image's GEMM into row panels: every thread gets at least one whole
 * image. Both decompositions are bitwise identical per output element
 * (images are independent; serial and row-panel GEMM share one
 * reduction order), so this is purely a utilization choice and cannot
 * perturb results across thread counts.
 */
bool
useBatchParallel(int64_t n, const ThreadPool &pool)
{
    return n >= pool.numThreads() && pool.numThreads() > 1;
}

} // namespace

Tensor
convForwardGemm(const Tensor &x, const Tensor &w, const Tensor *bias,
                const ConvGeom &g)
{
    const int64_t n = x.shape()[0];
    const int64_t crs = g.colRows();
    const int64_t pq = g.colCols();
    Tensor y(Shape{n, g.k, g.p, g.q});

    const float *px = x.data();
    const float *pw = w.data();
    const float *pb = bias ? bias->data() : nullptr;
    float *py = y.data();

    ThreadPool &pool = ThreadPool::global();
    const int64_t chw = g.c * g.h * g.w;
    auto forwardImage = [&](int64_t in, float *col) {
        im2col(px + in * chw, g, col);
        float *yn = py + in * g.k * pq;
        // Explicit-pool overload: no global-pool lookup per image; the
        // nested call runs serially inside a worker either way.
        gemm(Trans::kNo, Trans::kNo, g.k, pq, crs, pw, crs, col, pq, yn,
             pq, /*accumulate=*/false, &pool);
        if (pb) {
            for (int64_t ok = 0; ok < g.k; ++ok) {
                const float b = pb[ok];
                float *row = yn + ok * pq;
                for (int64_t j = 0; j < pq; ++j)
                    row[j] += b;
            }
        }
    };

    if (useBatchParallel(n, pool)) {
        // Images are independent: each task lowers and multiplies its
        // own images with a private workspace. The nested GEMM runs
        // serially inside the task (the pool never nests).
        pool.parallelFor(0, n, [&](int64_t n0, int64_t n1) {
            ScratchArena::Buffer col =
                ScratchArena::global().acquire(
                    static_cast<size_t>(crs * pq));
            for (int64_t in = n0; in < n1; ++in)
                forwardImage(in, col.data());
        });
    } else {
        // Narrow batch: keep the batch loop serial and let the GEMM
        // spread row panels across the pool instead.
        ScratchArena::Buffer col = ScratchArena::global().acquire(
            static_cast<size_t>(crs * pq));
        for (int64_t in = 0; in < n; ++in)
            forwardImage(in, col.data());
    }
    return y;
}

Tensor
convBackwardGemm(const Tensor &x, const Tensor &w, const Tensor &dy,
                 const ConvGeom &g, Tensor *dw, Tensor *db)
{
    const int64_t n = x.shape()[0];
    const int64_t crs = g.colRows();
    const int64_t pq = g.colCols();
    PROCRUSTES_ASSERT(dy.shape() == Shape({n, g.k, g.p, g.q}),
                      "dy shape mismatch in conv backward");
    PROCRUSTES_ASSERT(dw && dw->shape() == w.shape(),
                      "dw shape mismatch in conv backward");

    Tensor dx(x.shape());

    // Per-image dW / db partials. Whichever task computes image `in`
    // writes slice `in`, and the reduction walks images in index order
    // — so the accumulation order per dW element is fixed for every
    // thread count (and every batch decomposition). The partial buffer
    // is capped: images are processed in groups whose size depends
    // only on the filter geometry (never on the thread count, which
    // would change the writeback boundaries and hence the rounding),
    // bounding scratch at ~64 MB for any batch size.
    const int64_t kcrs = g.k * crs;
    constexpr int64_t kMaxPartialBytes = 64 << 20;
    const int64_t group = std::min(
        n, std::max<int64_t>(
               1, kMaxPartialBytes /
                      (kcrs * static_cast<int64_t>(sizeof(float)))));
    ScratchArena::Buffer dw_part = ScratchArena::global().acquire(
        static_cast<size_t>(group * kcrs));
    ScratchArena::Buffer db_part;
    if (db) {
        db_part = ScratchArena::global().acquire(
            static_cast<size_t>(group * g.k));
    }

    const float *px = x.data();
    const float *pw = w.data();
    const float *pdy = dy.data();
    float *pdx = dx.data();
    float *pdw_part = dw_part.data();
    float *pdb_part = db ? db_part.data() : nullptr;
    float *pdw = dw->data();
    float *pdb = db ? db->data() : nullptr;

    ThreadPool &pool = ThreadPool::global();
    const bool batch_parallel = useBatchParallel(n, pool);

    const int64_t chw = g.c * g.h * g.w;
    // `slot` is the image's index within its group (its partial slice).
    auto backwardImage = [&](int64_t in, int64_t slot, float *col,
                             float *dcol) {
        const float *dyn = pdy + in * g.k * pq;

        // Weight-update pass: partial dW_n = dY_n * col(X_n)^T.
        im2col(px + in * chw, g, col);
        gemm(Trans::kNo, Trans::kYes, g.k, crs, pq, dyn, pq, col, pq,
             pdw_part + slot * kcrs, crs, /*accumulate=*/false, &pool);

        // Backward (data) pass: dX_n = col2im(W^T * dY_n).
        gemm(Trans::kYes, Trans::kNo, crs, pq, g.k, pw, crs, dyn, pq, dcol,
             pq, /*accumulate=*/false, &pool);
        col2im(dcol, g, pdx + in * chw);

        if (pdb_part) {
            for (int64_t ok = 0; ok < g.k; ++ok) {
                const float *row = dyn + ok * pq;
                float acc = 0.0f;
                for (int64_t j = 0; j < pq; ++j)
                    acc += row[j];
                pdb_part[slot * g.k + ok] = acc;
            }
        }
    };

    // Serial path reuses one workspace across all groups.
    ScratchArena::Buffer scol, sdcol;
    if (!batch_parallel) {
        ScratchArena &arena = ScratchArena::global();
        scol = arena.acquire(static_cast<size_t>(crs * pq));
        sdcol = arena.acquire(static_cast<size_t>(crs * pq));
    }

    for (int64_t base = 0; base < n; base += group) {
        const int64_t hi = std::min(n, base + group);

        if (batch_parallel) {
            pool.parallelFor(base, hi, [&](int64_t n0, int64_t n1) {
                ScratchArena &arena = ScratchArena::global();
                ScratchArena::Buffer col =
                    arena.acquire(static_cast<size_t>(crs * pq));
                ScratchArena::Buffer dcol =
                    arena.acquire(static_cast<size_t>(crs * pq));
                for (int64_t in = n0; in < n1; ++in)
                    backwardImage(in, in - base, col.data(), dcol.data());
            });
        } else {
            for (int64_t in = base; in < hi; ++in)
                backwardImage(in, in - base, scol.data(), sdcol.data());
        }

        // Ordered reduction: every dW element sums this group's
        // per-image partials in image order. Parallel over elements
        // (disjoint outputs), never over images — that, plus group
        // boundaries that do not depend on the thread count, is what
        // keeps the result bitwise identical for any pool size.
        const int64_t gn = hi - base;
        pool.parallelFor(0, kcrs, [&](int64_t j0, int64_t j1) {
            for (int64_t j = j0; j < j1; ++j) {
                float acc = pdw[j];
                for (int64_t s = 0; s < gn; ++s)
                    acc += pdw_part[s * kcrs + j];
                pdw[j] = acc;
            }
        });
        if (pdb) {
            for (int64_t ok = 0; ok < g.k; ++ok) {
                float acc = pdb[ok];
                for (int64_t s = 0; s < gn; ++s)
                    acc += pdb_part[s * g.k + ok];
                pdb[ok] = acc;
            }
        }
    }
    return dx;
}

} // namespace kernels
} // namespace procrustes
