/**
 * @file
 * Eight-float vector type for hand-vectorized loops at -O2.
 *
 * GCC 12's -O2 cost model ("very cheap") only vectorizes a loop when
 * the vector code replaces the scalar loop entirely, so a loop with a
 * run-time trip count stays scalar. Loops written over this plain
 * compiler vector type are vectorized by construction: the compiler
 * lowers every operation to whatever SIMD width the target has (one
 * AVX register, or two SSE halves on a portable build) and keeps named
 * locals of the type in registers. Arithmetic is element-wise IEEE
 * single precision, so results equal the scalar loop's bit for bit
 * under the same contraction rules.
 *
 * The type carries its natural 32-byte alignment; memory is only
 * touched through load8 / store8 (memcpy), never by casting a float
 * pointer. Neither helper passes a vector by value: without AVX a
 * 32-byte vector would change the calling convention.
 */

#ifndef PROCRUSTES_COMMON_VEC8_H_
#define PROCRUSTES_COMMON_VEC8_H_

#include <cstdint>
#include <cstring>

namespace procrustes {

typedef float Vec8 __attribute__((vector_size(32)));
typedef int32_t Vec8i __attribute__((vector_size(32)));

/** v = p[0:8], unaligned. */
inline void
load8(Vec8 &v, const float *p)
{
    std::memcpy(&v, p, sizeof(v));
}

/** p[0:8] = v, unaligned. */
inline void
store8(float *p, const Vec8 &v)
{
    std::memcpy(p, &v, sizeof(v));
}

} // namespace procrustes

#endif // PROCRUSTES_COMMON_VEC8_H_
