/**
 * @file
 * Unit tests for the common substrate: logging, PRNGs, math helpers,
 * and the thread pool's behaviour in a forked child.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace procrustes {
namespace {

TEST(MathUtils, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 16), 0);
    EXPECT_EQ(ceilDiv(1, 16), 1);
    EXPECT_EQ(ceilDiv(16, 16), 1);
    EXPECT_EQ(ceilDiv(17, 16), 2);
    EXPECT_EQ(ceilDiv(256, 16), 16);
}

TEST(MathUtils, RoundUp)
{
    EXPECT_EQ(roundUp(0, 8), 0);
    EXPECT_EQ(roundUp(1, 8), 8);
    EXPECT_EQ(roundUp(8, 8), 8);
    EXPECT_EQ(roundUp(9, 8), 16);
}

TEST(MathUtils, MeanAndStddev)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(MathUtils, ExactQuantile)
{
    std::vector<double> xs;
    for (int i = 0; i < 101; ++i)
        xs.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.9), 90.0);
}

TEST(Logging, AssertFiresOnViolation)
{
    EXPECT_DEATH(PROCRUSTES_ASSERT(false, "boom"), "assertion failed");
}

TEST(Logging, AssertPassesOnTrue)
{
    PROCRUSTES_ASSERT(true, "never");
    SUCCEED();
}

TEST(Xorshift32, MatchesReferenceRecurrence)
{
    // One step of Marsaglia's 13/17/5 recurrence computed by hand.
    uint32_t x = 2463534242u;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    Xorshift32 gen(2463534242u);
    EXPECT_EQ(gen.next(), x);
}

TEST(Xorshift32, ZeroSeedRemapped)
{
    Xorshift32 gen(0);
    EXPECT_NE(gen.state(), 0u);
    EXPECT_NE(gen.next(), 0u);
}

TEST(Xorshift128Plus, Deterministic)
{
    Xorshift128Plus a(123);
    Xorshift128Plus b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xorshift128Plus, DifferentSeedsDiverge)
{
    Xorshift128Plus a(1);
    Xorshift128Plus b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Xorshift128Plus, DoubleInUnitInterval)
{
    Xorshift128Plus gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = gen.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xorshift128Plus, BoundedWithinRange)
{
    Xorshift128Plus gen(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = gen.nextBounded(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);   // all residues hit
}

TEST(Xorshift128Plus, GaussianMoments)
{
    Xorshift128Plus gen(11);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = gen.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Splitmix64, AvalanchesAndIsDeterministic)
{
    EXPECT_EQ(splitmix64(42), splitmix64(42));
    EXPECT_NE(splitmix64(42), splitmix64(43));
    // Nearby inputs should differ in roughly half the bits.
    const uint64_t d = splitmix64(100) ^ splitmix64(101);
    const int popcnt = __builtin_popcountll(d);
    EXPECT_GT(popcnt, 16);
    EXPECT_LT(popcnt, 48);
}

TEST(StatelessUniform, PureFunctionOfInputs)
{
    EXPECT_EQ(statelessUniform32(1, 2, 0), statelessUniform32(1, 2, 0));
    EXPECT_NE(statelessUniform32(1, 2, 0), statelessUniform32(1, 3, 0));
    EXPECT_NE(statelessUniform32(1, 2, 0), statelessUniform32(1, 2, 1));
    EXPECT_NE(statelessUniform32(1, 2, 0), statelessUniform32(2, 2, 0));
}

TEST(StatelessGaussianSum3, BoundedSupport)
{
    // Sum of three centred int32 uniforms lies in (-3*2^31, 3*2^31).
    const int64_t bound = int64_t{3} << 31;
    for (uint64_t i = 0; i < 10000; ++i) {
        const int64_t s = statelessGaussianSum3(99, i);
        EXPECT_GT(s, -bound);
        EXPECT_LT(s, bound);
    }
}

TEST(ThreadPoolFork, ChildRunsInlineAndTearsDownWithoutParentWorkers)
{
    // Death tests fork while pool workers are alive. Before the fix
    // the child inherited the pool's mutexes (possibly held by a
    // worker at fork time) and its thread handles with no threads
    // behind them: parallelFor could block on a mutex nobody would
    // release, and the destructor crashed in join() or blocked
    // destroying a condition variable the parent's workers wait on.
    // Each child arms an alarm, so a hang fails in seconds.
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<bool> stop{false};
    // Keep the workers waking and the pool mutex busy across forks.
    std::thread hammer([&] {
        std::vector<int64_t> out(256);
        while (!stop.load()) {
            pool->parallelFor(
                0, 256,
                [&](int64_t b, int64_t e) {
                    for (int64_t i = b; i < e; ++i)
                        out[static_cast<size_t>(i)] = i;
                },
                1);
        }
    });

    constexpr int kForks = 20;
    constexpr int64_t kN = 4096;
    // The first failed fork, reported once the hammer is joined.
    std::string failure;
    for (int f = 0; f < kForks && failure.empty(); ++f) {
        const pid_t pid = fork();
        if (pid == 0) {
            alarm(10);
            std::vector<int64_t> v(kN, 0);
            pool->parallelFor(
                0, kN,
                [&](int64_t b, int64_t e) {
                    for (int64_t i = b; i < e; ++i)
                        v[static_cast<size_t>(i)] = 2 * i;
                },
                1);
            bool ok = true;
            for (int64_t i = 0; i < kN; ++i)
                ok = ok && v[static_cast<size_t>(i)] == 2 * i;
            pool.reset();
            _exit(ok ? 0 : 1);
        }
        int status = 0;
        const std::string at = "fork " + std::to_string(f) + ": ";
        if (pid == -1 || waitpid(pid, &status, 0) != pid)
            failure = at + "fork/waitpid failed";
        else if (WIFSIGNALED(status))
            failure = at + "child killed by signal " +
                      std::to_string(WTERMSIG(status)) +
                      (WTERMSIG(status) == SIGALRM ? " (hung)" : "");
        else if (WEXITSTATUS(status) != 0)
            failure = at + "child computed a wrong result";
    }
    stop.store(true);
    hammer.join();
    EXPECT_EQ(failure, "");

    // The parent's pool is untouched by its children.
    std::vector<int64_t> v(kN, 0);
    pool->parallelFor(
        0, kN,
        [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                v[static_cast<size_t>(i)] = i;
        },
        1);
    EXPECT_EQ(v[kN - 1], kN - 1);
}

} // namespace
} // namespace procrustes
