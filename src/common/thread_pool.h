/**
 * @file
 * Persistent worker-thread pool with a parallelFor helper.
 *
 * The functional model runs orders of magnitude more MACs than the
 * hardware model, so the software kernels (src/kernels/) parallelize
 * over independent output partitions — row panels of a GEMM, output
 * channels of a sparse convolution. The pool is deliberately simple:
 * one job at a time, chunked work distribution via an atomic cursor,
 * and the submitting thread participates in execution. Because every
 * chunk writes a disjoint output range and iterates in a fixed order,
 * results are bitwise deterministic regardless of how chunks land on
 * threads.
 *
 * The pool is fork-safe. A forked child inherits the pool object but
 * none of its worker threads, and possibly a mutex some worker held at
 * fork time. So in a child every parallelFor runs inline (serially) and
 * destruction leaks the worker state instead of locking, signalling or
 * joining it.
 */

#ifndef PROCRUSTES_COMMON_THREAD_POOL_H_
#define PROCRUSTES_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace procrustes {

/** Fixed-size pool of persistent worker threads. */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     *
     * @param num_threads total worker count including the submitting
     *        thread; 0 selects PROCRUSTES_NUM_THREADS from the
     *        environment, else std::thread::hardware_concurrency().
     */
    explicit ThreadPool(int num_threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads that execute chunks (workers + submitter). */
    int numThreads() const
    {
        return static_cast<int>(shared_->workers.size()) + 1;
    }

    /**
     * Run body(chunk_begin, chunk_end) over disjoint chunks covering
     * [begin, end). Blocks until every chunk has finished. Chunk sizes
     * are always a multiple of `grain` (callers pass their tile size so
     * boundaries never split a tile and the decomposition is identical
     * for every thread count). A nested call from inside a pool task,
     * or a submission racing another thread's submission, runs inline
     * (serially) instead of deadlocking or aborting, and so does any
     * call in a process forked after the pool was created.
     */
    void parallelFor(int64_t begin, int64_t end,
                     const std::function<void(int64_t, int64_t)> &body,
                     int64_t grain = 1);

    /**
     * Run body(i) for every i in [begin, end), one item per claim: each
     * thread takes the next unclaimed index from a shared cursor until
     * none is left. For few items of very different cost (ordered
     * longest first by the caller), where the chunks of parallelFor
     * would hand one thread a run of the longest ones. Inline in the
     * same cases as parallelFor.
     */
    void parallelForEach(int64_t begin, int64_t end,
                         const std::function<void(int64_t)> &body);

    /** Process-wide shared pool, created on first use. */
    static ThreadPool &global();

    /**
     * Replace the process-wide pool with one of `num_threads` threads
     * (0 re-resolves PROCRUSTES_NUM_THREADS / hardware concurrency).
     * For thread-count sweeps in tests and benchmarks: the caller must
     * guarantee no kernel is mid-flight on the old pool, because any
     * reference previously obtained from global() is invalidated.
     */
    static void resetGlobal(int num_threads);

  private:
    /** One in-flight parallelFor: chunk cursor plus completion count. */
    struct Job
    {
        const std::function<void(int64_t, int64_t)> *body = nullptr;
        int64_t end = 0;
        int64_t chunk = 1;
        std::atomic<int64_t> next{0};
        std::atomic<int64_t> remaining{0};   //!< elements not yet done
    };

    /**
     * The worker threads and everything they synchronize on. Held by
     * pointer so a forked child can leak it: the child has no threads
     * behind `workers`, and destroying a condition variable that the
     * parent's workers wait on blocks forever.
     */
    struct Shared
    {
        std::vector<std::thread> workers;
        std::mutex submitMu;              //!< serializes submitters
        std::mutex mu;
        std::condition_variable workCv;   //!< wakes workers on a new job
        std::condition_variable doneCv;   //!< wakes the submitter
        std::shared_ptr<Job> job;         //!< current job, guarded by mu
        uint64_t generation = 0;          //!< bumped per job, guarded by mu
        bool stop = false;
        Shared *nextOrphan = nullptr;     //!< see ~ThreadPool
    };

    void workerLoop();

    /** Run body over [begin, end) in claims of `chunk` elements. */
    void runJob(int64_t begin, int64_t end,
                const std::function<void(int64_t, int64_t)> &body,
                int64_t chunk);

    /** Claim and run chunks until the job's cursor is exhausted. */
    void runChunks(Job &job);

    /** True in a process forked after this pool was created. */
    bool forkedAway() const;

    std::unique_ptr<Shared> shared_;
    uint64_t forkCount_;   //!< process fork count at construction
};

} // namespace procrustes

#endif // PROCRUSTES_COMMON_THREAD_POOL_H_
