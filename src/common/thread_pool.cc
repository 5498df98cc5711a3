#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include <pthread.h>

#include "common/logging.h"

namespace procrustes {

namespace {

/** True while the current thread is executing a pool chunk. */
thread_local bool t_inside_pool = false;

/** Forks this process has gone through (bumped in each child). */
std::atomic<uint64_t> g_fork_count{0};

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("PROCRUSTES_NUM_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
        WARN(std::string("ignoring bad PROCRUSTES_NUM_THREADS='") + env +
             "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

ThreadPool::ThreadPool(int num_threads)
    : shared_(std::make_unique<Shared>())
{
    static const int registered = pthread_atfork(nullptr, nullptr, [] {
        g_fork_count.fetch_add(1, std::memory_order_relaxed);
    });
    PROCRUSTES_ASSERT(registered == 0, "pthread_atfork failed");
    forkCount_ = g_fork_count.load(std::memory_order_relaxed);

    const int total = resolveThreadCount(num_threads);
    shared_->workers.reserve(static_cast<size_t>(total - 1));
    for (int i = 0; i < total - 1; ++i)
        shared_->workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (forkedAway()) {
        // The workers live in the parent: leak their state rather than
        // lock a mutex one of them may hold, or join threads this
        // process does not have. The static chain keeps the state
        // reachable, so leak checkers do not report it.
        static Shared *orphans = nullptr;
        shared_->nextOrphan = orphans;
        orphans = shared_.release();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        shared_->stop = true;
    }
    shared_->workCv.notify_all();
    for (std::thread &t : shared_->workers)
        t.join();
}

bool
ThreadPool::forkedAway() const
{
    return g_fork_count.load(std::memory_order_relaxed) != forkCount_;
}

void
ThreadPool::workerLoop()
{
    Shared &sh = *shared_;
    uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;   // keeps the job alive past the wait
        {
            std::unique_lock<std::mutex> lock(sh.mu);
            sh.workCv.wait(lock, [&] {
                return sh.stop ||
                       (sh.job != nullptr && sh.generation != seen);
            });
            if (sh.stop)
                return;
            seen = sh.generation;
            job = sh.job;
        }
        runChunks(*job);
    }
}

void
ThreadPool::runChunks(Job &job)
{
    t_inside_pool = true;
    for (;;) {
        const int64_t b = job.next.fetch_add(job.chunk,
                                             std::memory_order_relaxed);
        if (b >= job.end)
            break;
        const int64_t e = std::min(job.end, b + job.chunk);
        (*job.body)(b, e);
        if (job.remaining.fetch_sub(e - b, std::memory_order_acq_rel) ==
            e - b) {
            // Last elements retired: wake the submitting thread.
            std::lock_guard<std::mutex> lock(shared_->mu);
            shared_->doneCv.notify_all();
        }
    }
    t_inside_pool = false;
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)> &body,
                        int64_t grain)
{
    if (end <= begin)
        return;
    const int64_t n = end - begin;
    grain = std::max<int64_t>(1, grain);
    // ~4 chunks per thread for load balance without cursor contention,
    // rounded up to a grain multiple: callers pass their tile size as
    // the grain, so chunk boundaries never split a tile and the work
    // decomposition — hence the fp reduction pattern — is identical
    // for every thread count.
    int64_t chunk = std::max(
        grain, (n + numThreads() * 4 - 1) / (numThreads() * 4));
    chunk = (chunk + grain - 1) / grain * grain;
    runJob(begin, end, body, chunk);
}

void
ThreadPool::parallelForEach(int64_t begin, int64_t end,
                            const std::function<void(int64_t)> &body)
{
    runJob(begin, end,
           [&body](int64_t b, int64_t e) {
               for (int64_t i = b; i < e; ++i)
                   body(i);
           },
           /*chunk=*/1);
}

void
ThreadPool::runJob(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)> &body,
                   int64_t chunk)
{
    if (end <= begin)
        return;
    Shared &sh = *shared_;
    // Serial fast paths: a range of one chunk, no workers, a nested
    // call from inside a chunk (the outer job's threads are all busy
    // here), or a forked child (the workers stayed in the parent).
    if (sh.workers.empty() || end - begin <= chunk || t_inside_pool ||
        forkedAway()) {
        body(begin, end);
        return;
    }

    // One job at a time: a second submitter (another application
    // thread sharing this pool) degrades to inline serial execution
    // rather than aborting or deadlocking.
    std::unique_lock<std::mutex> submit(sh.submitMu, std::try_to_lock);
    if (!submit.owns_lock()) {
        body(begin, end);
        return;
    }

    auto job = std::make_shared<Job>();
    job->body = &body;
    job->end = end;
    job->chunk = chunk;
    job->next.store(begin, std::memory_order_relaxed);
    job->remaining.store(end - begin, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lock(sh.mu);
        PROCRUSTES_ASSERT(sh.job == nullptr,
                          "concurrent parallelFor submissions");
        sh.job = job;
        ++sh.generation;
    }
    sh.workCv.notify_all();

    runChunks(*job);

    std::unique_lock<std::mutex> lock(sh.mu);
    sh.doneCv.wait(lock, [&] {
        return job->remaining.load(std::memory_order_acquire) == 0;
    });
    sh.job.reset();
    // `body` may dangle once we return, but late-waking workers only see
    // an exhausted cursor through their own shared_ptr and never call it.
}

namespace {

/** Slot + guard for the replaceable process-wide pool. The published
 *  pointer makes the steady-state global() lookup a single atomic
 *  load; the mutex only serializes creation and resetGlobal. */
std::mutex &
globalPoolMutex()
{
    static std::mutex mu;
    return mu;
}

std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

std::atomic<ThreadPool *> &
globalPoolCache()
{
    static std::atomic<ThreadPool *> cache{nullptr};
    return cache;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    if (ThreadPool *pool =
            globalPoolCache().load(std::memory_order_acquire))
        return *pool;
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    std::unique_ptr<ThreadPool> &slot = globalPoolSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(0);
    globalPoolCache().store(slot.get(), std::memory_order_release);
    return *slot;
}

void
ThreadPool::resetGlobal(int num_threads)
{
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    // Unpublish, then destroy the old pool so its workers exit before
    // the new ones spin up (keeps peak thread count bounded during
    // sweeps). Callers guarantee no work is in flight across a reset.
    globalPoolCache().store(nullptr, std::memory_order_release);
    globalPoolSlot().reset();
    globalPoolSlot() = std::make_unique<ThreadPool>(num_threads);
    globalPoolCache().store(globalPoolSlot().get(),
                            std::memory_order_release);
}

} // namespace procrustes
