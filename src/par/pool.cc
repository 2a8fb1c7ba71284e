#include "par/pool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace cllm::par {

namespace {

/** Set while a thread is executing chunk bodies; nested parallel
 *  calls on such a thread run inline and sequentially. */
thread_local bool tl_in_task = false;

/** Chunks executed process-wide (all parallel regions). */
obs::Counter &
chunkCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("par.chunks");
    return c;
}

using ChunkBody =
    std::function<void(std::size_t, std::size_t, std::size_t)>;

/** Run chunk `c` of [begin, end) at `grain` on the calling thread. */
void
runChunk(const ChunkBody &body, std::size_t begin, std::size_t end,
         std::size_t grain, std::size_t c)
{
    const std::size_t b = begin + c * grain;
    const std::size_t e = std::min(b + grain, end);
    chunkCounter().inc();
    // Wall-clock chunk span, active only under CLLM_TRACE=all; one
    // relaxed load otherwise.
    obs::WallSpan span("par.chunk");
    body(c, b, e);
}

/** One parallelFor invocation. Heap-allocated and shared so a worker
 *  that wakes late still holds the job it saw, never a newer one. */
struct Job
{
    ChunkBody body;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;

    std::atomic<std::size_t> next{0}; //!< next unclaimed chunk
    std::atomic<std::size_t> done{0}; //!< completed chunks

    std::mutex errMutex;
    std::size_t errChunk = SIZE_MAX; //!< lowest chunk that threw
    std::exception_ptr error;

    std::mutex doneMutex;
    std::condition_variable doneCv;

    /** Claim-and-run loop shared by the caller and the workers. */
    void
    execute()
    {
        tl_in_task = true;
        for (;;) {
            const std::size_t chunk = next.fetch_add(1);
            if (chunk >= chunks)
                break;
            try {
                runChunk(body, begin, end, grain, chunk);
            } catch (...) {
                std::lock_guard<std::mutex> lk(errMutex);
                if (chunk < errChunk) {
                    errChunk = chunk;
                    error = std::current_exception();
                }
            }
            if (done.fetch_add(1) + 1 == chunks) {
                { std::lock_guard<std::mutex> lk(doneMutex); }
                doneCv.notify_all();
            }
        }
        tl_in_task = false;
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lk(doneMutex);
        doneCv.wait(lk, [&] { return done.load() >= chunks; });
    }
};

/**
 * Fixed-size pool of `width - 1` workers (the calling thread is the
 * width-th participant). Jobs are serialized: one parallelFor runs at
 * a time; nested calls run inline. Shutdown joins every worker (TSan
 * clean), triggered from the static destructor or setThreadCount.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool pool;
        return pool;
    }

    ~ThreadPool() { stopWorkers(); }

    unsigned width() const { return width_; }

    void
    resize(unsigned n)
    {
        std::lock_guard<std::mutex> serial(jobSerialMutex_);
        stopWorkers();
        width_ = n == 0 ? defaultWidth() : n;
        startWorkers();
    }

    /** Run a job of two or more chunks across the pool; the caller
     *  participates. */
    void
    run(const std::shared_ptr<Job> &job)
    {
        std::lock_guard<std::mutex> serial(jobSerialMutex_);
        {
            std::lock_guard<std::mutex> lk(mutex_);
            job_ = job;
            ++generation_;
        }
        cv_.notify_all();
        job->execute(); // caller participates
        job->wait();
        {
            // Drop the pool's reference before rethrowing so the job
            // (and any captured state) dies with this call.
            std::lock_guard<std::mutex> lk(mutex_);
            job_.reset();
        }
        if (job->error)
            std::rethrow_exception(job->error);
    }

  private:
    ThreadPool() : width_(defaultWidth()) { startWorkers(); }

    static unsigned
    defaultWidth()
    {
        if (const char *env = std::getenv("CLLM_THREADS")) {
            char *end = nullptr;
            const long v = std::strtol(env, &end, 10);
            if (end != env && *end == '\0' && v > 0 && v <= 1024)
                return static_cast<unsigned>(v);
            warn("ignoring invalid CLLM_THREADS=\"", env, "\"");
        }
        const unsigned hc = std::thread::hardware_concurrency();
        return hc == 0 ? 1 : hc;
    }

    void
    startWorkers()
    {
        stop_ = false;
        for (unsigned i = 1; i < width_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &t : workers_)
            t.join();
        workers_.clear();
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                std::unique_lock<std::mutex> lk(mutex_);
                cv_.wait(lk, [&] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
                job = job_;
            }
            if (job)
                job->execute();
        }
    }

    unsigned width_;
    std::vector<std::thread> workers_;

    std::mutex jobSerialMutex_; //!< serializes top-level jobs

    std::mutex mutex_; //!< guards job_/generation_/stop_
    std::condition_variable cv_;
    std::shared_ptr<Job> job_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
};

} // namespace

unsigned
threadCount()
{
    return ThreadPool::instance().width();
}

void
setThreadCount(unsigned n)
{
    ThreadPool::instance().resize(n);
}

std::size_t
chunkCount(std::size_t count, std::size_t grain)
{
    if (grain == 0)
        cllm_panic("chunkCount: zero grain");
    return (count + grain - 1) / grain;
}

void
forEachChunk(std::size_t begin, std::size_t end, std::size_t grain,
             const ChunkBody &body)
{
    if (grain == 0)
        cllm_panic("forEachChunk: zero grain");
    if (begin >= end)
        return;
    const std::size_t chunks = chunkCount(end - begin, grain);
    // Inline, in chunk order, when parallelism cannot help or would
    // self-deadlock: a single chunk, a nested call from a task, or a
    // width-1 pool. No Job is built and no worker wakes.
    if (chunks == 1 || tl_in_task || threadCount() <= 1) {
        const bool outer = !tl_in_task;
        tl_in_task = true;
        try {
            for (std::size_t c = 0; c < chunks; ++c)
                runChunk(body, begin, end, grain, c);
        } catch (...) {
            tl_in_task = !outer;
            throw;
        }
        tl_in_task = !outer;
        return;
    }
    auto job = std::make_shared<Job>();
    job->body = body;
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->chunks = chunks;
    ThreadPool::instance().run(job);
}

void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)> &body)
{
    forEachChunk(begin, end, grain,
                 [&](std::size_t, std::size_t b, std::size_t e) {
                     body(b, e);
                 });
}

} // namespace cllm::par
