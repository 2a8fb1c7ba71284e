/**
 * @file
 * Metrics registry: named counters, gauges, and fixed-bucket
 * log-scale histograms, cheap enough for hot paths and deterministic
 * enough for the golden tests.
 *
 * Determinism contract (matching `cllm::par`): every hot-path
 * aggregate is an *integer*. Counter increments and histogram bucket
 * counts are unsigned 64-bit adds, which commute exactly — so the
 * merged totals a `snapshot()` reports are bit-identical whether the
 * work ran on 1 thread or 8, in any interleaving. Floating-point
 * accumulation across threads would not have that property, which is
 * why histograms record *bucket counts* (plus exact min/max, which
 * are order-independent) rather than a running double sum, and why
 * gauges — the one double-valued instrument — are last-write-wins
 * state meant for single-threaded simulation loops.
 *
 * Hot-path cost: counters are striped across cache-line-aligned
 * per-thread shards (relaxed atomic adds, no sharing between
 * threads); histogram inserts are one log2 plus one relaxed add.
 * Callers cache the instrument reference once (function-local
 * `static auto &`, or a `LazyCounter`) so the name lookup happens a
 * single time.
 */

#ifndef CLLM_OBS_METRICS_HH
#define CLLM_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/stats.hh"

namespace cllm {
class JsonWriter;
}

namespace cllm::obs {

/**
 * Monotonic event/byte counter. Increments land in the calling
 * thread's shard; `total()` folds the shards. Safe to add from any
 * thread concurrently; totals are exact and thread-count-invariant.
 */
class Counter
{
  public:
    static constexpr unsigned kShards = 64;

    void
    add(std::uint64_t n)
    {
        shards_[shardIndex()].v.fetch_add(n,
                                          std::memory_order_relaxed);
    }

    void inc() { add(1); }

    /** Exact sum over every shard. */
    std::uint64_t total() const;

    /** Zero every shard (tests / between bench phases). */
    void reset();

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };

    /** Stable per-thread stripe; threads beyond kShards share. */
    static unsigned shardIndex();

    Shard shards_[kShards];
};

/**
 * Last-write-wins double value (a level, not a rate): KV occupancy,
 * live-node count, current slowdown factor. Meant for the
 * single-threaded simulation loops; concurrent writers would race on
 * "last", which no deterministic sim does.
 */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    double
    get() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Fixed-bucket log-scale histogram over (0, +inf). Buckets are
 * geometric between `lo` and `hi` (values below `lo` or at/above
 * `hi` land in underflow/overflow buckets; non-positive values count
 * as underflow). All per-bucket state is integer counts, so recorded
 * distributions are exact and thread-count-invariant; min/max are
 * tracked exactly via CAS (order-independent).
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned buckets);

    void record(double x);

    std::uint64_t count() const;

    /** Inclusive bucket index for `x` (0 = underflow,
     *  buckets+1 = overflow). */
    unsigned bucketIndex(double x) const;

    /** Lower edge of bucket `i`; bucket 0 has edge 0. */
    double bucketEdge(unsigned i) const;

    std::uint64_t
    bucketCount(unsigned i) const
    {
        return counts_[i].load(std::memory_order_relaxed);
    }

    unsigned buckets() const { return nb_; }

    /**
     * Deterministic summary estimated from the bucket counts:
     * percentiles interpolate within the owning bucket, the mean uses
     * bucket geometric midpoints, min/max are exact. Empty histogram
     * => all-zero summary (the same convention `util::summarize` and
     * `percentile` follow for empty sample sets).
     */
    SampleSummary summary() const;

    void reset();

  private:
    double lo_, hi_;
    unsigned nb_;
    double logLo_, invLogStep_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<double> min_;
    std::atomic<double> max_;
};

/**
 * Process-wide name → instrument table. Instruments are created on
 * first use and never destroyed (stable addresses — cache the
 * reference), `snapshot()` walks them in name order so the emitted
 * JSON is byte-stable, and `reset()` zeroes values without
 * invalidating cached references.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name, double lo = 1e-6,
                         double hi = 1e3, unsigned buckets = 48);

    /**
     * Emit one JSON object: `{"counters": {...}, "gauges": {...},
     * "histograms": {name: {count, mean, p50, p95, p99, min, max},
     * ...}}`, every section sorted by name.
     */
    void snapshot(JsonWriter &json) const;

    /** Zero every instrument; registered names survive. */
    void reset();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * A named counter of the global registry that enters the registry on
 * its first `add`/`inc`, never before. Constant-initialised, so a
 * namespace-scope table of them costs nothing at startup and a name
 * whose code path never runs never shows up in a snapshot. After the
 * first event the hot path is one acquire load and a branch before
 * the counter's own relaxed add; the registry mutex is taken only on
 * that first event (concurrent first events resolve to the same
 * instrument).
 */
class LazyCounter
{
  public:
    constexpr explicit LazyCounter(const char *name) : name_(name) {}

    void
    add(std::uint64_t n)
    {
        Counter *c = c_.load(std::memory_order_acquire);
        (c ? *c : registerNow()).add(n);
    }

    void inc() { add(1); }

  private:
    Counter &registerNow();

    const char *name_;
    std::atomic<Counter *> c_{nullptr};
};

} // namespace cllm::obs

#endif // CLLM_OBS_METRICS_HH
