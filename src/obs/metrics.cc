#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/json.hh"
#include "util/logging.hh"

namespace cllm::obs {

// ---------------------------------------------------------------- Counter

unsigned
Counter::shardIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
}

std::uint64_t
Counter::total() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.v.load(std::memory_order_relaxed);
    return sum;
}

void
Counter::reset()
{
    for (Shard &s : shards_)
        s.v.store(0, std::memory_order_relaxed);
}

Counter &
LazyCounter::registerNow()
{
    Counter &c = Registry::global().counter(name_);
    c_.store(&c, std::memory_order_release);
    return c;
}

// -------------------------------------------------------------- Histogram

Histogram::Histogram(double lo, double hi, unsigned buckets)
    : lo_(lo), hi_(hi), nb_(buckets),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
    if (!(lo > 0.0) || !(hi > lo))
        cllm_panic("Histogram: need 0 < lo < hi, got ", lo, ", ", hi);
    if (buckets == 0)
        cllm_panic("Histogram: zero buckets");
    logLo_ = std::log(lo_);
    invLogStep_ =
        static_cast<double>(nb_) / (std::log(hi_) - logLo_);
    counts_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(nb_ + 2);
    for (unsigned i = 0; i < nb_ + 2; ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

unsigned
Histogram::bucketIndex(double x) const
{
    if (!(x >= lo_)) // covers x < lo, x <= 0, and NaN
        return 0;
    if (x >= hi_)
        return nb_ + 1;
    const double f = (std::log(x) - logLo_) * invLogStep_;
    auto i = static_cast<unsigned>(f);
    // Guard the log/exp round-trip at bucket edges.
    return std::min(i, nb_ - 1) + 1;
}

double
Histogram::bucketEdge(unsigned i) const
{
    if (i == 0)
        return 0.0;
    if (i >= nb_ + 1)
        return hi_;
    return std::exp(logLo_ + static_cast<double>(i - 1) / invLogStep_);
}

void
Histogram::record(double x)
{
    counts_[bucketIndex(x)].fetch_add(1, std::memory_order_relaxed);
    // Exact extremes via CAS; min/max commute, so the stored values
    // are independent of thread interleaving.
    double cur = min_.load(std::memory_order_relaxed);
    while (x < cur &&
           !min_.compare_exchange_weak(cur, x,
                                       std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (x > cur &&
           !max_.compare_exchange_weak(cur, x,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < nb_ + 2; ++i)
        n += counts_[i].load(std::memory_order_relaxed);
    return n;
}

SampleSummary
Histogram::summary() const
{
    SampleSummary s;
    const std::uint64_t n = count();
    if (n == 0)
        return s;
    s.count = n;
    const double mn = min_.load(std::memory_order_relaxed);
    const double mx = max_.load(std::memory_order_relaxed);
    s.min = mn;
    s.max = mx;

    // Representative value per bucket: exact extremes for the
    // open-ended under/overflow buckets, geometric midpoint inside.
    auto rep = [&](unsigned i) {
        if (i == 0)
            return mn;
        if (i == nb_ + 1)
            return mx;
        return std::sqrt(bucketEdge(i) * bucketEdge(i + 1));
    };

    // Closed-form weighted moments over bucket representatives —
    // O(buckets) regardless of sample count, and a pure function of
    // the (deterministic) integer bucket counts.
    double wsum = 0.0;
    for (unsigned i = 0; i < nb_ + 2; ++i)
        wsum += static_cast<double>(
                    counts_[i].load(std::memory_order_relaxed)) *
                rep(i);
    s.mean = wsum / static_cast<double>(n);
    double wsq = 0.0;
    for (unsigned i = 0; i < nb_ + 2; ++i) {
        const double d = rep(i) - s.mean;
        wsq += static_cast<double>(
                   counts_[i].load(std::memory_order_relaxed)) *
               d * d;
    }
    s.stddev =
        n > 1 ? std::sqrt(wsq / static_cast<double>(n - 1)) : 0.0;

    // Percentile: locate the bucket holding rank p/100 * (n-1) and
    // interpolate linearly between its edges (clamped to the exact
    // extremes), mirroring util::percentile's type-7 rank.
    auto pct = [&](double p) {
        const double rank =
            p / 100.0 * static_cast<double>(n - 1);
        std::uint64_t c0 = 0;
        for (unsigned i = 0; i < nb_ + 2; ++i) {
            const std::uint64_t c =
                counts_[i].load(std::memory_order_relaxed);
            if (c == 0)
                continue;
            if (rank < static_cast<double>(c0 + c)) {
                const double e0 =
                    std::max(bucketEdge(i), mn);
                const double e1 =
                    std::min(bucketEdge(i + 1), mx);
                const double frac =
                    (rank - static_cast<double>(c0)) /
                    static_cast<double>(c);
                return std::clamp(e0 + (e1 - e0) * frac, mn, mx);
            }
            c0 += c;
        }
        return mx;
    };
    s.p50 = pct(50.0);
    s.p95 = pct(95.0);
    s.p99 = pct(99.0);
    return s;
}

void
Histogram::reset()
{
    for (unsigned i = 0; i < nb_ + 2; ++i)
        counts_[i].store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

// --------------------------------------------------------------- Registry

Registry &
Registry::global()
{
    static Registry r;
    return r;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name, double lo, double hi,
                    unsigned buckets)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(lo, hi, buckets);
    return *slot;
}

void
Registry::snapshot(JsonWriter &json) const
{
    std::lock_guard<std::mutex> lock(mu_);
    json.beginObject();
    json.key("counters").beginObject();
    for (const auto &[name, c] : counters_)
        json.field(name, c->total());
    json.endObject();
    json.key("gauges").beginObject();
    for (const auto &[name, g] : gauges_)
        json.field(name, g->get());
    json.endObject();
    json.key("histograms").beginObject();
    for (const auto &[name, h] : histograms_) {
        const SampleSummary s = h->summary();
        json.key(name).beginObject();
        json.field("count", s.count);
        json.field("mean", s.mean);
        json.field("p50", s.p50);
        json.field("p95", s.p95);
        json.field("p99", s.p99);
        json.field("min", s.min);
        json.field("max", s.max);
        json.endObject();
    }
    json.endObject();
    json.endObject();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

} // namespace cllm::obs
