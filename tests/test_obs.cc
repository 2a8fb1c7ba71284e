/**
 * @file
 * Tests for cllm::obs: registry merge determinism under
 * `par::parallelFor` (1 vs 8 threads), histogram summary edge cases,
 * span nesting and ordering, async lifecycle tracks, wall-clock ring
 * buffers, a byte-golden over the Chrome trace exporter
 * (`CLLM_REGEN_GOLDEN=1` regenerates `tests/golden/trace_small.json`),
 * and the serving engine's lazy counter registration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "par/pool.hh"
#include "serve/serving.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::obs;

namespace {

/** RAII thread-count override (mirrors the test_par idiom). */
struct ThreadGuard
{
    unsigned saved;
    explicit ThreadGuard(unsigned n) : saved(par::threadCount())
    {
        par::setThreadCount(n);
    }
    ~ThreadGuard() { par::setThreadCount(saved); }
};

std::string
snapshotJson(const Registry &reg)
{
    std::ostringstream os;
    JsonWriter json(os);
    reg.snapshot(json);
    return os.str();
}

/** Drive `iters` counter adds and histogram records over the pool. */
void
hammer(Registry &reg, std::size_t iters)
{
    Counter &c = reg.counter("test.hits");
    Counter &bytes = reg.counter("test.bytes");
    Histogram &h = reg.histogram("test.lat", 1e-6, 1e3, 48);
    par::parallelFor(0, iters, 16, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
            c.inc();
            bytes.add(i);
            // A fixed value set: determinism must not depend on
            // which thread recorded which sample.
            h.record(1e-5 * static_cast<double>(1 + i % 97));
        }
    });
}

} // namespace

TEST(Counter, ExactTotalAcrossThreads)
{
    for (unsigned threads : {1u, 8u}) {
        ThreadGuard g(threads);
        Registry reg;
        hammer(reg, 10000);
        EXPECT_EQ(reg.counter("test.hits").total(), 10000u)
            << "threads=" << threads;
        // sum 0..9999
        EXPECT_EQ(reg.counter("test.bytes").total(),
                  10000u * 9999u / 2)
            << "threads=" << threads;
    }
}

TEST(Registry, SnapshotBitIdentical1v8Threads)
{
    std::string one, eight;
    {
        ThreadGuard g(1);
        Registry reg;
        hammer(reg, 20000);
        one = snapshotJson(reg);
    }
    {
        ThreadGuard g(8);
        Registry reg;
        hammer(reg, 20000);
        eight = snapshotJson(reg);
    }
    EXPECT_EQ(one, eight);
}

TEST(Registry, SameNameSameInstrument)
{
    Registry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.total(), 1u);
}

TEST(Registry, ResetKeepsReferencesValid)
{
    Registry reg;
    Counter &c = reg.counter("c");
    Gauge &gv = reg.gauge("g");
    Histogram &h = reg.histogram("h");
    c.add(5);
    gv.set(2.5);
    h.record(0.1);
    reg.reset();
    EXPECT_EQ(c.total(), 0u);
    EXPECT_EQ(gv.get(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    c.inc();
    EXPECT_EQ(reg.counter("c").total(), 1u);
}

TEST(Registry, SnapshotSortedAndStable)
{
    Registry reg;
    reg.counter("zeta").add(1);
    reg.counter("alpha").add(2);
    reg.gauge("mid").set(3.0);
    const std::string a = snapshotJson(reg);
    const std::string b = snapshotJson(reg);
    EXPECT_EQ(a, b);
    EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
}

TEST(Histogram, EmptySummaryIsAllZero)
{
    Histogram h(1e-6, 1e3, 48);
    const SampleSummary s = h.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.p50, 0.0);
    EXPECT_EQ(s.p99, 0.0);
    EXPECT_EQ(s.min, 0.0);
    EXPECT_EQ(s.max, 0.0);
}

TEST(Histogram, SingleSample)
{
    Histogram h(1e-6, 1e3, 48);
    h.record(0.25);
    const SampleSummary s = h.summary();
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.min, 0.25);
    EXPECT_EQ(s.max, 0.25);
    // The lone sample is every percentile of itself (exact, because
    // percentiles clamp to the observed min/max).
    EXPECT_EQ(s.p50, 0.25);
    EXPECT_EQ(s.p95, 0.25);
    EXPECT_EQ(s.p99, 0.25);
}

TEST(Histogram, UnderOverflowBuckets)
{
    Histogram h(1e-3, 1.0, 10);
    EXPECT_EQ(h.bucketIndex(1e-4), 0u);      // below lo
    EXPECT_EQ(h.bucketIndex(-5.0), 0u);      // non-positive
    EXPECT_EQ(h.bucketIndex(1.0), 11u);      // at hi
    EXPECT_EQ(h.bucketIndex(50.0), 11u);     // above hi
    h.record(1e-4);
    h.record(50.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(11), 1u);
    const SampleSummary s = h.summary();
    EXPECT_EQ(s.min, 1e-4); // min/max stay exact even out of range
    EXPECT_EQ(s.max, 50.0);
}

TEST(Histogram, PercentilesOrderedAndBounded)
{
    Histogram h(1e-6, 1e3, 48);
    for (int i = 1; i <= 1000; ++i)
        h.record(0.001 * i);
    const SampleSummary s = h.summary();
    EXPECT_EQ(s.count, 1000u);
    EXPECT_LE(s.min, s.p50);
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_LE(s.p99, s.max);
    EXPECT_NEAR(s.p50, 0.5, 0.05); // within one log-bucket's width
}

TEST(Histogram, BucketCountsThreadCountInvariant)
{
    auto run = [](unsigned threads) {
        ThreadGuard g(threads);
        Registry reg;
        Histogram &h = reg.histogram("h", 1e-6, 1e3, 48);
        par::parallelFor(0, 5000, 8,
                         [&](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i)
                                 h.record(1e-4 *
                                          static_cast<double>(1 + i));
                         });
        std::vector<std::uint64_t> counts;
        for (unsigned i = 0; i < h.buckets() + 2; ++i)
            counts.push_back(h.bucketCount(i));
        return counts;
    };
    EXPECT_EQ(run(1), run(8));
}

TEST(TraceMode, Parse)
{
    EXPECT_EQ(parseTraceMode(nullptr), TraceMode::Off);
    EXPECT_EQ(parseTraceMode(""), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("off"), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("0"), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("sim"), TraceMode::Sim);
    EXPECT_EQ(parseTraceMode("1"), TraceMode::Sim);
    EXPECT_EQ(parseTraceMode("all"), TraceMode::All);
    EXPECT_EQ(parseTraceMode("wall"), TraceMode::All);
    EXPECT_EQ(parseTraceMode("2"), TraceMode::All);
    EXPECT_EQ(parseTraceMode("garbage"), TraceMode::Off);
}

TEST(Tracer, OffRecordsNothing)
{
    Tracer tr(TraceMode::Off);
    tr.complete(0, "a", 0.0, 1.0);
    tr.instant(0, "b", 0.5);
    tr.counterValue(0, "c", 0.5, 1.0);
    {
        SimSpan s(&tr, 0, "span", 0.0);
        EXPECT_FALSE(s.active());
        s.end(1.0);
    }
    EXPECT_TRUE(tr.simEvents().empty());
}

TEST(Tracer, NullTracerSpanIsSafe)
{
    SimSpan s(nullptr, 0, "span", 0.0);
    EXPECT_FALSE(s.active());
    s.end(1.0); // must be a no-op, not a crash
}

TEST(SimSpan, NestingDepthsAndOrder)
{
    Tracer tr(TraceMode::Sim);
    {
        SimSpan outer(&tr, 3, "outer", 0.0);
        EXPECT_EQ(tr.simDepth(3), 1);
        {
            SimSpan inner(&tr, 3, "inner", 0.5);
            EXPECT_EQ(tr.simDepth(3), 2);
            inner.end(1.0);
        }
        EXPECT_EQ(tr.simDepth(3), 1);
        outer.end(2.0, {{"n", 2.0}});
    }
    EXPECT_EQ(tr.simDepth(3), 0);
    ASSERT_EQ(tr.simEvents().size(), 2u);
    // Spans close inner-first; depth captures the nesting level.
    EXPECT_EQ(tr.simEvents()[0].name, "inner");
    EXPECT_EQ(tr.simEvents()[0].depth, 1);
    EXPECT_EQ(tr.simEvents()[0].t1, 1.0);
    EXPECT_EQ(tr.simEvents()[1].name, "outer");
    EXPECT_EQ(tr.simEvents()[1].depth, 0);
    ASSERT_EQ(tr.simEvents()[1].args.size(), 1u);
    EXPECT_EQ(tr.simEvents()[1].args[0].first, "n");
}

TEST(SimSpan, EarlyExitClosesAtStart)
{
    Tracer tr(TraceMode::Sim);
    {
        SimSpan s(&tr, 0, "abandoned", 4.0);
    }
    ASSERT_EQ(tr.simEvents().size(), 1u);
    EXPECT_EQ(tr.simEvents()[0].t0, 4.0);
    EXPECT_EQ(tr.simEvents()[0].t1, 4.0);
    EXPECT_EQ(tr.simDepth(0), 0);
}

TEST(SimSpan, EndIsIdempotent)
{
    Tracer tr(TraceMode::Sim);
    SimSpan s(&tr, 0, "once", 0.0);
    s.end(1.0);
    s.end(2.0); // ignored
    ASSERT_EQ(tr.simEvents().size(), 1u);
    EXPECT_EQ(tr.simEvents()[0].t1, 1.0);
}

TEST(Tracer, AsyncLifecycleTrack)
{
    Tracer tr(TraceMode::Sim);
    tr.asyncBegin(1, "request", 7, "req", 0.0);
    tr.asyncInstant(1, "request", 7, "admit", 0.5);
    tr.asyncEnd(1, "request", 7, "complete", 2.0);
    ASSERT_EQ(tr.simEvents().size(), 3u);
    for (const SimEvent &e : tr.simEvents()) {
        EXPECT_EQ(e.cat, "request");
        EXPECT_EQ(e.id, 7u);
        EXPECT_EQ(e.lane, 1u);
    }
    EXPECT_EQ(tr.simEvents()[0].ph, SimEvent::Ph::AsyncBegin);
    EXPECT_EQ(tr.simEvents()[2].ph, SimEvent::Ph::AsyncEnd);
}

TEST(Tracer, ClearKeepsLaneNames)
{
    Tracer tr(TraceMode::Sim);
    tr.laneName(0, "fleet");
    tr.instant(0, "x", 1.0);
    tr.clear();
    EXPECT_TRUE(tr.simEvents().empty());
    ASSERT_EQ(tr.lanes().count(0), 1u);
    EXPECT_EQ(tr.lanes().at(0), "fleet");
}

TEST(WallSpans, RecordOnGlobalTracerWhenEnabled)
{
    Tracer &g = Tracer::global();
    const TraceMode saved = g.mode();
    g.setMode(TraceMode::All);
    {
        WallSpan outer("test.outer");
        WallSpan inner("test.inner");
    }
    g.setMode(saved);
    const auto events = g.collectWall();
    ASSERT_GE(events.size(), 2u);
    bool saw_outer = false, saw_inner = false;
    for (const WallEvent &e : events) {
        EXPECT_LE(e.t0Ns, e.t1Ns);
        if (std::string(e.name) == "test.outer")
            saw_outer = true;
        if (std::string(e.name) == "test.inner")
            saw_inner = true;
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_inner);
    EXPECT_EQ(g.wallDropped(), 0u);
    g.clear();
}

TEST(WallSpans, NoOpWhenGlobalOff)
{
    Tracer &g = Tracer::global();
    ASSERT_EQ(g.mode(), TraceMode::Off)
        << "test suite expects CLLM_TRACE unset";
    g.clear();
    {
        WallSpan s("test.noop");
    }
    EXPECT_TRUE(g.collectWall().empty());
}

namespace {

/** The small synthetic trace pinned by the exporter golden. */
std::string
exportSmallTrace()
{
    Tracer tr(TraceMode::Sim);
    tr.laneName(0, "fleet");
    tr.laneName(1, "tdx #0");
    tr.complete(0, "provision", 0.0, 0.5, {{"node", 0.0}});
    tr.asyncBegin(1, "request", 7, "req", 0.25);
    {
        SimSpan prefill(&tr, 1, "prefill", 0.25);
        prefill.end(0.375, {{"req", 7.0}, {"in_len", 512.0}});
    }
    tr.instant(1, "fault:epc_storm", 0.3, {{"duration", 10.0}},
               {{"cause", "epc_storm"}});
    tr.counterValue(1, "kv_util", 0.4, 0.53125);
    tr.asyncEnd(1, "request", 7, "complete", 0.5);
    std::ostringstream os;
    writeChromeTrace(os, tr);
    return os.str();
}

} // namespace

TEST(ChromeExport, GoldenByteCompare)
{
    const std::string got = exportSmallTrace();
    const std::string path =
        std::string(CLLM_GOLDEN_DIR) + "/trace_small.json";
    const char *regen = std::getenv("CLLM_REGEN_GOLDEN");
    if (regen && *regen && std::string(regen) != "0") {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << got;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing " << path
        << " (run with CLLM_REGEN_GOLDEN=1 to create)";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(ChromeExport, DeterministicAcrossCalls)
{
    EXPECT_EQ(exportSmallTrace(), exportSmallTrace());
}

TEST(ChromeExport, MetricsSnapshotRidesAlong)
{
    Registry reg;
    reg.counter("serve.prefills").add(3);
    Tracer tr(TraceMode::Sim);
    tr.instant(0, "x", 0.0);
    std::ostringstream os;
    writeChromeTrace(os, tr, &reg);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"metrics\""), std::string::npos);
    EXPECT_NE(s.find("\"serve.prefills\""), std::string::npos);
}

TEST(ChromeExport, OutputPathPrecedence)
{
    ::setenv("CLLM_TRACE_OUT", "/tmp/env.trace.json", 1);
    EXPECT_EQ(traceOutputPath("explicit.json", "fallback.json"),
              "explicit.json");
    EXPECT_EQ(traceOutputPath("", "fallback.json"),
              "/tmp/env.trace.json");
    ::unsetenv("CLLM_TRACE_OUT");
    EXPECT_EQ(traceOutputPath("", "fallback.json"), "fallback.json");
}

// ------------------------------------------------ lazy registration

namespace {

/** The "counters" section of the global registry's snapshot. */
std::string
globalCounters()
{
    const std::string s = snapshotJson(Registry::global());
    const std::size_t b = s.find("\"counters\"");
    return s.substr(b, s.find("\"gauges\"") - b);
}

bool
hasCounter(const std::string &counters, const std::string &name)
{
    return counters.find("\"" + name + "\"") != std::string::npos;
}

/**
 * Serve a small shared-prefix trace under `cfg` and report, as text,
 * every way the registry's feature counters break the lazy rule: a
 * counter in `absent` that is registered, or one in `present` that is
 * not. Empty means the rule held.
 */
std::string
lazyViolations(const serve::ServerConfig &cfg,
               const std::vector<std::string> &present,
               const std::vector<std::string> &absent)
{
    serve::WorkloadConfig load;
    load.arrivalRate = 2.0;
    load.numRequests = 40;
    load.meanInLen = 256;
    load.meanOutLen = 32;
    load.seed = 5;
    std::vector<serve::Request> trace = serve::generateWorkload(load);
    serve::applySharedPrefixMix(trace, serve::SharedPrefixMix{});
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    serve::Server server(
        serve::makeCpuStepModel(
            cpu, std::shared_ptr<const tee::TeeBackend>(tee::makeTdx()),
            llm::llama2_7b(), p),
        cfg);
    server.run(trace);

    const std::string counters = globalCounters();
    std::string out;
    for (const std::string &name : present)
        if (!hasCounter(counters, name))
            out += "missing " + name + "\n";
    for (const std::string &prefix : absent)
        if (counters.find("\"" + prefix) != std::string::npos)
            out += "unexpected " + prefix + "*\n";
    return out;
}

/** The whole lazy-registration walk, run in a fresh process. */
void
lazyRegistrationWalk()
{
    serve::ServerConfig cfg;
    cfg.kvBlocks = 4096;
    cfg.kvBlockTokens = 16;
    cfg.kvMode = serve::KvMode::Paged;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);

    // Features off: none of their counters may exist.
    std::string bad = lazyViolations(
        cfg, {"serve.prefills", "serve.decode_steps"},
        {"serve.prefix_", "serve.chunk_", "serve.spec_"});
    // Each feature, switched on in turn, registers its own counters
    // and leaves the features still off unregistered.
    cfg.prefixMode = serve::PrefixMode::PerTenant;
    bad += lazyViolations(cfg,
                          {"serve.prefix_hits", "serve.prefix_misses"},
                          {"serve.chunk_", "serve.spec_"});
    cfg.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
    cfg.chunkedPrefill.chunkTokens = 64;
    bad += lazyViolations(
        cfg, {"serve.chunk_slices", "serve.chunk_prefill_tokens"},
        {"serve.spec_"});
    cfg.specDecode.enabled = true;
    cfg.specDecode.draftTokens = 4;
    bad += lazyViolations(
        cfg,
        {"serve.spec_verify_steps", "serve.spec_draft_tokens",
         "serve.spec_accepted_tokens", "serve.spec_rejected_tokens",
         "serve.spec_bonus_tokens"},
        {});
    if (!bad.empty()) {
        std::fprintf(stderr, "%s", bad.c_str());
        std::exit(1);
    }
    std::fprintf(stderr, "lazy registration holds\n");
    std::exit(0);
}

} // namespace

// Feature counters enter the process-wide registry only when their
// feature first touches them, so a features-off run's registry
// snapshot carries no prefix, chunk or spec names. The registry never
// forgets a name, so the walk runs in a re-executed child (threadsafe
// death-test style) that starts from an empty registry even when
// every test of this binary shares one process.
TEST(LazyRegistration, FeatureCountersAppearOnlyWhenFeatureRuns)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(lazyRegistrationWalk(), ::testing::ExitedWithCode(0),
                "lazy registration holds");
}
