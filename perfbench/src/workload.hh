/**
 * @file
 * The benchmark's workloads and the metric catalogue they report
 * into. Every end-to-end metric is either modelled (`model_*`, a pure
 * function of the seed that must repeat exactly) or host-timed over a
 * phase lasting seconds. Per-layer metrics come from a separate traced
 * repetition that wraps the layers' public entry points from outside.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hh"
#include "util/stats.hh"

namespace perfbench {

/** Named values, kept sorted so two maps compare and print alike. */
using Values = std::map<std::string, double>;

/** One metric of BENCHMARK.json: its name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Metrics printed with `--trace 0`, identical for every workload. */
const std::vector<MetricSpec> &endToEndMetrics();

/**
 * Metrics printed with `--trace 1`. A layer a workload never enters
 * reads 0 there (its work counts are zero).
 */
const std::vector<MetricSpec> &perLayerMetrics();

/** What one repetition of a workload's timed phase produced. */
struct RepOutcome
{
    /** Requests completed: simulated requests or served queries. */
    std::uint64_t requests = 0;
    /** Operations attempted and failed; feeds `ok_frac`. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Correctness checks that failed, one line each. */
    std::vector<std::string> checkFailures;
    /** model_* / quality_* values and their sample counts. */
    Values model;
    /** Host latency of each request in milliseconds (RAG only). */
    std::vector<double> requestMs;
    /**
     * Host wall and process CPU seconds of consecutive slices of the
     * repetition (a rung, a round), the same slices every repetition.
     * Empty when the repetition is one slice.
     */
    std::vector<double> sliceWall, sliceCpu;
    /** Per-layer values; filled by traced repetitions only. */
    Values layer;

    /** Record a check; a failure fails every operation of the rep. */
    void check(bool ok, const std::string &what);
};

/** Workload construction options. */
struct WorkloadOptions
{
    std::uint64_t seed = 1;
    /** Multiplies request/query counts; tests run scaled down. */
    double scale = 1.0;
};

/** A benchmark workload: seeded set-up, then repeatable timed reps. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Threads the workload runs at (the benchmark sets the pool). */
    virtual unsigned threads() const = 0;

    /**
     * Build inputs and models. With `traced`, record set-up layer
     * timings returned by setupLayer().
     */
    virtual void setup(bool traced) = 0;

    /** One repetition of the timed phase. */
    virtual RepOutcome run(bool traced) = 0;

    /** Per-layer values recorded by the last traced set-up. */
    virtual Values setupLayer() const { return {}; }
};

/** Names accepted by makeWorkload(). */
const std::vector<std::string> &workloadNames();

/** Build a workload by name; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadOptions &opt);

std::unique_ptr<Workload> makeFleetMixed(const WorkloadOptions &opt);
std::unique_ptr<Workload> makeServeFeatures(const WorkloadOptions &opt);
std::unique_ptr<Workload> makeConfidentialRag(const WorkloadOptions &opt);

/** Put TTFT and ITL medians, p99s and sample counts into `v`. */
void putLatency(Values &v, const cllm::SampleSummary &ttft,
                const cllm::SampleSummary &itl);

/** Put the llm.step_s / llm.calls.* / llm.ns_per_call.* values. */
void putStepTally(Values &v, const StepTally &t);

/** Process CPU seconds so far, all threads. */
double cpuSeconds();

/** Appends the wall and CPU time since its last mark to a rep's slices. */
class SliceTimer
{
  public:
    explicit SliceTimer(RepOutcome &o);
    /** End the current slice and start the next. */
    void mark();

  private:
    RepOutcome &o_;
    Clock::time_point wall_;
    double cpu_;
};

/** Scale a request count, keeping at least one. */
unsigned scaled(unsigned count, double scale);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
