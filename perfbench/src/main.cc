/**
 * @file
 * Benchmark driver. Usage:
 *
 *   cllm_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1>
 *
 * --trace 0 runs one warm-up repetition, then alternates blocks of
 * back-to-back set-ups with blocks of repetitions of the timed phase
 * until --seconds have passed. It reports the median set-up time, the
 * host time of one repetition as the sum of each of its slices'
 * fastest time, and the modelled figures, which must repeat exactly in
 * every repetition. --trace 1 alternates untraced and traced
 * repetitions and reports the per-layer split, checking that tracing
 * left every modelled figure unchanged. The last line of stdout is one
 * JSON object with the results.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "par/pool.hh"
#include "util/stats.hh"
#include "workload.hh"

using namespace perfbench;

namespace {

/** Length of one block of back-to-back set-ups [s]. */
constexpr double kSetupBlockS = 2.0;
/** Length of the block of repetitions after each set-up block [s]. */
constexpr double kRepBlockS = 6.0;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;
/** Most untraced/traced repetition pairs of a traced run. */
constexpr int kMaxTracePairs = 9;

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = val;
            else if (flag == "--seed")
                a.seed = std::stoull(val), have_seed = true;
            else if (flag == "--seconds")
                a.seconds = std::stod(val);
            else if (flag == "--trace")
                a.trace = std::stoi(val);
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !a.workload.empty() && have_seed && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

/** Totals of a run's repetitions. */
struct RunTotals
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> checkFailures;

    void
    add(const RepOutcome &o)
    {
        attempted += o.attempted;
        // A failed check fails every operation of its repetition.
        failed += o.checkFailures.empty() ? o.failed : o.attempted;
        checkFailures.insert(checkFailures.end(), o.checkFailures.begin(),
                             o.checkFailures.end());
    }

    /** Modelled values must repeat exactly; a mismatch is a failure. */
    void
    compareModel(const RepOutcome &ref, RepOutcome &o, const char *what)
    {
        if (o.model == ref.model)
            return;
        for (const auto &[k, v] : ref.model) {
            const auto it = o.model.find(k);
            if (it == o.model.end() || it->second != v)
                o.checkFailures.push_back(std::string(what) + ": " + k +
                                          " differs");
        }
        if (o.checkFailures.empty())
            o.checkFailures.push_back(std::string(what) +
                                      ": modelled values differ");
    }
};

/** Print the metrics, the sample counts and the final JSON line. */
void
report(const std::vector<MetricSpec> &specs, const Values &values,
       RunTotals &totals)
{
    for (const MetricSpec &s : specs) {
        const auto it = values.find(s.name);
        if (it == values.end() || !std::isfinite(it->second))
            totals.checkFailures.push_back(std::string("metric ") + s.name +
                                           " missing or not finite");
    }
    for (const std::string &f : totals.checkFailures)
        std::cout << "CHECK FAILED: " << f << "\n";

    char buf[64];
    for (const MetricSpec &s : specs) {
        const auto it = values.find(s.name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::snprintf(buf, sizeof buf, "%.6g", v);
        std::cout << "  " << s.name << " = " << buf << " " << s.unit;
        const std::string n = s.name;
        for (const char *kind : {"ttft", "itl"}) {
            const auto count = values.find(std::string("model.") + kind +
                                           "_samples");
            if (n.rfind(std::string("model_") + kind + "_", 0) == 0 &&
                count != values.end())
                std::cout << "  (n=" << static_cast<std::uint64_t>(count->second)
                          << ")";
        }
        std::cout << "\n";
    }

    const bool correct = totals.checkFailures.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(1, totals.attempted)
              << ", \"failed\": " << totals.failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &s : specs) {
        const auto it = values.find(s.name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        std::cout << (first ? "" : ", ") << "\"" << s.name
                  << "\": {\"value\": " << buf << ", \"unit\": \"" << s.unit
                  << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

int
runEndToEnd(const Args &args, const WorkloadOptions &opt)
{
    // Warm-up: one set-up and one repetition in a fresh process. Peak
    // RSS is read here, before repeated set-ups leave the allocator
    // holding memory of earlier workloads; its modelled values are the
    // ones every later repetition must repeat.
    const Clock::time_point r0 = Clock::now();
    std::unique_ptr<Workload> w = makeWorkload(args.workload, opt);
    w->setup(false);
    RunTotals totals;
    const Clock::time_point w0 = Clock::now();
    const RepOutcome first = w->run(false);
    double fastest_rep = secondsBetween(w0, Clock::now());
    totals.add(first);
    const double peak_rss = peakRssMb();

    // Then cycles of one set-up block and one block of repetitions run
    // until --seconds have passed since the start, so both sample the
    // whole run. A set-up block repeats set-up back to back for
    // kSetupBlockS and yields its fastest set-up; setup_s is the median
    // block. Repetitions run on the block's last set-up. Once the
    // minimum is reached, nothing starts that would end past --seconds.
    // Each slice of a repetition (the whole of it, a rung or a round)
    // keeps its fastest wall and CPU time over the run.
    std::vector<double> setups, walls, slice_wall, slice_cpu;
    std::size_t setup_count = 0;
    double setup_block_s = 0.0;
    auto more = [&](double ahead) {
        const int n = static_cast<int>(walls.size());
        return n < kMaxReps &&
               (n < kMinReps ||
                secondsBetween(r0, Clock::now()) + ahead < args.seconds);
    };
    while (more(setup_block_s + fastest_rep)) {
        double fastest = 0.0;
        const Clock::time_point b0 = Clock::now();
        for (std::size_t n = 0;
             n == 0 || secondsBetween(b0, Clock::now()) < kSetupBlockS; ++n) {
            w.reset();
            w = makeWorkload(args.workload, opt);
            const Clock::time_point t0 = Clock::now();
            w->setup(false);
            const double s = secondsBetween(t0, Clock::now());
            fastest = n == 0 ? s : std::min(fastest, s);
            ++setup_count;
        }
        setups.push_back(fastest);
        setup_block_s = secondsBetween(b0, Clock::now());

        const Clock::time_point b1 = Clock::now();
        do {
            const double c0 = cpuSeconds();
            const Clock::time_point t0 = Clock::now();
            RepOutcome o = w->run(false);
            const double wall = secondsBetween(t0, Clock::now());
            walls.push_back(wall);
            fastest_rep = std::min(fastest_rep, wall);
            if (o.sliceWall.empty()) {
                o.sliceWall = {wall};
                o.sliceCpu = {cpuSeconds() - c0};
            }
            if (slice_wall.empty()) {
                slice_wall = o.sliceWall;
                slice_cpu = o.sliceCpu;
            } else if (o.sliceWall.size() != slice_wall.size()) {
                o.check(false, "repetition: slice count differs");
            } else {
                for (std::size_t i = 0; i < slice_wall.size(); ++i) {
                    slice_wall[i] = std::min(slice_wall[i], o.sliceWall[i]);
                    slice_cpu[i] = std::min(slice_cpu[i], o.sliceCpu[i]);
                }
            }
            totals.compareModel(first, o, "repetition");
            totals.add(o);
        } while (secondsBetween(b1, Clock::now()) < kRepBlockS &&
                 more(fastest_rep));
    }

    std::cout << "workload " << args.workload << " seed " << args.seed
              << ": " << setup_count << " set-ups, " << walls.size()
              << " repetitions after a warm-up, threads "
              << cllm::par::threadCount() << "\nfastest set-up per block [s]:";
    for (double x : setups)
        std::cout << " " << x;
    std::cout << "\nrepetition wall times [s]:";
    for (double x : walls)
        std::cout << " " << x;
    std::cout << "\n";
    // The host's speed comes and goes in bursts; the fastest time of
    // each slice is the one least slowed by other load, and the figure
    // that repeats from run to run.
    double wall_s = 0.0, cpu_s = 0.0;
    for (std::size_t i = 0; i < slice_wall.size(); ++i)
        wall_s += slice_wall[i], cpu_s += slice_cpu[i];
    std::cout << "fastest repetition "
              << *std::min_element(walls.begin(), walls.end()) << " s, "
              << slice_wall.size() << " slices, sum of fastest slices "
              << wall_s << " s\n";
    Values v = first.model;
    v["setup_s"] = cllm::median(setups);
    v["wall_s"] = wall_s;
    v["cpu_s"] = cpu_s;
    v["peak_rss_mb"] = peak_rss;
    v["host_req_per_s"] = static_cast<double>(first.requests) / wall_s;
    v["ok_frac"] = 1.0 - static_cast<double>(totals.failed) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, totals.attempted));
    report(endToEndMetrics(), v, totals);
    return 0;
}

int
runTraced(const Args &args, const WorkloadOptions &opt)
{
    std::unique_ptr<Workload> w = makeWorkload(args.workload, opt);
    w->setup(true);

    // Untraced and traced repetitions alternate, so both see the same
    // machine; the fastest of each gives the overhead ratio and the
    // fastest traced one the per-layer split.
    RunTotals totals;
    RepOutcome plain, traced;
    double wall_plain = 0.0, cpu_plain = 0.0, wall_traced = 0.0;
    const Clock::time_point r0 = Clock::now();
    for (int pair = 0; pair < kMaxTracePairs &&
                       (pair == 0 ||
                        secondsBetween(r0, Clock::now()) < args.seconds / 3);
         ++pair) {
        const double c0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        RepOutcome p = w->run(false);
        const double wp = secondsBetween(t0, Clock::now());
        const double cp = cpuSeconds() - c0;
        const Clock::time_point t1 = Clock::now();
        RepOutcome t = w->run(true);
        const double wt = secondsBetween(t1, Clock::now());

        const RepOutcome &ref = pair == 0 ? p : plain;
        if (pair > 0)
            totals.compareModel(ref, p, "untraced repetition");
        totals.add(p);
        totals.compareModel(ref, t, "traced vs untraced");
        totals.add(t);
        if (pair == 0 || wp < wall_plain)
            wall_plain = wp, cpu_plain = cp;
        if (pair == 0)
            plain = std::move(p);
        if (pair == 0 || wt < wall_traced)
            wall_traced = wt, traced = std::move(t);
    }

    std::cout << "workload " << args.workload << " seed " << args.seed
              << ": fastest traced repetition " << wall_traced
              << " s, untraced " << wall_plain << " s\n";
    Values v = plain.model;
    for (const auto &[k, x] : w->setupLayer())
        v[k] = x;
    for (const auto &[k, x] : traced.layer)
        v[k] = x;
    if (!plain.requestMs.empty()) {
        v["host_req_p50_ms"] = cllm::percentile(plain.requestMs, 50.0);
        v["host_req_p99_ms"] = cllm::percentile(plain.requestMs, 99.0);
    }
    v["par.threads"] = cllm::par::threadCount();
    v["par.cpu_per_wall"] = cpu_plain / wall_plain;
    v["trace.overhead_ratio"] = wall_traced / wall_plain;
    // A layer the workload never enters reads 0.
    for (const MetricSpec &s : perLayerMetrics())
        v.emplace(s.name, 0.0);
    report(perLayerMetrics(), v, totals);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: cllm_perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n";
        return 2;
    }
    WorkloadOptions opt;
    opt.seed = args.seed;
    std::unique_ptr<Workload> probe = makeWorkload(args.workload, opt);
    if (!probe) {
        std::cerr << "unknown workload '" << args.workload << "'; one of:";
        for (const std::string &n : workloadNames())
            std::cerr << " " << n;
        std::cerr << "\n";
        return 2;
    }
    cllm::par::setThreadCount(probe->threads());
    probe.reset();
    return args.trace ? runTraced(args, opt) : runEndToEnd(args, opt);
}
