/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 */

#ifndef CLLM_BENCH_BENCH_UTIL_HH
#define CLLM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/experiment.hh"
#include "llm/perf_cluster.hh"
#include "obs/metrics.hh"
#include "par/pool.hh"
#include "serve/serving.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace cllm::bench {

/**
 * Evaluate `fn(i)` for every grid point i in [0, n) on the cllm::par
 * pool and return the results in index order. The sweep binaries use
 * this to fan their parameter grids out across cores: each grid
 * point's computation is independent and deterministic (any nested
 * parallelFor inside `fn` runs inline on the worker), so the returned
 * vector is identical to a serial sweep — only the wall-clock drops.
 * Print from the returned vector, never from inside `fn`.
 */
template <typename T, typename Fn>
std::vector<T>
runGrid(std::size_t n, Fn &&fn)
{
    std::vector<T> out(n);
    par::parallelFor(0, n, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            out[i] = fn(i);
    });
    return out;
}

/**
 * Observability flags shared by the bench binaries. Both are strictly
 * additive: with neither flag the binaries' stdout stays byte-
 * identical to the untraced build.
 */
struct ObsOptions
{
    bool trace = false;     //!< record a sim trace and export it
    std::string tracePath;  //!< "" = $CLLM_TRACE_OUT, then default
    std::string metricsOut; //!< "" = no registry snapshot
};

/**
 * Dump the global metrics registry as JSON to `path`; no-op when
 * `path` is empty.
 */
inline void
writeMetricsSnapshot(const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream f(path);
    if (!f)
        cllm_fatal("cannot open metrics output: ", path);
    JsonWriter json(f);
    obs::Registry::global().snapshot(json);
    f << "\n";
}

/** Print the standard bench banner. */
inline void
banner(const std::string &artefact, const std::string &what,
       const std::string &paper_band)
{
    std::cout << "=== " << artefact << ": " << what << " ===\n";
    if (!paper_band.empty())
        std::cout << "paper reports: " << paper_band << "\n";
    std::cout << "\n";
}

/** Throughput run parameters used across the CPU figures. */
inline llm::RunParams
throughputParams(const hw::CpuSpec &cpu, unsigned sockets = 1)
{
    llm::RunParams p;
    p.batch = 6;
    p.beam = 4;
    p.inLen = 1024;
    p.outLen = 128;
    p.sockets = sockets;
    p.cores = sockets * cpu.coresPerSocket;
    return p;
}

/** Latency run parameters (batch 1, beam 1). */
inline llm::RunParams
latencyParams(const hw::CpuSpec &cpu, unsigned sockets = 1)
{
    llm::RunParams p = throughputParams(cpu, sockets);
    p.batch = 1;
    p.beam = 1;
    return p;
}

/**
 * Switch a server config to the paged-KV discipline, pricing swap
 * traffic with the model's real per-token KV footprint. The preempt
 * policy stays whatever the caller set (recompute by default).
 */
inline void
applyPagedKv(serve::ServerConfig &cfg, const llm::ModelConfig &model,
             hw::Dtype dtype = hw::Dtype::Bf16)
{
    cfg.kvMode = serve::KvMode::Paged;
    cfg.paged.kvBytesPerToken = model.kvBytesPerToken(dtype);
}

/**
 * One command-line flag of a bench binary: its name, operand hint,
 * help text, and the field it writes. The field is the real policy
 * member (`serve::ChunkedPrefillPolicy::chunkTokens`, ...), so a
 * parsed table needs no copying back. An empty operand hint marks a
 * switch, which sets its `bool` field; a bracketed hint (`[seed]`)
 * marks an optional operand, taken only when the next argument is
 * not a flag. `seen`, when set, records that the flag appeared.
 */
struct Flag
{
    /** Accepted range of a numeric operand; `open` excludes both
     *  ends. */
    struct Range
    {
        double lo = 0.0;
        double hi = std::numeric_limits<double>::infinity();
        bool open = false;
    };

    using Field =
        std::variant<bool *, unsigned *, std::uint64_t *, double *,
                     std::string *, serve::KvMode *, serve::PrefixMode *,
                     serve::ChunkMode *>;

    const char *name;
    const char *operand;
    const char *help; //!< '\n' starts an indented continuation line
    Field field{};
    Range range{};
    bool *seen = nullptr;
};

/** A binary's flags, in `--help` order, under its synopsis. */
struct FlagTable
{
    const char *synopsis; //!< printed verbatim before the flag rows
    std::vector<Flag> flags;
};

/** Concatenate flag groups into one table body. */
template <typename... Groups>
std::vector<Flag>
joinFlags(std::vector<Flag> first, const Groups &...rest)
{
    (first.insert(first.end(), rest.begin(), rest.end()), ...);
    return first;
}

/** Print the synopsis, then one help entry per flag. */
inline void
printUsage(std::ostream &os, const FlagTable &table)
{
    constexpr std::size_t kHelpColumn = 22;
    os << table.synopsis;
    for (const Flag &f : table.flags) {
        std::string head = std::string("  ") + f.name;
        if (*f.operand)
            head = head + " " + f.operand;
        os << head;
        if (head.size() < kHelpColumn)
            os << std::string(kHelpColumn - head.size(), ' ');
        else
            os << "\n" << std::string(kHelpColumn, ' ');
        for (const char *c = f.help; *c; ++c) {
            os << *c;
            if (*c == '\n')
                os << std::string(kHelpColumn, ' ');
        }
        os << "\n";
    }
}

/**
 * Parse a whole operand as a number of type T. Anything else is fatal
 * and names the flag: trailing junk (`12x`), a sign on an unsigned
 * value, a value the type cannot hold, or a non-finite double.
 */
template <typename T>
T
parseNumber(const char *flag, const char *text)
{
    T value{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    const bool whole = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) {
        if (!whole || !std::isfinite(value))
            cllm_fatal(flag, " expects a finite number, got '", text,
                       "'");
    } else if (!whole) {
        cllm_fatal(flag, " expects an integer in [0, ",
                   std::numeric_limits<T>::max(), "], got '", text, "'");
    }
    return value;
}

/** Fatal, naming the flag, when `value` lies outside its range. */
inline void
checkRange(const Flag &f, double value)
{
    const Flag::Range &r = f.range;
    const bool ok = r.open ? value > r.lo && value < r.hi
                           : value >= r.lo && value <= r.hi;
    if (ok)
        return;
    if (std::isinf(r.hi))
        cllm_fatal(f.name, " must be at least ", r.lo);
    cllm_fatal(f.name, " outside ", r.open ? "(" : "[", r.lo, ", ", r.hi,
               r.open ? ")" : "]");
}

/** Write one operand into a flag's field, by the field's type. */
inline void
setField(const Flag &, const char *, bool &on)
{
    on = true;
}

inline void
setField(const Flag &f, const char *text, unsigned &v)
{
    v = parseNumber<unsigned>(f.name, text);
    checkRange(f, v);
}

inline void
setField(const Flag &f, const char *text, std::uint64_t &v)
{
    v = parseNumber<std::uint64_t>(f.name, text);
}

inline void
setField(const Flag &f, const char *text, double &v)
{
    v = parseNumber<double>(f.name, text);
    checkRange(f, v);
}

inline void
setField(const Flag &, const char *text, std::string &v)
{
    v = text;
}

inline void
setField(const Flag &, const char *text, serve::KvMode &v)
{
    v = serve::parseKvMode(text);
}

inline void
setField(const Flag &, const char *text, serve::PrefixMode &v)
{
    v = serve::parsePrefixMode(text);
}

inline void
setField(const Flag &, const char *text, serve::ChunkMode &v)
{
    v = serve::parseChunkMode(text);
}

/**
 * Parse argv against `table`, writing each flag's field in place.
 * `--help`/`-h` prints the usage to stdout and exits 0; an unknown
 * argument prints the usage to stderr and exits 2; a missing or
 * malformed operand is fatal and names the flag.
 */
inline void
parseFlags(int argc, char **argv, const FlagTable &table)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout, table);
            std::exit(0);
        }
        const auto it =
            std::find_if(table.flags.begin(), table.flags.end(),
                         [&](const Flag &f) { return arg == f.name; });
        if (it == table.flags.end()) {
            std::cerr << "unknown argument '" << arg << "'\n";
            printUsage(std::cerr, table);
            std::exit(2);
        }
        const Flag &f = *it;
        if (f.seen)
            *f.seen = true;
        const char *text = nullptr;
        if (f.operand[0] == '[') {
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                text = argv[++i];
        } else if (*f.operand) {
            if (i + 1 >= argc)
                cllm_fatal(f.name, " needs an operand (", f.operand,
                           ")");
            text = argv[++i];
        }
        if (text || !*f.operand)
            std::visit([&](auto *field) { setField(f, text, *field); },
                       f.field);
    }
}

/** `--prefix`: the prefix-cache sharing scope. */
inline Flag
prefixModeFlag(serve::PrefixMode &mode)
{
    return {"--prefix", "<off|per_tenant|global>",
            "enable radix-tree prefix KV caching with the given\n"
            "sharing scope (requires --kv paged)",
            &mode};
}

/** The shape of the shared-system-prompt mix. */
inline std::vector<Flag>
prefixMixFlags(serve::SharedPrefixMix &mix)
{
    return {
        {"--prefix-tenants", "N",
         "tenants in the shared-prompt mix (default 4)", &mix.tenants,
         {1}},
        {"--prefix-len", "N",
         "shared system-prompt length in tokens (default 256)",
         &mix.prefixLen},
        {"--prefix-share", "F",
         "fraction of requests opening with a shared prompt\n"
         "(default 0.85)",
         &mix.sharedFraction, {0.0, 1.0}},
    };
}

/** Chunked prefill; defaults leave it off. */
inline std::vector<Flag>
chunkFlags(serve::ChunkedPrefillPolicy &chunk)
{
    return {
        {"--chunk", "<off|decode|prefill>",
         "enable chunked prefill with mixed prefill/decode\n"
         "steps under the given scheduling priority",
         &chunk.mode},
        {"--chunk-tokens", "N",
         "max prompt tokens per prefill slice (default 256)",
         &chunk.chunkTokens, {1}},
        {"--chunk-budget", "N",
         "per-step token budget (default: chunk + batch)",
         &chunk.stepTokenBudget},
    };
}

/** Speculative decoding; defaults leave it off. */
inline std::vector<Flag>
specFlags(serve::SpecDecodePolicy &spec)
{
    return {
        {"--spec", "",
         "enable speculative decoding (draft + fused verify\n"
         "steps; amortizes per-step TEE overheads)",
         &spec.enabled},
        {"--spec-k", "N", "draft tokens per verify cycle (default 4)",
         &spec.draftTokens, {1}},
        {"--spec-ratio", "F",
         "draft-model cost as a fraction of the target's\n"
         "decode step, in (0, 1) (default 0.15)",
         &spec.draftCostRatio, {0.0, 1.0, true}},
        {"--spec-accept", "F",
         "per-position draft acceptance probability, in\n"
         "[0, 1] (default 0.7)",
         &spec.acceptProb, {0.0, 1.0}},
    };
}

/** Trace and metrics export, plus the `--help` entry. */
inline std::vector<Flag>
obsFlags(ObsOptions &obs)
{
    return {
        {"--trace", "[path]",
         "record a sim-time trace and write Chrome trace-event\n"
         "JSON (chrome://tracing / Perfetto); path defaults to\n"
         "$CLLM_TRACE_OUT, then to <bench>.trace.json",
         &obs.tracePath, {}, &obs.trace},
        {"--metrics-out", "path",
         "write the metrics-registry snapshot (counters,\n"
         "gauges, histograms) as JSON to path",
         &obs.metricsOut},
        {"--help", "", "show this help"},
    };
}

/** Shared-ownership wrapper around a freshly built TEE backend. */
inline std::shared_ptr<const tee::TeeBackend>
sharedBackend(std::unique_ptr<tee::TeeBackend> p)
{
    return std::shared_ptr<const tee::TeeBackend>(std::move(p));
}

/** The seed-99 trace replayed by the serving and fleet studies:
 *  Poisson 0.45 req/s, 250 requests, 512 in / 128 out tokens. */
inline serve::WorkloadConfig
serveSeedWorkload()
{
    serve::WorkloadConfig load;
    load.arrivalRate = 0.45;
    load.numRequests = 250;
    load.meanInLen = 512;
    load.meanOutLen = 128;
    load.seed = 99;
    return load;
}

/** Scale-out request shape (Section V-D4): batch 4, 512 in /
 *  128 out. */
inline llm::ClusterRunParams
scaleoutClusterParams()
{
    llm::ClusterRunParams p;
    p.batch = 4;
    p.inLen = 512;
    p.outLen = 128;
    return p;
}

/** The CPU counterpart of the scale-out shape: two sockets, all
 *  cores. */
inline llm::RunParams
scaleoutCpuParams(const hw::CpuSpec &cpu)
{
    llm::RunParams p;
    p.batch = 4;
    p.inLen = 512;
    p.outLen = 128;
    p.sockets = 2;
    p.cores = cpu.totalCores();
    return p;
}

} // namespace cllm::bench

#endif // CLLM_BENCH_BENCH_UTIL_HH
