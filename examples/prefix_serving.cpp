/**
 * @file
 * Prefix-caching walkthrough: what radix-tree KV reuse buys a TDX
 * serving instance when many requests open with the same system
 * prompt. The same shared-prompt Poisson trace replays twice against
 * one paged-KV server — caching off, then caching on — and the
 * example prints the differential: identical completions (same
 * requests, same token counts), strictly fewer prefill tokens
 * actually computed, and the TTFT improvement the skipped prefill
 * buys under the enclave's memory-encryption tax.
 *
 * Flags (all optional; defaults give a representative mix):
 *   --prefix <off|per_tenant|global>   sharing scope (default
 *                                      per_tenant)
 *   --prefix-tenants N / --prefix-len N / --prefix-share F
 *                                      shape of the shared-prompt mix
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "fleet/presets.hh"
#include "serve/serving.hh"
#include "util/table.hh"

using namespace cllm;
using namespace cllm::serve;

namespace {

ServeMetrics
replay(const std::vector<Request> &trace, PrefixMode mode)
{
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = fleet::serveDeployParams(cpu);

    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = 2560;
    cfg.kvBlockTokens = 16;
    bench::applyPagedKv(cfg, model);
    cfg.prefixMode = mode;

    Server server(
        makeCpuStepModel(cpu, bench::sharedBackend(tee::makeTdx()),
                         model, deploy),
        cfg);
    return server.run(trace);
}

} // namespace

int
main(int argc, char **argv)
{
    PrefixMode mode = PrefixMode::PerTenant;
    SharedPrefixMix mix;
    bench::parseFlags(
        argc, argv,
        {"usage: prefix_serving [options]\n\n",
         bench::joinFlags({bench::prefixModeFlag(mode)},
                          bench::prefixMixFlags(mix))});

    // The shared-system-prompt mix: a few tenants, each fronting
    // most of its requests with a fixed couple-hundred-token prompt.
    std::vector<Request> trace =
        generateWorkload(bench::serveSeedWorkload());
    applySharedPrefixMix(trace, mix);

    std::cout << "Prefix caching on a TDX instance (Llama2-7B "
                 "bf16, paged KV)\n";
    std::cout << mix.tenants << " tenants, "
              << mix.prefixLen
              << "-token shared system prompts, "
              << fmtPct(100.0 * mix.sharedFraction)
              << " of requests shared\n\n";

    const ServeMetrics off = replay(trace, PrefixMode::Off);
    const ServeMetrics on =
        mode == PrefixMode::Off
            ? off
            : replay(trace, mode);

    Table t({"prefix cache", "completed", "output tok",
             "prefill tok computed", "TTFT p50 [s]",
             "TTFT p95 [s]", "tok/s"});
    t.addRow({"off", fmtInt(off.completed),
              fmtInt(off.outputTokens),
              fmtInt(off.prefillTokensComputed),
              fmt(off.ttft.p50, 3), fmt(off.ttft.p95, 3),
              fmt(off.tokensPerSecond)});
    t.addRow({prefixModeName(mode), fmtInt(on.completed),
              fmtInt(on.outputTokens),
              fmtInt(on.prefillTokensComputed),
              fmt(on.ttft.p50, 3), fmt(on.ttft.p95, 3),
              fmt(on.tokensPerSecond)});
    t.print(std::cout);

    if (mode != PrefixMode::Off) {
        const std::size_t matches = on.prefixHits + on.prefixMisses;
        std::cout << "\nradix cache: " << fmtInt(on.prefixHits)
                  << " hits / " << fmtInt(matches) << " admissions ("
                  << (matches ? fmtPct(100.0 * on.prefixHits /
                                       static_cast<double>(matches))
                              : std::string("-"))
                  << "), " << fmtInt(on.prefixCachedTokens)
                  << " prompt tokens served from cache, "
                  << fmtInt(on.prefixEvictions)
                  << " evictions, peak "
                  << fmtInt(on.prefixPinnedPeak)
                  << " pinned blocks\n";
        std::cout << "differential: completions identical ("
                  << fmtInt(on.completed) << " requests, "
                  << fmtInt(on.outputTokens)
                  << " output tokens in both runs); cache-on "
                     "computed "
                  << fmtInt(off.prefillTokensComputed -
                            on.prefillTokensComputed)
                  << " fewer prefill tokens\n";
        if (on.completed != off.completed ||
            on.outputTokens != off.outputTokens) {
            std::cerr << "differential FAILED: completions "
                         "diverged between cache-off and "
                         "cache-on\n";
            return 1;
        }
    }

    std::cout << "\nA hit pins nothing new: the matched blocks' "
                 "refcounts already hold them; only the uncached "
                 "prompt tail is prefilled (and pays the "
                 "memory-encryption tax).\n";
    return 0;
}
