/**
 * @file
 * Tests of the benchmark itself: the step-model probe is
 * output-neutral, a seed fixes every modelled figure, another seed
 * changes the trace, and the workloads' correctness checks pass.
 * Workloads run scaled down. Build the perfbench_tests target and run
 * it (or ctest) from the benchmark's build directory.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "hw/cpu.hh"
#include "hw/gpu.hh"
#include "llm/model_config.hh"
#include "par/pool.hh"
#include "probe.hh"
#include "serve/serving.hh"
#include "tee/backend.hh"
#include "workload.hh"

using namespace cllm;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("  FAILED: %s\n", what.c_str());
    }
}

/** Workload sizes the tests run at. */
double
testScale(const std::string &name)
{
    if (name == "confidential_rag")
        return 0.03;
    return name == "fleet_mixed" ? 0.2 : 0.12;
}

RepOutcome
runOnce(const std::string &name, std::uint64_t seed, bool traced)
{
    WorkloadOptions opt;
    opt.seed = seed;
    opt.scale = testScale(name);
    std::unique_ptr<Workload> w = makeWorkload(name, opt);
    par::setThreadCount(w->threads());
    w->setup(traced);
    return w->run(traced);
}

std::unique_ptr<serve::StepModel>
cpuTdxStep()
{
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return serve::makeCpuStepModel(
        cpu, std::shared_ptr<const tee::TeeBackend>(tee::makeTdx()),
        llm::llama2_7b(), p);
}

std::unique_ptr<serve::StepModel>
gpuCcStep()
{
    return serve::makeGpuStepModel(hw::h100Nvl(), true, llm::llama2_7b(),
                                   hw::Dtype::Bf16);
}

/** Every virtual returns the wrapped model's value, bit for bit. */
void
testProbeForwardsAllVirtuals()
{
    for (auto make : {cpuTdxStep, gpuCcStep}) {
        const std::unique_ptr<serve::StepModel> plain = make();
        StepTally tally;
        const ProbeStepModel probe(make(), tally);
        std::size_t n = 0;
        for (unsigned len : {1u, 17u, 512u, 1500u}) {
            expect(probe.prefill(len) == plain->prefill(len), "prefill");
            expect(probe.prefillFrom(len / 2, len) ==
                       plain->prefillFrom(len / 2, len),
                   "prefillFrom");
            for (bool shared : {false, true})
                expect(probe.prefillChunk(len, 256, shared) ==
                           plain->prefillChunk(len, 256, shared),
                       "prefillChunk");
            for (double nseq : {1.0, 7.0, 32.0}) {
                expect(probe.decodeStep(nseq, len) ==
                           plain->decodeStep(nseq, len),
                       "decodeStep");
                for (double k : {0.0, 4.0})
                    expect(probe.verifyStep(nseq, k, len) ==
                               plain->verifyStep(nseq, k, len),
                           "verifyStep");
            }
            ++n;
        }
        const auto calls = [&](StepCall c) {
            return tally.calls[static_cast<std::size_t>(c)];
        };
        expect(calls(StepCall::Prefill) == n, "prefill counted once each");
        expect(calls(StepCall::PrefillFrom) == n, "prefillFrom counted");
        expect(calls(StepCall::PrefillChunk) == 2 * n, "prefillChunk counted");
        expect(calls(StepCall::Decode) == 3 * n, "decodeStep counted");
        expect(calls(StepCall::Verify) == 6 * n, "verifyStep counted");
    }
}

/** A feature-on server prices identically with the probe attached. */
void
testProbeNeutralServer()
{
    serve::ServerConfig cfg;
    cfg.kvBlocks = 768;
    cfg.kvMode = serve::KvMode::Paged;
    cfg.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
    cfg.prefixMode = serve::PrefixMode::PerTenant;
    cfg.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
    cfg.specDecode.enabled = true;
    serve::WorkloadConfig load;
    load.arrivalRate = 0.6;
    load.numRequests = 300;
    std::vector<serve::Request> trace = serve::generateWorkload(load);
    serve::applySharedPrefixMix(trace, serve::SharedPrefixMix{});

    StepTally tally;
    const serve::ServeMetrics a =
        serve::Server(cpuTdxStep(), cfg).run(trace);
    const serve::ServeMetrics b =
        serve::Server(std::make_unique<ProbeStepModel>(cpuTdxStep(), tally),
                      cfg)
            .run(trace);
    expect(a.makespan == b.makespan, "server makespan");
    expect(a.ttft.p99 == b.ttft.p99 && a.itl.p99 == b.itl.p99,
           "server TTFT/ITL p99");
    expect(a.sloAttainment == b.sloAttainment, "server SLO attainment");
    expect(a.decodeSteps == b.decodeSteps &&
               a.specAccepted == b.specAccepted &&
               a.chunkSlices == b.chunkSlices,
           "server step and feature counts");
    // The run must have gone through the overridden virtuals.
    expect(tally.calls[static_cast<std::size_t>(StepCall::Verify)] > 0,
           "verifyStep exercised");
    expect(tally.calls[static_cast<std::size_t>(StepCall::PrefillChunk)] > 0,
           "prefillChunk exercised");
}

void
testWorkload(const std::string &name)
{
    const RepOutcome a = runOnce(name, 5, false);
    const RepOutcome b = runOnce(name, 5, false);
    const RepOutcome traced = runOnce(name, 5, true);
    const RepOutcome other = runOnce(name, 6, false);

    expect(a.checkFailures.empty() && a.failed == 0 && a.attempted > 0,
           name + ": correctness checks pass");
    for (const std::string &f : a.checkFailures)
        std::printf("    %s\n", f.c_str());
    expect(!a.model.empty() && a.model == b.model,
           name + ": same seed gives identical modelled values");
    expect(a.model == traced.model,
           name + ": tracing leaves modelled values unchanged");
    expect(!traced.layer.empty() && a.layer.empty(),
           name + ": only the traced run fills per-layer values");
    expect(a.model.at("model_ttft_p99_s") != other.model.at("model_ttft_p99_s"),
           name + ": another seed changes the trace");
}

} // namespace

int
main()
{
    const std::vector<std::pair<std::string, std::function<void()>>> tests = {
        {"probe forwards all five virtuals", testProbeForwardsAllVirtuals},
        {"probe is output-neutral on a feature-on server",
         testProbeNeutralServer},
        {"fleet_mixed", [] { testWorkload("fleet_mixed"); }},
        {"serve_features", [] { testWorkload("serve_features"); }},
        {"confidential_rag", [] { testWorkload("confidential_rag"); }},
    };
    for (const auto &[name, fn] : tests) {
        const int before = failures;
        fn();
        std::printf("%s %s\n", failures == before ? "ok  " : "FAIL",
                    name.c_str());
    }
    return failures ? 1 : 0;
}
