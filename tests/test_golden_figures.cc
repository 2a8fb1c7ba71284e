/**
 * @file
 * Golden regression tests: replay the fig01/fig09-style experiment
 * grids and the seed serving trace through the public APIs and compare
 * every number against checked-in expectations in `tests/golden/`.
 * A tight relative tolerance means timing-model refactors cannot
 * silently move the reproduced paper shapes; the serving goldens were
 * captured before the fault layer existed, so they also prove that a
 * fault-free `serve::Server` still produces the exact same metrics.
 *
 * To regenerate after an intentional model change:
 *
 *     CLLM_REGEN_GOLDEN=1 ./build/tests/test_golden_figures
 *
 * then review the JSON diff like any other code change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "bench/bench_util.hh"
#include "golden_util.hh"
#include "core/experiment.hh"
#include "fleet/presets.hh"
#include "serve/serving.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::serve;

namespace {

void
dumpServe(std::map<std::string, double> &out, const std::string &name,
          const ServeMetrics &m)
{
    out[name + ".completed"] = static_cast<double>(m.completed);
    out[name + ".makespan"] = m.makespan;
    out[name + ".kvUtilizationPeak"] = m.kvUtilizationPeak;
    out[name + ".tokensPerSecond"] = m.tokensPerSecond;
    out[name + ".ttft.mean"] = m.ttft.mean;
    out[name + ".ttft.p50"] = m.ttft.p50;
    out[name + ".ttft.p95"] = m.ttft.p95;
    out[name + ".tpot.mean"] = m.tpot.mean;
    out[name + ".tpot.p95"] = m.tpot.p95;
    out[name + ".sloAttainment"] = m.sloAttainment;
    out[name + ".meanBatchOccupancy"] = m.meanBatchOccupancy;
}

/** The seed serving trace, with faults and policy left at defaults. */
std::map<std::string, double>
collectServe()
{
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = fleet::serveDeployParams(cpu);
    const WorkloadConfig load = bench::serveSeedWorkload();

    std::map<std::string, double> out;
    {
        ServerConfig cfg;
        cfg.policy = BatchPolicy::Continuous;
        Server s(makeCpuStepModel(cpu, bench::sharedBackend(tee::makeTdx()), model,
                                  deploy),
                 cfg);
        dumpServe(out, "serve.tdx.continuous",
                  s.run(generateWorkload(load)));
    }
    {
        ServerConfig cfg;
        cfg.policy = BatchPolicy::Static;
        Server s(makeCpuStepModel(cpu, bench::sharedBackend(tee::makeTdx()), model,
                                  deploy),
                 cfg);
        dumpServe(out, "serve.tdx.static",
                  s.run(generateWorkload(load)));
    }
    {
        ServerConfig cfg;
        cfg.policy = BatchPolicy::Continuous;
        cfg.kvBlocks = 2048;
        cfg.kvBlockTokens = 16;
        Server s(makeCpuStepModel(cpu, bench::sharedBackend(tee::makeTdx()), model,
                                  deploy),
                 cfg);
        dumpServe(out, "serve.tdx.kv2048",
                  s.run(generateWorkload(load)));
    }
    return out;
}

/** The fig01 backend grid and fig09 batch-scaling curve on emr1. */
std::map<std::string, double>
collectFigures()
{
    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();
    const llm::ModelConfig model = llm::llama2_7b();
    llm::RunParams p;
    p.batch = 32;
    p.inLen = 1024;
    p.outLen = 128;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;

    std::map<std::string, double> out;
    for (auto b : {core::Backend::Bare, core::Backend::Vm,
                   core::Backend::Sgx, core::Backend::Tdx}) {
        const auto r = exp.runCpu(cpu, b, model, p);
        const std::string key =
            std::string("fig01.") + core::backendName(b);
        out[key + ".decodeTput"] = r.timing.decodeTput;
        out[key + ".meanTokenLatency"] = r.timing.meanTokenLatency;
        out[key + ".prefillSeconds"] = r.timing.prefillSeconds;
        out[key + ".e2eTput"] = r.timing.e2eTput;
    }
    for (unsigned batch : {1u, 4u, 16u, 64u}) {
        llm::RunParams q = p;
        q.batch = batch;
        for (auto b : {core::Backend::Bare, core::Backend::Tdx}) {
            const auto r = exp.runCpu(cpu, b, model, q);
            const std::string key = std::string("fig09.") +
                                    core::backendName(b) + ".b" +
                                    std::to_string(batch);
            out[key + ".decodeTput"] = r.timing.decodeTput;
            out[key + ".e2eTput"] = r.timing.e2eTput;
        }
    }
    return out;
}

} // namespace

TEST(GoldenFigures, ServeSeedTraceMatchesGolden)
{
    // These numbers predate the fault-injection layer; matching them
    // is the proof that the default (fault-free) serving path kept its
    // exact behaviour through the resilience refactor.
    cllm::testing::checkAgainstGolden("serve_seed.json", collectServe());
}

TEST(GoldenFigures, Fig01BackendGridMatchesGolden)
{
    auto figs = collectFigures();
    std::map<std::string, double> fig01;
    for (const auto &[k, v] : figs)
        if (k.rfind("fig01.", 0) == 0)
            fig01[k] = v;
    cllm::testing::checkAgainstGolden("fig01_backends.json", fig01);
}

TEST(GoldenFigures, Fig09BatchScalingMatchesGolden)
{
    auto figs = collectFigures();
    std::map<std::string, double> fig09;
    for (const auto &[k, v] : figs)
        if (k.rfind("fig09.", 0) == 0)
            fig09[k] = v;
    cllm::testing::checkAgainstGolden("fig09_batch_scaling.json", fig09);
}
