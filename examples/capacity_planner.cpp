/**
 * @file
 * Confidential-serving capacity planner, applying the paper's cost
 * methodology (Section V-D): given a workload shape (batch size,
 * input/output lengths), sweep core counts on CPU TEEs and compare
 * against a confidential H100, reporting $/1M tokens and the cheapest
 * compliant deployment — Insight 11 in executable form.
 *
 * Usage: capacity_planner [batch [input_tokens]]   (default 4 128)
 */

#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace cllm;

namespace {

/** A positional operand: a whole number of at least 1. */
unsigned
positiveOperand(const char *name, const char *text)
{
    const unsigned v = bench::parseNumber<unsigned>(name, text);
    if (v == 0)
        cllm_fatal(name, " must be at least 1");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr const char *kUsage =
        "usage: capacity_planner [batch [input_tokens]]\n";
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        std::cout << kUsage;
        return 0;
    }
    if (argc > 3) {
        std::cerr << kUsage;
        return 2;
    }
    const unsigned batch =
        argc > 1 ? positiveOperand("batch", argv[1]) : 4;
    const unsigned in_len =
        argc > 2 ? positiveOperand("input_tokens", argv[2]) : 128;

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const cost::CpuPricing cpu_price = cost::gcpSpotUsEast1();
    const cost::GpuPricing gpu_price = cost::cgpuH100();
    const double mem_gb = 128.0;

    std::cout << "Planning for Llama2-7B bf16, batch " << batch
              << ", input " << in_len << ", output 128\n\n";

    Table t({"deployment", "tok/s", "$ / 1M tokens", "secure"});

    double best_cost = std::numeric_limits<double>::infinity();
    std::string best;

    for (unsigned cores : {8u, 16u, 24u, 32u, 48u}) {
        if (cores > cpu.coresPerSocket)
            continue;
        llm::RunParams p;
        p.batch = batch;
        p.inLen = in_len;
        p.outLen = 128;
        p.sockets = 1;
        p.cores = cores;
        const auto r = exp.runCpu(cpu, core::Backend::Tdx, model, p);
        const double usd = core::Experiment::cpuCostPerMTokens(
            r, cpu_price, cores, mem_gb);
        const std::string name =
            "TDX " + std::to_string(cores) + " vCPU";
        t.addRow({name, fmt(r.timing.e2eTput), fmt(usd, 3), "yes"});
        if (usd < best_cost) {
            best_cost = usd;
            best = name;
        }
    }

    llm::GpuRunParams g;
    g.batch = batch;
    g.inLen = in_len;
    g.outLen = 128;
    g.confidential = true;
    const auto gr = exp.runGpu(hw::h100Nvl(), model, g);
    const double gpu_usd =
        core::Experiment::gpuCostPerMTokens(gr, gpu_price);
    t.addRow({"cGPU H100", fmt(gr.timing.e2eTput), fmt(gpu_usd, 3),
              "partial (HBM clear)"});
    if (gpu_usd < best_cost) {
        best_cost = gpu_usd;
        best = "cGPU H100";
    }

    t.print(std::cout);
    std::cout << "\ncheapest: " << best << " at $" << fmt(best_cost, 3)
              << " per 1M tokens\n";
    return 0;
}
