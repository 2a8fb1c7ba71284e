/**
 * @file
 * cllm sweep tool: a small CLI over the public API so deployments can
 * be explored without writing C++. Prints one row per configuration,
 * optionally as CSV. `sweep_tool --help` lists the flags; a malformed
 * or out-of-range operand is fatal and names the flag.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace cllm;

namespace {

/** `--batch N[,N...]`: every entry a whole number of at least 1. */
std::vector<unsigned>
parseBatchList(const std::string &s)
{
    std::vector<unsigned> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const unsigned batch =
            bench::parseNumber<unsigned>("--batch", item.c_str());
        if (batch == 0)
            cllm_fatal("--batch entries must be at least 1");
        out.push_back(batch);
    }
    if (out.empty())
        cllm_fatal("--batch needs at least one size");
    return out;
}

llm::ModelConfig
modelByName(const std::string &name)
{
    if (name == "7b")
        return llm::llama2_7b();
    if (name == "13b")
        return llm::llama2_13b();
    if (name == "70b")
        return llm::llama2_70b();
    if (name == "llama3")
        return llm::llama3_8b();
    if (name == "gptj")
        return llm::gptj_6b();
    if (name == "falcon")
        return llm::falcon_7b();
    cllm_fatal("unknown model '", name,
               "' (7b|13b|70b|llama3|gptj|falcon)");
}

hw::CpuSpec
machineByName(const std::string &name)
{
    if (name == "emr1")
        return hw::emr1();
    if (name == "emr2")
        return hw::emr2();
    if (name == "spr")
        return hw::spr();
    cllm_fatal("unknown machine '", name, "' (emr1|emr2|spr)");
}

hw::Dtype
dtypeByName(const std::string &name)
{
    if (name == "fp32")
        return hw::Dtype::Fp32;
    if (name == "bf16")
        return hw::Dtype::Bf16;
    if (name == "int8")
        return hw::Dtype::Int8;
    cllm_fatal("unknown dtype '", name, "' (fp32|bf16|int8)");
}

std::vector<core::Backend>
backendsByName(const std::string &name)
{
    if (name == "bare")
        return {core::Backend::Bare};
    if (name == "vm")
        return {core::Backend::Vm};
    if (name == "vmth")
        return {core::Backend::VmTh};
    if (name == "vmnb")
        return {core::Backend::VmNb};
    if (name == "sgx")
        return {core::Backend::Sgx};
    if (name == "tdx")
        return {core::Backend::Tdx};
    if (name == "all") {
        return {core::Backend::Bare, core::Backend::Vm,
                core::Backend::Sgx, core::Backend::Tdx};
    }
    cllm_fatal("unknown backend '", name, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model_name = "7b", machine_name = "emr1";
    std::string backend_name = "all", dtype_name = "bf16";
    std::string batch_list = "1";
    unsigned in_len = 1024, out_len = 128, beam = 1;
    unsigned sockets = 1, cores = 0;
    bool no_amx = false, csv = false;

    bench::parseFlags(
        argc, argv,
        {"usage: sweep_tool [options]\n\n",
         {
             {"--model", "<7b|13b|70b|llama3|gptj|falcon>",
              "model to price (default 7b)", &model_name},
             {"--machine", "<emr1|emr2|spr>", "host CPU (default emr1)",
              &machine_name},
             {"--backend", "<bare|vm|vmth|vmnb|sgx|tdx|all>",
              "deployment to price (default all)", &backend_name},
             {"--dtype", "<fp32|bf16|int8>", "weight type (default bf16)",
              &dtype_name},
             {"--batch", "N[,N...]", "batch sizes to sweep (default 1)",
              &batch_list},
             {"--input", "N", "prompt tokens (default 1024)", &in_len,
              {1}},
             {"--output", "N", "generated tokens (default 128)",
              &out_len, {1}},
             {"--beam", "N", "beam width (default 1)", &beam, {1}},
             {"--sockets", "N", "sockets (default 1)", &sockets, {1}},
             {"--cores", "N", "cores in use, 0 = all (default 0)",
              &cores},
             {"--no-amx", "", "price without AMX", &no_amx},
             {"--csv", "", "print the table as CSV", &csv},
             {"--help", "", "show this help"},
         }});
    const std::vector<unsigned> batches = parseBatchList(batch_list);
    const bool amx = !no_amx;

    const llm::ModelConfig model = modelByName(model_name);
    const hw::CpuSpec cpu = machineByName(machine_name);
    const auto backends = backendsByName(backend_name);

    core::Experiment exp;
    Table t({"backend", "batch", "tput [tok/s]", "e2e [tok/s]",
             "latency [ms/tok]", "overhead vs bare"});
    for (unsigned batch : batches) {
        llm::RunParams p;
        p.batch = batch;
        p.beam = beam;
        p.inLen = in_len;
        p.outLen = out_len;
        p.dtype = dtypeByName(dtype_name);
        p.amx = amx;
        p.sockets = sockets;
        p.cores = cores;
        const auto bare =
            exp.runCpu(cpu, core::Backend::Bare, model, p);
        for (core::Backend b : backends) {
            const auto r = exp.runCpu(cpu, b, model, p);
            t.addRow({r.backend, std::to_string(batch),
                      fmt(r.timing.decodeTput), fmt(r.timing.e2eTput),
                      fmt(1e3 * r.timing.meanTokenLatency),
                      fmtPct(core::Experiment::compare(r, bare)
                                 .tputOverheadPct)});
        }
    }
    std::cout << model.name << " on " << cpu.name << ", "
              << dtype_name << (amx ? " (AMX)" : " (no AMX)") << "\n";
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    return 0;
}
