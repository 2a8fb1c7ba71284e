#include "fleet/presets.hh"

#include "cost/pricing.hh"
#include "serve/serving.hh"

namespace cllm::fleet {

llm::RunParams
serveDeployParams(const hw::CpuSpec &cpu)
{
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return p;
}

NodeTemplate
cpuTdxNode()
{
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = serveDeployParams(cpu);

    NodeTemplate t;
    t.name = "cpu-tdx";
    t.makeStep = [cpu, model, deploy] {
        return serve::makeCpuStepModel(
            cpu,
            std::shared_ptr<const tee::TeeBackend>(tee::makeTdx()),
            model, deploy);
    };
    t.server.policy = serve::BatchPolicy::Continuous;
    t.server.kvBlocks = 4096;
    t.server.kvBlockTokens = 16;
    t.server.weightBytes = model.weightBytes(hw::Dtype::Bf16);
    t.pricePerHour = cost::cpuInstanceHr(cost::gcpSpotUsEast1(),
                                         deploy.cores, 128.0);
    return t;
}

NodeTemplate
cgpuH100Node()
{
    const llm::ModelConfig model = llm::llama2_7b();

    NodeTemplate t;
    t.name = "cgpu-h100";
    t.makeStep = [model] {
        return serve::makeGpuStepModel(hw::h100Nvl(), true, model,
                                       hw::Dtype::Bf16);
    };
    t.server.policy = serve::BatchPolicy::Continuous;
    t.server.kvBlocks = 16384;
    t.server.kvBlockTokens = 16;
    t.server.weightBytes = model.weightBytes(hw::Dtype::Bf16);
    t.pricePerHour = cost::cgpuH100().instanceHr;
    return t;
}

} // namespace cllm::fleet
