/**
 * @file
 * Canonical node templates for the fleet studies: the paper's two
 * confidential deployment archetypes priced with `cost::pricing` —
 * a one-socket EMR TDX machine (GCP spot) and a confidential H100
 * instance — both serving Llama2-7B bf16 with the serving studies'
 * deployment shape (1024 in / 256 out, batch 32).
 */

#ifndef CLLM_FLEET_PRESETS_HH
#define CLLM_FLEET_PRESETS_HH

#include "fleet/node.hh"

namespace cllm::fleet {

/** The serving studies' deployment shape on `cpu`: 1024 in / 256
 *  out, batch 32, one socket. */
llm::RunParams serveDeployParams(const hw::CpuSpec &cpu);

/** EMR2 × TDX × Llama2-7B, GCP us-east1 spot priced. */
NodeTemplate cpuTdxNode();

/** Confidential H100 (NCCads-class) × Llama2-7B. */
NodeTemplate cgpuH100Node();

} // namespace cllm::fleet

#endif // CLLM_FLEET_PRESETS_HH
