#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <ctime>

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"peak_rss_mb", "MB"},
        {"host_req_per_s", "1/s"},
        {"model_ttft_p50_s", "s"},
        {"model_ttft_p99_s", "s"},
        {"model_itl_p50_s", "s"},
        {"model_itl_p99_s", "s"},
        {"model_slo_attainment", "ratio"},
        {"model_cost_per_1k_tok_usd", "usd"},
        {"ok_frac", "ratio"},
    };
    return m;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> m = {
        // Workload-specific user-facing figures: every workload must
        // print every end-to-end metric, so these live here.
        {"host_req_p50_ms", "ms"},
        {"host_req_p99_ms", "ms"},
        {"model_max_rate_req_s", "1/s"},
        {"quality_ndcg10", "ratio"},
        {"model.ttft_samples", "count"},
        {"model.itl_samples", "count"},
        // serve::StepModel virtuals.
        {"llm.step_s", "s"},
        {"llm.calls.prefill", "count"},
        {"llm.calls.prefill_from", "count"},
        {"llm.calls.prefill_chunk", "count"},
        {"llm.calls.decode", "count"},
        {"llm.calls.verify", "count"},
        {"llm.ns_per_call.prefill", "ns"},
        {"llm.ns_per_call.prefill_chunk", "ns"},
        {"llm.ns_per_call.decode", "ns"},
        {"llm.ns_per_call.verify", "ns"},
        // FleetSimulator::run.
        {"fleet.run_s", "s"},
        {"fleet.self_s", "s"},
        {"fleet.finalize_s", "s"},
        {"fleet.events", "count"},
        {"fleet.ns_per_event", "ns"},
        {"fleet.nodes", "count"},
        {"fleet.itl_samples", "count"},
        // Server::run.
        {"serve.run_s", "s"},
        {"serve.self_s", "s"},
        {"serve.finalize_s", "s"},
        {"serve.decode_steps", "count"},
        {"serve.ns_per_step", "ns"},
        {"serve.batch_mean", "seqs"},
        {"serve.batch_peak", "seqs"},
        {"serve.prefix_hit_ratio", "ratio"},
        {"serve.prefix_token_ratio", "ratio"},
        {"serve.chunk_slices", "count"},
        {"serve.mixed_steps", "count"},
        {"serve.spec_accept_ratio", "ratio"},
        {"serve.spec_verify_steps", "count"},
        // Paged KV pool and prefix cache.
        {"mem.kv_util_mean", "ratio"},
        {"mem.kv_util_peak", "ratio"},
        {"mem.kv_preemptions", "count"},
        {"mem.kv_swap_outs", "count"},
        {"mem.prefix_evicted_blocks", "count"},
        {"mem.prefix_pinned_peak", "blocks"},
        // TinyLlama::forward / forwardBatch.
        {"llm.fwd_tokens", "count"},
        {"llm.fwd_ns_per_token", "ns"},
        {"llm.batch_fwd_tokens", "count"},
        {"llm.batch_fwd_ns_per_token", "ns"},
        // RagPipeline::retrieve.
        {"rag.bm25_ms", "ms"},
        {"rag.rerank_ms", "ms"},
        {"rag.dense_ms", "ms"},
        {"rag.postings_visited", "count"},
        {"rag.pairs_scored", "count"},
        {"rag.bytes_touched", "bytes"},
        {"rag.index_bytes", "bytes"},
        // Attestation, FsShield and SecureChannel.
        {"tee.attest_ms", "ms"},
        {"crypto.unseal_mb_per_s", "MB/s"},
        {"crypto.seal_us_per_msg", "us"},
        {"crypto.sealed_bytes", "bytes"},
        // Thread pool and the probes themselves.
        {"par.threads", "count"},
        {"par.cpu_per_wall", "ratio"},
        {"trace.overhead_ratio", "ratio"},
    };
    return m;
}

void
RepOutcome::check(bool ok, const std::string &what)
{
    if (!ok)
        checkFailures.push_back(what);
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

SliceTimer::SliceTimer(RepOutcome &o)
    : o_(o), wall_(Clock::now()), cpu_(cpuSeconds())
{
}

void
SliceTimer::mark()
{
    const Clock::time_point wall = Clock::now();
    const double cpu = cpuSeconds();
    o_.sliceWall.push_back(secondsBetween(wall_, wall));
    o_.sliceCpu.push_back(cpu - cpu_);
    wall_ = wall;
    cpu_ = cpu;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> n = {
        "fleet_mixed", "serve_features", "confidential_rag"};
    return n;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadOptions &opt)
{
    if (name == "fleet_mixed")
        return makeFleetMixed(opt);
    if (name == "serve_features")
        return makeServeFeatures(opt);
    if (name == "confidential_rag")
        return makeConfidentialRag(opt);
    return nullptr;
}

void
putLatency(Values &v, const cllm::SampleSummary &ttft,
           const cllm::SampleSummary &itl)
{
    v["model_ttft_p50_s"] = ttft.p50;
    v["model_ttft_p99_s"] = ttft.p99;
    v["model.ttft_samples"] = static_cast<double>(ttft.count);
    v["model_itl_p50_s"] = itl.p50;
    v["model_itl_p99_s"] = itl.p99;
    v["model.itl_samples"] = static_cast<double>(itl.count);
}

void
putStepTally(Values &v, const StepTally &t)
{
    auto calls = [&](StepCall c) {
        return static_cast<double>(t.calls[static_cast<std::size_t>(c)]);
    };
    auto ns = [&](StepCall c) {
        return static_cast<double>(t.ns[static_cast<std::size_t>(c)]);
    };
    auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
    v["llm.step_s"] = 1e-9 * static_cast<double>(t.totalNs());
    v["llm.calls.prefill"] = calls(StepCall::Prefill);
    v["llm.calls.prefill_from"] = calls(StepCall::PrefillFrom);
    v["llm.calls.prefill_chunk"] = calls(StepCall::PrefillChunk);
    v["llm.calls.decode"] = calls(StepCall::Decode);
    v["llm.calls.verify"] = calls(StepCall::Verify);
    // Monolithic prefill: from scratch or past a cached prefix.
    v["llm.ns_per_call.prefill"] =
        per(ns(StepCall::Prefill) + ns(StepCall::PrefillFrom),
            calls(StepCall::Prefill) + calls(StepCall::PrefillFrom));
    v["llm.ns_per_call.prefill_chunk"] =
        per(ns(StepCall::PrefillChunk), calls(StepCall::PrefillChunk));
    v["llm.ns_per_call.decode"] =
        per(ns(StepCall::Decode), calls(StepCall::Decode));
    v["llm.ns_per_call.verify"] =
        per(ns(StepCall::Verify), calls(StepCall::Verify));
}

unsigned
scaled(unsigned count, double scale)
{
    return std::max(1u, static_cast<unsigned>(std::lround(count * scale)));
}

} // namespace perfbench
