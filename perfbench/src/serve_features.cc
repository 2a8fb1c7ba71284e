/**
 * @file
 * serve_features: one TDX CPU node with every serving feature on —
 * paged KV in a pool small enough to force preemption, per-tenant
 * prefix caching over a shared-system-prompt mix, decode-priority
 * chunked prefill and speculative decoding — replaying a ladder of
 * fixed Poisson rates from below to above the node's capacity. Host
 * time goes to the scheduler, PrefixCache, PagedKvCache, verifyStep
 * and prefillChunk; there is no fleet layer.
 */

#include "workload.hh"

#include <algorithm>
#include <array>

#include "cost/pricing.hh"
#include "hw/cpu.hh"
#include "llm/model_config.hh"
#include "serve/serving.hh"
#include "tee/backend.hh"
#include "util/rng.hh"

namespace perfbench {

namespace {

using namespace cllm;

/** Arrival-rate ladder [req/s]; the node saturates inside it. */
constexpr std::array<double, 4> kRates = {0.30, 0.45, 0.60, 0.75};
/**
 * Rung whose latency, SLO and cost the end-to-end metrics report: the
 * lowest, which the node sustains. Nearer saturation, the p99 TTFT of
 * a few thousand requests moved by 18% from seed to seed.
 */
constexpr std::size_t kReferenceRung = 0;
/** Requests per rung; a repetition of all four lasts about 0.25 s. */
constexpr unsigned kRequestsPerRung = 2500;
/** Share of submitted requests that must meet the SLO at a rate. */
constexpr double kSloGoal = 0.80;
/** 768 blocks x 16 tokens: well below a full batch of 512+128 tokens. */
constexpr std::uint64_t kKvBlocks = 768;

llm::RunParams
deployParams(const hw::CpuSpec &cpu)
{
    llm::RunParams p;
    p.inLen = 1024;
    p.outLen = 256;
    p.batch = 32;
    p.sockets = 1;
    p.cores = cpu.coresPerSocket;
    return p;
}

class ServeFeatures final : public Workload
{
  public:
    explicit ServeFeatures(const WorkloadOptions &opt)
        : seed_(opt.seed), requests_(scaled(kRequestsPerRung, opt.scale))
    {
    }

    unsigned threads() const override { return 1; }

    void
    setup(bool) override
    {
        cpu_ = hw::emr2();
        model_ = llm::llama2_7b();
        backend_ = std::shared_ptr<const tee::TeeBackend>(tee::makeTdx());
        instanceHr_ = cost::cpuInstanceHr(cost::gcpSpotUsEast1(),
                                          cpu_.coresPerSocket, 128.0);

        cfg_ = {};
        cfg_.policy = serve::BatchPolicy::Continuous;
        cfg_.maxBatch = 32;
        cfg_.kvBlocks = kKvBlocks;
        cfg_.kvBlockTokens = 16;
        cfg_.kvMode = serve::KvMode::Paged;
        cfg_.paged.kvBytesPerToken = model_.kvBytesPerToken(hw::Dtype::Bf16);
        cfg_.prefixMode = serve::PrefixMode::PerTenant;
        cfg_.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
        cfg_.chunkedPrefill.chunkTokens = 256;
        cfg_.specDecode.enabled = true;
        cfg_.specDecode.draftTokens = 4;

        traces_.clear();
        for (std::size_t i = 0; i < kRates.size(); ++i) {
            serve::WorkloadConfig load;
            load.process = serve::ArrivalProcess::Poisson;
            load.arrivalRate = kRates[i];
            load.numRequests = requests_;
            load.meanInLen = 512;
            load.meanOutLen = 128;
            load.seed = splitSeed(seed_, i);
            std::vector<serve::Request> trace = serve::generateWorkload(load);
            serve::SharedPrefixMix mix;
            mix.seed = splitSeed(seed_, kRates.size() + i);
            serve::applySharedPrefixMix(trace, mix);
            traces_.push_back(std::move(trace));
        }
    }

    RepOutcome
    run(bool traced) override
    {
        RepOutcome o;
        StepTally tally;
        double run_s = 0.0, finalize_s = 0.0;
        serve::ServeMetrics sum{};
        double occupancy_steps = 0.0, kv_util_steps = 0.0;
        double max_rate = 0.0;

        SliceTimer slices(o);
        for (std::size_t i = 0; i < kRates.size(); ++i) {
            std::unique_ptr<serve::StepModel> step = serve::makeCpuStepModel(
                cpu_, backend_, model_, deployParams(cpu_));
            if (traced)
                step = std::make_unique<ProbeStepModel>(std::move(step),
                                                        tally);
            const serve::Server server(std::move(step), cfg_);
            std::vector<serve::Request> trace = traces_[i];
            const Clock::time_point before = tally.lastReturn;
            const Clock::time_point t0 = Clock::now();
            const serve::ServeMetrics m = server.run(std::move(trace));
            const Clock::time_point t1 = Clock::now();
            run_s += secondsBetween(t0, t1);
            if (tally.lastReturn != before)
                finalize_s += secondsBetween(tally.lastReturn, t1);

            const std::string rung = "serve_features rung " +
                                     std::to_string(i) + ": ";
            o.requests += m.completed;
            o.attempted += m.submitted;
            o.failed += m.shed + m.timedOut + m.failed;
            o.check(m.completed + m.shed + m.timedOut + m.failed ==
                        m.submitted,
                    rung + "completed+shed+timedOut+failed != submitted");
            o.check(m.restarts != 0 ||
                        m.specAccepted + m.specRejected + m.specBonus ==
                            m.outputTokens,
                    rung + "specAccepted+specRejected+specBonus != "
                           "outputTokens");

            const double attainment =
                m.submitted ? m.sloAttainment *
                                  static_cast<double>(m.completed) /
                                  static_cast<double>(m.submitted)
                            : 0.0;
            if (attainment >= kSloGoal)
                max_rate = std::max(max_rate, kRates[i]);
            o.model["model.slo_rung" + std::to_string(i)] = attainment;
            o.model["model.output_tokens_rung" + std::to_string(i)] =
                static_cast<double>(m.outputTokens);
            if (i == kReferenceRung) {
                putLatency(o.model, m.ttft, m.itl);
                o.model["model_slo_attainment"] = attainment;
                o.model["model_cost_per_1k_tok_usd"] =
                    cost::costPer1kTokens(
                        m.outputTokens,
                        cost::nodeSecondsUsd(instanceHr_, m.makespan));
            }

            const double steps = static_cast<double>(m.decodeSteps);
            occupancy_steps += m.meanBatchOccupancy * steps;
            kv_util_steps += m.kvUtilizationMean * steps;
            sum.decodeSteps += m.decodeSteps;
            sum.peakBatchOccupancy =
                std::max(sum.peakBatchOccupancy, m.peakBatchOccupancy);
            sum.kvUtilizationPeak =
                std::max(sum.kvUtilizationPeak, m.kvUtilizationPeak);
            sum.prefixHits += m.prefixHits;
            sum.prefixMisses += m.prefixMisses;
            sum.prefixCachedTokens += m.prefixCachedTokens;
            sum.prefillTokensComputed += m.prefillTokensComputed;
            sum.prefixEvictedBlocks += m.prefixEvictedBlocks;
            sum.prefixPinnedPeak =
                std::max(sum.prefixPinnedPeak, m.prefixPinnedPeak);
            sum.chunkSlices += m.chunkSlices;
            sum.mixedSteps += m.mixedSteps;
            sum.specVerifySteps += m.specVerifySteps;
            sum.specDraftTokens += m.specDraftTokens;
            sum.specAccepted += m.specAccepted;
            sum.kvPreemptions += m.kvPreemptions;
            sum.kvSwapOuts += m.kvSwapOuts;
            slices.mark();
        }
        o.model["model_max_rate_req_s"] = max_rate;
        o.model["model.decode_steps"] = static_cast<double>(sum.decodeSteps);

        if (traced) {
            auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
            const double steps = static_cast<double>(sum.decodeSteps);
            putStepTally(o.layer, tally);
            const double self_s = run_s - o.layer["llm.step_s"] - finalize_s;
            o.layer["serve.run_s"] = run_s;
            o.layer["serve.finalize_s"] = finalize_s;
            o.layer["serve.self_s"] = self_s;
            o.layer["serve.decode_steps"] = steps;
            o.layer["serve.ns_per_step"] = ratio(1e9 * self_s, steps);
            o.layer["serve.batch_mean"] = ratio(occupancy_steps, steps);
            o.layer["serve.batch_peak"] = sum.peakBatchOccupancy;
            o.layer["serve.prefix_hit_ratio"] =
                ratio(static_cast<double>(sum.prefixHits),
                      static_cast<double>(sum.prefixHits + sum.prefixMisses));
            o.layer["serve.prefix_token_ratio"] =
                ratio(static_cast<double>(sum.prefixCachedTokens),
                      static_cast<double>(sum.prefixCachedTokens +
                                          sum.prefillTokensComputed));
            o.layer["serve.chunk_slices"] =
                static_cast<double>(sum.chunkSlices);
            o.layer["serve.mixed_steps"] = static_cast<double>(sum.mixedSteps);
            o.layer["serve.spec_accept_ratio"] =
                ratio(static_cast<double>(sum.specAccepted),
                      static_cast<double>(sum.specDraftTokens));
            o.layer["serve.spec_verify_steps"] =
                static_cast<double>(sum.specVerifySteps);
            o.layer["mem.kv_util_mean"] = ratio(kv_util_steps, steps);
            o.layer["mem.kv_util_peak"] = sum.kvUtilizationPeak;
            o.layer["mem.kv_preemptions"] =
                static_cast<double>(sum.kvPreemptions);
            o.layer["mem.kv_swap_outs"] = static_cast<double>(sum.kvSwapOuts);
            o.layer["mem.prefix_evicted_blocks"] =
                static_cast<double>(sum.prefixEvictedBlocks);
            o.layer["mem.prefix_pinned_peak"] =
                static_cast<double>(sum.prefixPinnedPeak);
        }
        return o;
    }

  private:
    std::uint64_t seed_;
    unsigned requests_;
    hw::CpuSpec cpu_{};
    llm::ModelConfig model_{};
    std::shared_ptr<const tee::TeeBackend> backend_;
    double instanceHr_ = 0.0;
    serve::ServerConfig cfg_{};
    std::vector<std::vector<serve::Request>> traces_;
};

} // namespace

std::unique_ptr<Workload>
makeServeFeatures(const WorkloadOptions &opt)
{
    return std::make_unique<ServeFeatures>(opt);
}

} // namespace perfbench
