#include "serve/serving.hh"

#include <algorithm>
#include <cmath>

#include "serve/engine.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::serve {

const char *
arrivalProcessName(ArrivalProcess p)
{
    switch (p) {
      case ArrivalProcess::Poisson:
        return "poisson";
      case ArrivalProcess::Deterministic:
        return "deterministic";
      case ArrivalProcess::BurstyOnOff:
        return "bursty";
    }
    return "?";
}

std::vector<Request>
generateWorkload(const WorkloadConfig &cfg)
{
    // Range checks are written !(in range) so a NaN fails them.
    if (!(cfg.arrivalRate > 0.0) || cfg.numRequests == 0)
        cllm_fatal("generateWorkload: degenerate workload");
    if (cfg.process == ArrivalProcess::BurstyOnOff &&
        (cfg.burstRateFactor <= 0.0 || cfg.idleRateFactor <= 0.0 ||
         cfg.meanOnSec <= 0.0 || cfg.meanOffSec <= 0.0))
        cllm_fatal("generateWorkload: degenerate bursty phases");
    Rng rng(cfg.seed);
    // Exponential gap at `rate`; the rejection loop and draw order
    // match the original Poisson-only generator exactly, which keeps
    // seeded Poisson traces stable across the arrival-process seam.
    auto exp_gap = [&rng](double rate) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        return -std::log(u) / rate;
    };
    std::vector<Request> out;
    out.reserve(cfg.numRequests);
    double clock = 0.0;
    bool on = true;
    double phase_end =
        cfg.process == ArrivalProcess::BurstyOnOff
            ? exp_gap(1.0 / cfg.meanOnSec)
            : 0.0;
    for (unsigned i = 0; i < cfg.numRequests; ++i) {
        switch (cfg.process) {
          case ArrivalProcess::Poisson:
            clock += exp_gap(cfg.arrivalRate);
            break;
          case ArrivalProcess::Deterministic:
            clock += 1.0 / cfg.arrivalRate;
            break;
          case ArrivalProcess::BurstyOnOff:
            // Modulated Poisson: draw at the current phase's rate;
            // a gap crossing the phase boundary is redrawn from the
            // boundary at the next phase's rate (memorylessness).
            for (;;) {
                const double rate =
                    cfg.arrivalRate * (on ? cfg.burstRateFactor
                                          : cfg.idleRateFactor);
                const double gap = exp_gap(rate);
                if (clock + gap <= phase_end) {
                    clock += gap;
                    break;
                }
                clock = phase_end;
                on = !on;
                phase_end =
                    clock + exp_gap(1.0 / (on ? cfg.meanOnSec
                                              : cfg.meanOffSec));
            }
            break;
        }
        Request r;
        r.id = i;
        r.arrival = clock;
        r.inLen = std::max<unsigned>(
            8, static_cast<unsigned>(
                   rng.lognormal(cfg.meanInLen, cfg.lengthSigma)));
        r.outLen = std::max<unsigned>(
            4, static_cast<unsigned>(
                   rng.lognormal(cfg.meanOutLen, cfg.lengthSigma)));
        out.push_back(r);
    }
    return out;
}

const char *
batchPolicyName(BatchPolicy p)
{
    switch (p) {
      case BatchPolicy::Static:
        return "static";
      case BatchPolicy::Continuous:
        return "continuous";
    }
    return "?";
}

const char *
kvModeName(KvMode m)
{
    switch (m) {
      case KvMode::Reserved:
        return "reserved";
      case KvMode::Paged:
        return "paged";
    }
    return "?";
}

KvMode
parseKvMode(const std::string &name)
{
    if (name == "reserved")
        return KvMode::Reserved;
    if (name == "paged")
        return KvMode::Paged;
    cllm_fatal("unknown KV mode '", name, "' (reserved|paged)");
}

const char *
kvPreemptPolicyName(KvPreemptPolicy p)
{
    switch (p) {
      case KvPreemptPolicy::Recompute:
        return "recompute";
      case KvPreemptPolicy::SwapToEpc:
        return "swap";
    }
    return "?";
}

const char *
prefixModeName(PrefixMode m)
{
    switch (m) {
      case PrefixMode::Off:
        return "off";
      case PrefixMode::PerTenant:
        return "per_tenant";
      case PrefixMode::Global:
        return "global";
    }
    return "?";
}

PrefixMode
parsePrefixMode(const std::string &name)
{
    if (name == "off")
        return PrefixMode::Off;
    if (name == "per_tenant")
        return PrefixMode::PerTenant;
    if (name == "global")
        return PrefixMode::Global;
    cllm_fatal("unknown prefix mode '", name,
               "' (off|per_tenant|global)");
}

const char *
chunkModeName(ChunkMode m)
{
    switch (m) {
      case ChunkMode::Off:
        return "off";
      case ChunkMode::DecodePriority:
        return "decode";
      case ChunkMode::PrefillPriority:
        return "prefill";
    }
    return "?";
}

ChunkMode
parseChunkMode(const std::string &name)
{
    if (name == "off")
        return ChunkMode::Off;
    if (name == "decode")
        return ChunkMode::DecodePriority;
    if (name == "prefill")
        return ChunkMode::PrefillPriority;
    cllm_fatal("unknown chunk mode '", name,
               "' (off|decode|prefill)");
}

void
applySharedPrefixMix(std::vector<Request> &trace,
                     const SharedPrefixMix &mix)
{
    if (mix.tenants == 0 || mix.promptsPerTenant == 0)
        cllm_fatal("applySharedPrefixMix: degenerate mix");
    // Token streams are split-seeded per request, never touching the
    // workload generator's RNG: annotating a trace cannot perturb
    // arrivals or lengths.
    for (Request &r : trace) {
        Rng rng(splitSeed(mix.seed, r.id));
        r.tenant = static_cast<std::uint32_t>(
            rng.uniformInt(0, mix.tenants - 1));
        const bool shared = rng.chance(mix.sharedFraction);
        const unsigned group = static_cast<unsigned>(
            rng.uniformInt(0, mix.promptsPerTenant - 1));
        const unsigned plen = std::min(mix.prefixLen, r.inLen);
        r.promptTokens.resize(r.inLen);
        for (unsigned j = 0; j < r.inLen; ++j) {
            // Shared heads are a pure function of (tenant, group,
            // position); tails and unshared prompts are unique per
            // request id.
            const std::uint64_t tok =
                (shared && j < plen)
                    ? splitSeed(splitSeed(0x9e3779b97f4a7c15ULL ^
                                              r.tenant,
                                          group),
                                j)
                    : splitSeed(splitSeed(0xc2b2ae3d27d4eb4fULL,
                                          r.id),
                                j);
            r.promptTokens[j] =
                static_cast<std::int32_t>(tok & 0x7fffffff);
        }
    }
}

namespace {

/** CPU-backed step model. */
class CpuStepModel : public StepModel
{
  public:
    CpuStepModel(const hw::CpuSpec &cpu,
                 std::shared_ptr<const tee::TeeBackend> backend,
                 const llm::ModelConfig &model,
                 const llm::RunParams &params)
        : cpu_(cpu), backend_(std::move(backend)), model_(model),
          params_(params)
    {
        rates_ = perf_.rates(cpu_, *backend_, model_, params_);
    }

    double
    prefill(unsigned in_len) const override
    {
        return perf_.prefillSeconds(rates_, model_, params_, in_len);
    }

    double
    decodeStep(double nseq, double avg_pos) const override
    {
        return perf_.decodeStepSeconds(rates_, model_, params_, nseq,
                                       avg_pos);
    }

    double
    prefillChunk(unsigned done, unsigned chunk,
                 bool shared) const override
    {
        return perf_.prefillChunkSeconds(rates_, model_, params_,
                                         done, chunk, shared);
    }

    double
    verifyStep(double nseq, double k, double avg_pos) const override
    {
        return perf_.verifyStepSeconds(rates_, model_, params_, nseq,
                                       k, avg_pos);
    }

  private:
    hw::CpuSpec cpu_;
    std::shared_ptr<const tee::TeeBackend> backend_;
    llm::ModelConfig model_;
    llm::RunParams params_;
    llm::CpuPerfModel perf_;
    llm::DeploymentRates rates_;
};

/** GPU-backed step model. */
class GpuStepModel : public StepModel
{
  public:
    GpuStepModel(const hw::GpuSpec &gpu, bool confidential,
                 const llm::ModelConfig &model, hw::Dtype dtype)
        : gpu_(gpu), model_(model), dtype_(dtype)
    {
        tax_ = confidential ? tee::cgpuTax(gpu) : tee::GpuTax{};
    }

    double
    prefill(unsigned in_len) const override
    {
        const double s = in_len;
        const llm::GpuPerfConfig &cfg = perf_.config();
        const double flops =
            2.0 * static_cast<double>(model_.matmulParams()) * s +
            2.0 * model_.layers * model_.hidden * s * s;
        const double rate =
            gpu_.peakOps(dtype_) * cfg.computeEff;
        const double bytes = model_.weightBytes(dtype_) +
                             model_.kvBytesPerToken(dtype_) * s;
        const double bw =
            gpu_.hbmBwBytes * cfg.memEff * tax_.hbmBwFactor;
        const double launch =
            gpu_.kernelLaunchUs * 1e-6 + tax_.launchExtraSec;
        const double host_bw = tax_.hostLinkBwBytes > 0.0
                                   ? tax_.hostLinkBwBytes
                                   : gpu_.pcieBwBytes;
        return std::max(flops / rate, bytes / bw) +
               cfg.launchesPerStep * launch + s * 4.0 / host_bw;
    }

    double
    decodeStep(double nseq, double avg_pos) const override
    {
        const llm::GpuPerfConfig &cfg = perf_.config();
        const double flops =
            nseq *
            (2.0 * static_cast<double>(model_.matmulParams()) +
             4.0 * model_.layers * model_.hidden * avg_pos);
        const double bytes =
            model_.weightBytes(dtype_) +
            nseq * model_.kvBytesPerToken(dtype_) * (avg_pos + 1.0);
        const double rate = gpu_.peakOps(dtype_) * cfg.computeEff;
        const double bw =
            gpu_.hbmBwBytes * cfg.memEff * tax_.hbmBwFactor;
        const double launch =
            gpu_.kernelLaunchUs * 1e-6 + tax_.launchExtraSec;
        const double host_bw = tax_.hostLinkBwBytes > 0.0
                                   ? tax_.hostLinkBwBytes
                                   : gpu_.pcieBwBytes;
        return std::max(flops / rate, bytes / bw) +
               cfg.launchesPerStep * launch +
               nseq * cfg.hostBytesPerToken / host_bw;
    }

    double
    prefillChunk(unsigned done, unsigned chunk,
                 bool shared) const override
    {
        // Marginal working set of one slice: its own attention FLOPs
        // (the s^2 term over [done, done+chunk)), the KV it writes
        // plus the prefix KV it re-reads — and the weights only when
        // the slice runs alone. A shared step already streamed the
        // weights through the CC bounce buffer for the co-scheduled
        // work, so the slice rides along; the per-launch encryption
        // cost, however, is paid in full by every slice, which is
        // exactly the unamortized overhead that makes tiny chunks
        // expensive on a confidential GPU.
        const double s = chunk;
        const double t1 = static_cast<double>(done) + s;
        const double t0 = done;
        const llm::GpuPerfConfig &cfg = perf_.config();
        const double flops =
            2.0 * static_cast<double>(model_.matmulParams()) * s +
            2.0 * model_.layers * model_.hidden * (t1 * t1 - t0 * t0);
        const double rate = gpu_.peakOps(dtype_) * cfg.computeEff;
        const double bytes =
            (shared ? 0.0 : model_.weightBytes(dtype_)) +
            model_.kvBytesPerToken(dtype_) * (s + t0);
        const double bw =
            gpu_.hbmBwBytes * cfg.memEff * tax_.hbmBwFactor;
        const double launch =
            gpu_.kernelLaunchUs * 1e-6 + tax_.launchExtraSec;
        const double host_bw = tax_.hostLinkBwBytes > 0.0
                                   ? tax_.hostLinkBwBytes
                                   : gpu_.pcieBwBytes;
        return std::max(flops / rate, bytes / bw) +
               cfg.launchesPerStep * launch + s * 4.0 / host_bw;
    }

    double
    verifyStep(double nseq, double k, double avg_pos) const override
    {
        // One fused pass scores k+1 positions per sequence: matmul
        // FLOPs and attention scale with the width (attention at the
        // mean depth), KV is read once per scored position, but the
        // weight stream and — decisively for CC mode — the per-step
        // kernel launches with their encryption overhead happen once.
        // Host-link bounce-buffer traffic is per emitted token, so it
        // scales with the width. k = 0 reduces to decodeStep exactly.
        const double width = k + 1.0;
        const double mid = avg_pos + k / 2.0;
        const llm::GpuPerfConfig &cfg = perf_.config();
        const double flops =
            nseq * width *
            (2.0 * static_cast<double>(model_.matmulParams()) +
             4.0 * model_.layers * model_.hidden * mid);
        const double bytes =
            model_.weightBytes(dtype_) +
            nseq * model_.kvBytesPerToken(dtype_) * width *
                (mid + 1.0);
        const double rate = gpu_.peakOps(dtype_) * cfg.computeEff;
        const double bw =
            gpu_.hbmBwBytes * cfg.memEff * tax_.hbmBwFactor;
        const double launch =
            gpu_.kernelLaunchUs * 1e-6 + tax_.launchExtraSec;
        const double host_bw = tax_.hostLinkBwBytes > 0.0
                                   ? tax_.hostLinkBwBytes
                                   : gpu_.pcieBwBytes;
        return std::max(flops / rate, bytes / bw) +
               cfg.launchesPerStep * launch +
               nseq * width * cfg.hostBytesPerToken / host_bw;
    }

  private:
    hw::GpuSpec gpu_;
    llm::ModelConfig model_;
    hw::Dtype dtype_;
    tee::GpuTax tax_;
    llm::GpuPerfModel perf_;
};

} // namespace

std::unique_ptr<StepModel>
makeCpuStepModel(const hw::CpuSpec &cpu,
                 std::shared_ptr<const tee::TeeBackend> backend,
                 const llm::ModelConfig &model,
                 const llm::RunParams &params)
{
    return std::make_unique<CpuStepModel>(cpu, std::move(backend), model,
                                          params);
}

std::unique_ptr<StepModel>
makeGpuStepModel(const hw::GpuSpec &gpu, bool confidential,
                 const llm::ModelConfig &model, hw::Dtype dtype)
{
    return std::make_unique<GpuStepModel>(gpu, confidential, model,
                                          dtype);
}

void
validate(const ServerConfig &cfg, const char *who)
{
    // Features that react at step granularity cannot run on a static
    // batch; the engine rejects static policy outright on its own.
    // Range checks are written !(in range) so a NaN fails them.
    const bool is_static = cfg.policy == BatchPolicy::Static;
    if (cfg.maxBatch == 0)
        cllm_fatal(who, ": zero batch capacity");
    if (!cfg.faults.empty()) {
        if (is_static)
            cllm_fatal(who, ": fault injection requires continuous "
                            "batching");
        if (!(cfg.resilience.retryBackoff > 0.0))
            cllm_fatal(who, ": fault injection requires a positive "
                            "retry backoff");
    }
    if (!(cfg.resilience.backoffMultiplier >= 1.0))
        cllm_fatal(who, ": backoff multiplier below 1");
    if (cfg.resilience.shedOnKvPressure &&
        !(cfg.resilience.shedThreshold > 0.0 &&
          cfg.resilience.shedThreshold <= 1.0))
        cllm_fatal(who, ": shed threshold outside (0, 1]");
    if (cfg.kvMode == KvMode::Paged) {
        if (is_static)
            cllm_fatal(who, ": paged KV requires continuous batching");
        if (cfg.kvBlocks == 0)
            cllm_fatal(who, ": paged KV requires a bounded pool");
        if (cfg.paged.minFreeBlocks >= cfg.kvBlocks)
            cllm_fatal(who, ": paged KV watermark swallows the pool");
        if (cfg.paged.preempt == KvPreemptPolicy::SwapToEpc &&
            cfg.paged.kvBytesPerToken <= 0.0)
            cllm_fatal(who, ": swap preemption requires KV bytes per "
                            "token");
    }
    if (cfg.prefixMode != PrefixMode::Off && cfg.kvMode != KvMode::Paged)
        cllm_fatal(who, ": prefix caching requires paged KV");
    if (cfg.chunkedPrefill.mode != ChunkMode::Off) {
        if (is_static)
            cllm_fatal(who, ": chunked prefill requires continuous "
                            "batching");
        if (cfg.chunkedPrefill.chunkTokens == 0)
            cllm_fatal(who, ": zero chunk size");
        if (cfg.chunkedPrefill.stepTokenBudget != 0 &&
            cfg.chunkedPrefill.stepTokenBudget <
                cfg.chunkedPrefill.chunkTokens)
            cllm_fatal(who, ": step token budget below the chunk size");
        if (cfg.chunkedPrefill.starvationIters == 0)
            cllm_fatal(who, ": zero starvation-guard window");
    }
    if (cfg.specDecode.enabled) {
        if (is_static)
            cllm_fatal(who, ": speculative decoding requires continuous "
                            "batching");
        if (cfg.specDecode.draftTokens == 0)
            cllm_fatal(who, ": speculative decoding with zero draft "
                            "tokens");
        if (!(cfg.specDecode.draftCostRatio > 0.0 &&
              cfg.specDecode.draftCostRatio < 1.0))
            cllm_fatal(who, ": draft cost ratio outside (0, 1)");
        if (!(cfg.specDecode.acceptProb >= 0.0 &&
              cfg.specDecode.acceptProb <= 1.0))
            cllm_fatal(who, ": acceptance probability outside [0, 1]");
    }
}

Server::Server(std::unique_ptr<StepModel> step, ServerConfig cfg)
    : step_(std::move(step)), cfg_(std::move(cfg))
{
    if (!step_)
        cllm_fatal("Server requires a step model");
    validate(cfg_, "Server");
}

ServeMetrics
Server::run(std::vector<Request> trace) const
{
    std::vector<Request> annotated;
    return run(std::move(trace), annotated);
}

ServeMetrics
Server::run(std::vector<Request> trace,
            std::vector<Request> &annotated) const
{
    if (trace.empty())
        cllm_fatal("Server::run: empty trace");
    std::sort(trace.begin(), trace.end(),
              [](const Request &a, const Request &b) {
                  return a.arrival < b.arrival;
              });
    ServeMetrics m = cfg_.policy == BatchPolicy::Static
                         ? runStatic(trace)
                         : runContinuous(trace);
    annotated = std::move(trace);
    return m;
}

ServeMetrics
Server::runStatic(std::vector<Request> &trace) const
{
    double clock = 0.0;
    double occupancy_sum = 0.0;
    unsigned peak_active = 0;
    std::size_t steps = 0;
    std::size_t next = 0;

    while (next < trace.size()) {
        // Form the next batch from queued arrivals.
        clock = std::max(clock, trace[next].arrival);
        std::vector<Request *> batch;
        while (next < trace.size() && batch.size() < cfg_.maxBatch &&
               trace[next].arrival <= clock) {
            batch.push_back(&trace[next]);
            ++next;
        }

        // Prefill everyone, then decode until the whole batch drains.
        for (Request *r : batch) {
            clock += step_->prefill(r->inLen);
            r->firstToken = clock;
        }
        unsigned max_out = 0;
        for (Request *r : batch)
            max_out = std::max(max_out, r->outLen);
        for (unsigned t = 0; t < max_out; ++t) {
            unsigned active = 0;
            double avg_pos = 0.0;
            for (Request *r : batch) {
                if (t < r->outLen) {
                    ++active;
                    avg_pos += r->inLen + t;
                }
            }
            if (active == 0)
                break;
            avg_pos /= active;
            clock += step_->decodeStep(active, avg_pos);
            occupancy_sum += active;
            peak_active = std::max(peak_active, active);
            ++steps;
            for (Request *r : batch) {
                if (t + 1 == r->outLen)
                    r->finish = clock;
            }
        }
    }
    std::vector<const Request *> reqs;
    reqs.reserve(trace.size());
    for (const Request &r : trace)
        reqs.push_back(&r);
    ServeMetrics m =
        finalizeRequests(reqs, clock, occupancy_sum, steps, ServeTally{},
                         {}, cfg_.ttftSlo, cfg_.tpotSlo);
    m.peakBatchOccupancy = peak_active;
    return m;
}

ServeMetrics
Server::runContinuous(std::vector<Request> &trace) const
{
    // The loop itself lives in ContinuousEngine so the fleet layer
    // can drive the identical simulation incrementally; submitting
    // the whole trace up front and iterating to quiescence is
    // bit-identical to the historical in-place loop.
    ContinuousEngine eng(*step_, cfg_);
    for (Request &r : trace)
        eng.submit(&r, r.arrival, 0);
    while (!eng.idle())
        eng.iterate();
    return eng.metrics();
}

ServeTally &
ServeTally::operator+=(const ServeTally &o)
{
    retries += o.retries;
    shed += o.shed;
    timedOut += o.timedOut;
    failed += o.failed;
    restarts += o.restarts;
    attestRejections += o.attestRejections;
    faultDowntime += o.faultDowntime;
    kvPreemptions += o.kvPreemptions;
    kvSwapOuts += o.kvSwapOuts;
    kvSwapIns += o.kvSwapIns;
    kvSwapSeconds += o.kvSwapSeconds;
    prefixEnabled = prefixEnabled || o.prefixEnabled;
    prefixHits += o.prefixHits;
    prefixMisses += o.prefixMisses;
    prefixCachedTokens += o.prefixCachedTokens;
    prefillTokensComputed += o.prefillTokensComputed;
    prefixEvictions += o.prefixEvictions;
    prefixEvictedBlocks += o.prefixEvictedBlocks;
    prefixInsertedBlocks += o.prefixInsertedBlocks;
    prefixPinnedPeak = std::max(prefixPinnedPeak, o.prefixPinnedPeak);
    chunkedEnabled = chunkedEnabled || o.chunkedEnabled;
    chunkSlices += o.chunkSlices;
    chunkPrefillTokens += o.chunkPrefillTokens;
    mixedSteps += o.mixedSteps;
    starvationKicks += o.starvationKicks;
    maxStepPrefillTokens =
        std::max(maxStepPrefillTokens, o.maxStepPrefillTokens);
    decodeSteps += o.decodeSteps;
    specEnabled = specEnabled || o.specEnabled;
    specVerifySteps += o.specVerifySteps;
    specDraftTokens += o.specDraftTokens;
    specAccepted += o.specAccepted;
    specRejected += o.specRejected;
    specBonus += o.specBonus;
    return *this;
}

void
writeTally(JsonWriter &json, const ServeTally &t,
           const SampleSummary &itl)
{
    json.field("kv_preemptions", t.kvPreemptions);
    json.field("kv_swap_outs", t.kvSwapOuts);
    json.field("kv_swap_ins", t.kvSwapIns);
    json.field("kv_swap_s", t.kvSwapSeconds);
    if (t.prefixEnabled) {
        json.field("prefix_hits", t.prefixHits);
        json.field("prefix_misses", t.prefixMisses);
        json.field("prefix_cached_tokens", t.prefixCachedTokens);
        json.field("prefill_tokens_computed",
                   t.prefillTokensComputed);
        json.field("prefix_evictions", t.prefixEvictions);
        json.field("prefix_evicted_blocks", t.prefixEvictedBlocks);
        json.field("prefix_pinned_peak_blocks", t.prefixPinnedPeak);
    }
    if (t.chunkedEnabled) {
        json.field("itl_p50_s", itl.p50);
        json.field("itl_p95_s", itl.p95);
        json.field("itl_p99_s", itl.p99);
        json.field("chunk_slices", t.chunkSlices);
        json.field("chunk_prefill_tokens", t.chunkPrefillTokens);
        json.field("mixed_steps", t.mixedSteps);
        json.field("starvation_kicks", t.starvationKicks);
        json.field("max_step_prefill_tokens", t.maxStepPrefillTokens);
    }
    if (t.specEnabled) {
        json.field("spec_verify_steps", t.specVerifySteps);
        json.field("spec_draft_tokens", t.specDraftTokens);
        json.field("spec_accepted_tokens", t.specAccepted);
        json.field("spec_rejected_tokens", t.specRejected);
        json.field("spec_bonus_tokens", t.specBonus);
        // Each per-sequence verify cycle ends in either a bonus
        // token (k/k accepted) or a rejection resample, so their sum
        // counts cycles and accepted/cycles is the mean accepted
        // draft length.
        json.field("spec_mean_accepted_len",
                   t.specBonus + t.specRejected
                       ? static_cast<double>(t.specAccepted) /
                             static_cast<double>(t.specBonus +
                                                 t.specRejected)
                       : 0.0);
    }
}

void
writeMetrics(JsonWriter &json, const ServeMetrics &m)
{
    json.beginObject();
    json.field("completed", m.completed);
    json.field("submitted", m.submitted);
    json.field("availability", m.availability);
    json.field("makespan_s", m.makespan);
    json.field("tokens_per_s", m.tokensPerSecond);
    json.field("output_tokens", m.outputTokens);
    json.field("ttft_p50_s", m.ttft.p50);
    json.field("ttft_p95_s", m.ttft.p95);
    json.field("tpot_p95_s", m.tpot.p95);
    json.field("slo_attainment", m.sloAttainment);
    json.field("mean_batch_occupancy", m.meanBatchOccupancy);
    json.field("peak_batch_occupancy", m.peakBatchOccupancy);
    json.field("kv_utilization_peak", m.kvUtilizationPeak);
    json.field("kv_utilization_mean", m.kvUtilizationMean);
    writeTally(json, m, m.itl);
    // ITL is tracked in every mode but emitted by the chunked block
    // when chunking is on; spec-only runs surface it here.
    if (m.specEnabled && !m.chunkedEnabled) {
        json.field("itl_p50_s", m.itl.p50);
        json.field("itl_p95_s", m.itl.p95);
        json.field("itl_p99_s", m.itl.p99);
    }
    json.field("retries", m.retries);
    json.field("shed", m.shed);
    json.field("timed_out", m.timedOut);
    json.field("failed", m.failed);
    json.field("restarts", m.restarts);
    json.field("attest_rejections", m.attestRejections);
    json.field("fault_downtime_s", m.faultDowntime);
    json.key("fault_timeline");
    fault::writeTimeline(json, m.faultTimeline);
    json.endObject();
}

} // namespace cllm::serve
