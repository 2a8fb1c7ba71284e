/**
 * @file
 * fleet_mixed: a large TDX CPU fleet with a few H100-CC spill nodes
 * behind the cost-aware router, paged KV, every serving feature off,
 * open-loop Poisson arrivals below modelled capacity. Host
 * time goes to the fleet event loop and routing (both O(nodes) per
 * event), decode-step pricing and metrics finalisation over about a
 * million pooled ITL samples; no functional (llm/crypto/rag) code runs.
 */

#include "workload.hh"

#include "fleet/presets.hh"
#include "fleet/simulator.hh"
#include "llm/model_config.hh"

namespace perfbench {

namespace {

using namespace cllm;

constexpr unsigned kCpuNodes = 64;
constexpr unsigned kGpuNodes = 2;
/**
 * Requests per repetition. A repetition lasts about 0.2 s, so a run
 * holds a hundred of them and the fastest is one the host's load
 * bursts left alone.
 */
constexpr unsigned kRequests = 6000;
/**
 * Offered load per CPU node: about 83% of the 0.36 req/s at which a
 * lone TDX node still meets the TTFT and TPOT limits for 80% of
 * requests. The router keeps most traffic on the CPU tier and spills
 * the rest to the GPUs. At 0.36 req/s the median TTFT of 6000 requests
 * moved by 8% from seed to seed; at this rate it moves by 2%.
 */
constexpr double kRatePerCpuNode = 0.30;

void
usePagedKv(fleet::NodeTemplate &t)
{
    t.server.kvMode = serve::KvMode::Paged;
    t.server.paged.kvBytesPerToken =
        llm::llama2_7b().kvBytesPerToken(hw::Dtype::Bf16);
}

class FleetMixed final : public Workload
{
  public:
    explicit FleetMixed(const WorkloadOptions &opt)
        : seed_(opt.seed), requests_(scaled(kRequests, opt.scale))
    {
    }

    unsigned threads() const override { return 1; }

    void
    setup(bool) override
    {
        templates_ = {fleet::cpuTdxNode(), fleet::cgpuH100Node()};
        for (fleet::NodeTemplate &t : templates_)
            usePagedKv(t);

        cfg_ = {};
        cfg_.seed = seed_;
        cfg_.policy = fleet::RouterPolicy::CostAware;
        cfg_.initialNodes.assign(kCpuNodes, 0);
        cfg_.initialNodes.insert(cfg_.initialNodes.end(), kGpuNodes, 1);

        serve::WorkloadConfig load;
        load.process = serve::ArrivalProcess::Poisson;
        load.arrivalRate = kRatePerCpuNode * kCpuNodes;
        load.numRequests = requests_;
        load.meanInLen = 512;
        load.meanOutLen = 128;
        load.seed = seed_;
        trace_ = serve::generateWorkload(load);
    }

    RepOutcome
    run(bool traced) override
    {
        StepTally tally;
        std::vector<fleet::NodeTemplate> templates = templates_;
        if (traced)
            for (fleet::NodeTemplate &t : templates)
                t.makeStep = [inner = t.makeStep, &tally] {
                    return std::unique_ptr<serve::StepModel>(
                        std::make_unique<ProbeStepModel>(inner(), tally));
                };

        fleet::FleetSimulator sim(cfg_, std::move(templates));
        const Clock::time_point t0 = Clock::now();
        const fleet::FleetMetrics m = sim.run(trace_);
        const Clock::time_point t1 = Clock::now();

        // Node::metrics() and engine().submitted() point into run()'s
        // own copy of the trace, which is gone now: read only
        // FleetMetrics and the engines' tallies and step counts.
        std::uint64_t engine_steps = 0;
        for (const auto &n : sim.nodes())
            engine_steps += n->engine().steps();

        RepOutcome o;
        o.requests = m.completed;
        o.attempted = m.submitted;
        o.failed = m.shed + m.timedOut + m.failed;
        o.check(m.submitted == trace_.size(),
                "fleet_mixed: submitted != trace size");
        o.check(m.completed + m.shed + m.timedOut + m.failed ==
                    m.submitted,
                "fleet_mixed: completed+shed+timedOut+failed != "
                "submitted");
        o.check(m.specAccepted + m.specRejected + m.specBonus == 0,
                "fleet_mixed: speculative tokens with speculation off");

        putLatency(o.model, m.ttft, m.itl);
        o.model["model_slo_attainment"] =
            m.submitted ? m.sloAttainment * static_cast<double>(m.completed) /
                              static_cast<double>(m.submitted)
                        : 0.0;
        o.model["model_cost_per_1k_tok_usd"] = m.costPer1kTokens;
        o.model["model.completed"] = static_cast<double>(m.completed);
        o.model["model.output_tokens"] =
            static_cast<double>(m.outputTokens);
        o.model["model.engine_steps"] = static_cast<double>(engine_steps);

        if (traced) {
            putStepTally(o.layer, tally);
            const double run_s = secondsBetween(t0, t1);
            const double finalize_s =
                tally.lastReturn == Clock::time_point{}
                    ? 0.0
                    : secondsBetween(tally.lastReturn, t1);
            const double self_s =
                run_s - o.layer["llm.step_s"] - finalize_s;
            // Events: routed arrivals plus engine steps.
            const double events =
                static_cast<double>(m.submitted + engine_steps);
            o.layer["fleet.run_s"] = run_s;
            o.layer["fleet.finalize_s"] = finalize_s;
            o.layer["fleet.self_s"] = self_s;
            o.layer["fleet.events"] = events;
            o.layer["fleet.ns_per_event"] = 1e9 * self_s / events;
            o.layer["fleet.nodes"] =
                static_cast<double>(sim.nodes().size());
            o.layer["fleet.itl_samples"] =
                static_cast<double>(m.itl.count);
        }
        return o;
    }

  private:
    std::uint64_t seed_;
    unsigned requests_;
    std::vector<fleet::NodeTemplate> templates_;
    fleet::FleetConfig cfg_;
    std::vector<serve::Request> trace_;
};

} // namespace

std::unique_ptr<Workload>
makeFleetMixed(const WorkloadOptions &opt)
{
    return std::make_unique<FleetMixed>(opt);
}

} // namespace perfbench
