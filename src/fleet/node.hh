/**
 * @file
 * A fleet node: one confidential serving instance (a `tee::Backend` ×
 * machine × model deployment wrapped in a `serve::ContinuousEngine`)
 * plus the operational state the fleet layers need — provisioning and
 * drain lifecycle, per-node fault schedule derived by split-seed from
 * the fleet seed, and node-second billing.
 *
 * Seeding discipline: a node's fault schedule depends only on
 * (fleet seed, node id). Node ids are assigned monotonically and never
 * reused, so growing or shrinking the fleet cannot perturb any other
 * node's fault draws — the property the determinism tests pin.
 */

#ifndef CLLM_FLEET_NODE_HH
#define CLLM_FLEET_NODE_HH

#include <functional>
#include <memory>
#include <string>

#include "fault/schedule.hh"
#include "serve/engine.hh"

namespace cllm::obs {
class Tracer;
}

namespace cllm::fleet {

/**
 * Recipe for one class of node. `makeStep` builds a fresh per-node
 * step model (CPU-TEE or GPU-CC deployment); `server` carries the
 * batching/KV/resilience config (its `faults` field is ignored — the
 * fleet generates each node's schedule from `faults` here, split-seed
 * per node); `pricePerHour` feeds the node-second meter.
 */
struct NodeTemplate
{
    std::string name;
    std::function<std::unique_ptr<serve::StepModel>()> makeStep;
    serve::ServerConfig server{};
    double pricePerHour = 0.0;

    /**
     * Cloud-side allocation delay for an autoscaled node, charged on
     * top of the TEE re-provisioning cost (enclave build, attestation
     * round-trips, weight re-decryption) from `server.reprovision`.
     */
    double provisionDelaySec = 30.0;

    /** Fault processes; seed is overridden per node. All-zero rates
     *  mean a fault-free node. */
    fault::FaultScheduleConfig faults{};

    /** Typical prompt length used for queue-delay projections. */
    unsigned meanInLenHint = 512;
};

/**
 * Generate the fault schedule of node `node_id` under `fleet_seed`,
 * with every event shifted by `t0` (the node's commission time) so
 * schedules are always expressed on the fleet clock.
 */
fault::FaultSchedule nodeFaultSchedule(
    const fault::FaultScheduleConfig &cfg, std::uint64_t fleet_seed,
    unsigned node_id, double t0);

/** One live (or draining, or decommissioned) server in the fleet. */
class Node
{
  public:
    /**
     * `tracer` (may be null) receives this node's engine events on
     * lane `id + 1`; lane 0 stays reserved for the fleet itself.
     */
    Node(unsigned id, std::size_t template_index,
         const NodeTemplate &tmpl, std::uint64_t fleet_seed,
         double provision_start, double available_at,
         obs::Tracer *tracer = nullptr);

    /** The engine trace lane this node emits on. */
    std::uint32_t traceLane() const { return id_ + 1; }

    unsigned id() const { return id_; }
    std::size_t templateIndex() const { return tmplIndex_; }
    const std::string &name() const { return name_; }
    double pricePerHour() const { return pricePerHour_; }

    /** When the instance started being billed. */
    double provisionStart() const { return provisionStart_; }
    /** When the instance can first accept requests. */
    double availableAt() const { return availableAt_; }

    /** Routable: live, provisioned by `now`, not draining. */
    bool routable(double now) const
    {
        return !draining_ && !decommissioned() && now >= availableAt_;
    }

    bool draining() const { return draining_; }
    void startDrain(double now);

    bool decommissioned() const { return decommissionTime_ >= 0.0; }
    double decommissionTime() const { return decommissionTime_; }
    /** Finish a drain once the engine has gone idle. */
    void finishDrain();

    serve::ContinuousEngine &engine() { return *engine_; }
    const serve::ContinuousEngine &engine() const { return *engine_; }

    /**
     * Deterministic admission-delay estimate for a request of
     * `in_len` arriving at `now`: simulation lag the node has already
     * accrued, one mean prefill per queued request, then this
     * request's own prefill. The cost-aware router compares this
     * against the TTFT SLO to decide when to spill tiers.
     */
    double projectedTtft(double now, unsigned in_len) const;

    /** Billed node-seconds if the fleet shuts down at `fleet_end`. */
    double billedSeconds(double fleet_end) const;

  private:
    /**
     * Prefill-latency estimate honouring the node's scheduling
     * discipline: monolithic prefill(in_len) when chunking is off;
     * with chunking on, the sum of the prompt's slice costs (each
     * priced as a rider on a shared step) plus one decode step of
     * ride-along delay per extra slice — chunked admission returns
     * the first token later, and the router's TTFT projection must
     * see that, not the monolithic number.
     */
    double estimatePrefill(unsigned in_len) const;

    unsigned id_;
    std::size_t tmplIndex_;
    std::string name_;
    double pricePerHour_;
    double provisionStart_;
    double availableAt_;
    double drainStart_ = -1.0;
    double decommissionTime_ = -1.0;
    bool draining_ = false;

    std::unique_ptr<serve::StepModel> step_;
    serve::ServerConfig cfg_;
    std::unique_ptr<serve::ContinuousEngine> engine_;
    double estPrefill_ = 0.0;
    double estDecode_ = 0.0; //!< per-slice ride-along (chunked only)
};

} // namespace cllm::fleet

#endif // CLLM_FLEET_NODE_HH
