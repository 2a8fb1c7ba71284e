/**
 * @file
 * Incremental continuous-batching engine: the core simulation loop of
 * `serve::Server`, restructured so callers drive it one iteration at a
 * time instead of replaying a whole trace in one call. `Server` keeps
 * its exact batch-granularity semantics (it submits the full trace and
 * iterates to quiescence — bit-identical to the pre-refactor loop),
 * while the fleet simulator (`src/fleet`) feeds requests in as a
 * router dispatches them and interleaves many engines under one
 * discrete-event clock.
 */

#ifndef CLLM_SERVE_ENGINE_HH
#define CLLM_SERVE_ENGINE_HH

#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "serve/prefix_cache.hh"
#include "serve/serving.hh"

namespace cllm::serve {

/**
 * One continuous-batching server simulation, driven iteration by
 * iteration. Construction validates the config the same way Server
 * does; `submit` enqueues a request for admission at `ready_at`;
 * `iterate` performs one loop iteration (restart handling, admission,
 * then either a time advance or one engine step).
 *
 * Every step, whatever features are on, runs the same three phases:
 *
 *  - **Plan.** Fix each decoding sequence's draft width (speculative
 *    decoding only), grow the paged KV pool so every decoding
 *    sequence has room for this step's tokens (preempting from the
 *    batch tail when it runs dry), then cut this step's prefill slices
 *    under the token budget (chunked prefill only).
 *  - **Price.** The step is one fused launch: the decode phase first
 *    (one decode step, or a draft pass plus one verify step that pays
 *    the weight stream and the per-step TEE tax once for up to k+1
 *    tokens), then the slices in plan order, each riding the weight
 *    stream the phase before it opened.
 *  - **Commit.** Prompts whose last slice landed get their first
 *    token; then every sequence, in batch order, is checked against
 *    its deadline, emits its tokens (one, or its accepted draft prefix
 *    plus one), rolls rejected draft KV back, and completes.
 */
class ContinuousEngine
{
  public:
    ContinuousEngine(const StepModel &step, const ServerConfig &cfg);

    /** Offer a request for admission no earlier than `ready_at`. */
    void submit(Request *r, double ready_at, unsigned attempts = 0);

    /** True when nothing is pending or active. */
    bool idle() const { return pending_.empty() && active_.empty(); }

    /**
     * Earliest simulation time the next `iterate` could act at: the
     * current clock while a batch is running, the head-of-queue ready
     * time when idle with queued work, +infinity when fully idle.
     */
    double nextReadyTime() const;

    /**
     * One loop iteration; no-op when idle.
     *
     * `admit_horizon` is the time of the earliest request the caller
     * knows about but has not submitted yet (a fleet driver's next
     * unrouted arrival). Once the clock reaches it the admission loop
     * pauses and returns without stepping, so the caller can submit
     * the newcomer and re-enter; admission then resumes in the same
     * (readyAt, id) order a fully pre-submitted run would have used.
     * With everything submitted up front (Server::run) the default
     * horizon never pauses anything.
     */
    void iterate(double admit_horizon =
                     std::numeric_limits<double>::infinity());

    // -- Live state signals (router / autoscaler inputs) -------------
    double clock() const { return clock_; }
    std::size_t activeCount() const { return active_.size(); }
    std::size_t pendingCount() const { return pending_.size(); }
    std::size_t outstanding() const
    {
        return active_.size() + pending_.size();
    }
    /** Free fraction of the KV pool (1.0 when unbounded). */
    double kvHeadroom() const;
    /** Free KV blocks (UINT64_MAX when unbounded). */
    std::uint64_t kvFreeBlocks() const;
    std::uint64_t kvUsedBlocks() const;
    std::uint64_t kvTotalBlocks() const;
    /** Used fraction of the KV pool right now (0 when unbounded). */
    double kvUtilization() const;
    const StepModel &stepModel() const { return *step_; }

    /** Whether automatic prefix caching is live on this engine. */
    bool prefixEnabled() const { return prefix_.has_value(); }
    /** Blocks currently pinned by the prefix cache (0 when off). */
    std::uint64_t prefixPinnedBlocks() const
    {
        return prefix_ ? prefix_->pinnedBlocks() : 0;
    }

    // -- Run outcome --------------------------------------------------
    const ServeTally &tally() const { return tally_; }
    double occupancySum() const { return occupancySum_; }
    std::size_t steps() const { return steps_; }
    double kvPeak() const { return kvPeak_; }
    /** Mean KV occupancy sampled at every decode-step boundary. */
    double kvUtilizationMean() const
    {
        return steps_ ? kvUtilSum_ / static_cast<double>(steps_)
                      : 0.0;
    }
    /** Largest batch any single decode step ran with. */
    std::size_t peakBatch() const { return maxActive_; }
    const std::vector<fault::FaultRecord> &timeline() const;

    /** Every request ever submitted, in submission order. */
    const std::vector<const Request *> &submitted() const
    {
        return submitted_;
    }

    /**
     * Requests that finished since the last call, in completion
     * order; the internal log is cleared.
     */
    std::vector<const Request *> drainFinished();

  private:
    struct ActiveSeq
    {
        Request *req;
        unsigned produced = 0;
        unsigned attempts = 0;
        // Chunked-prefill progress: prompt tokens whose KV is live
        // (prefillDone) against the tokens this life must prefill
        // (prefillTarget). A sequence decodes only once
        // prefillDone >= prefillTarget; monolithic admissions set
        // both to 0, so the predicate is phase-agnostic.
        unsigned prefillDone = 0;
        unsigned prefillTarget = 0;
        // Consecutive budget-starved iterations (starvation guard).
        unsigned stallIters = 0;
        // Draft tokens this speculative cycle proposes for the
        // sequence (0 outside spec mode); set before KV growth so the
        // pool can make room for k drafts plus the emitted token.
        unsigned draftK = 0;
        // Whether the sequence decodes in the current step. Fixed by
        // the plan, because pricing a slice advances prefillDone and a
        // prompt finishing this step only decodes from the next.
        bool decodes = false;
        // Completion time of this sequence's last emitted token, the
        // baseline for inter-token-latency samples. Carried across
        // preemptions and retries so ITL stays client-perceived.
        double lastEmit = -1.0;
    };

    struct PendingReq
    {
        Request *req;
        double readyAt;
        unsigned attempts;
        // Paged-mode resume state: tokens already generated before a
        // preemption (never re-emitted), and whether the KV pages sit
        // swapped out in EPC-backed memory rather than discarded.
        unsigned produced = 0;
        bool swapped = false;
        // Last token-emission time before the requeue (ITL carry).
        double lastEmit = -1.0;
    };

    /** Min-heap order: earliest readyAt first, ties by request id. */
    struct PendingLater
    {
        bool
        operator()(const PendingReq &a, const PendingReq &b) const
        {
            if (a.readyAt != b.readyAt)
                return a.readyAt > b.readyAt;
            return a.req->id > b.req->id;
        }
    };

    bool canAdmit(const Request &r, unsigned produced, double factor,
                  std::uint64_t shared_blocks = 0) const;
    /**
     * Admission gate with prefix awareness: probes the cache for the
     * request's shared-prefix block credit and, when the pool is
     * still short, evicts LRU cached prefixes until the request fits
     * or nothing evictable remains. Re-probes after every eviction
     * round (eviction may have reclaimed part of the match).
     */
    bool admitCheck(const Request &r, unsigned produced, double factor,
                    bool swapped);
    void syncPrefixTally();
    void requeue(Request *r, unsigned attempts,
                 double last_emit = -1.0);
    double swapSeconds(unsigned tokens) const;
    void preemptActive(std::size_t idx);
    /**
     * Make KV room for every decoding sequence's tokens this step (one,
     * or k drafts plus one), evicting cached prefixes first and then
     * preempting from the batch tail when the pool runs dry.
     */
    void growPaged();
    /** One plan -> price -> commit step (see the class comment). */
    void step();
    void publishKvGauges() const;

    const StepModel *step_;
    ServerConfig cfg_;
    bool chunked_ = false;
    bool spec_ = false;
    fault::FaultInjector inj_;
    std::optional<mem::PagedKvCache> pool_;
    std::optional<PrefixCache> prefix_;

    double clock_ = 0.0;
    double occupancySum_ = 0.0;
    double kvPeak_ = 0.0;
    double kvUtilSum_ = 0.0; //!< KV occupancy at decode boundaries
    std::size_t maxActive_ = 0;
    std::size_t steps_ = 0;
    ServeTally tally_{};

    // Admission-pause state: a horizon pause must resume the SAME
    // loop iteration, so the fault snapshot taken at iteration start
    // (restart sweep, KV capacity factor, degraded batch cap) carries
    // over instead of being re-sampled mid-iteration.
    bool inAdmission_ = false;
    double admitKvFactor_ = 1.0;
    unsigned admitMaxBatch_ = 0;

    /** A planned prefill slice: `tokens` prompt tokens of active_[idx]. */
    struct Slice
    {
        std::size_t idx;
        unsigned tokens;
        bool forced; //!< starvation-guard slice cut past the budget
    };

    std::vector<ActiveSeq> active_;
    std::vector<Slice> slices_; //!< this step's plan; reused every step
    std::priority_queue<PendingReq, std::vector<PendingReq>,
                        PendingLater>
        pending_;
    std::vector<const Request *> submitted_;
    std::vector<const Request *> finished_;
};

/**
 * Build a ServeMetrics from annotated requests — the shared tail of a
 * Server run and a fleet node. Panics only when a non-empty request
 * set completed nothing without any being dropped (a simulation bug).
 */
ServeMetrics finalizeRequests(const std::vector<const Request *> &reqs,
                              double makespan, double occupancy_sum,
                              std::size_t steps,
                              const ServeTally &tally, double ttft_slo,
                              double tpot_slo);

} // namespace cllm::serve

#endif // CLLM_SERVE_ENGINE_HH
