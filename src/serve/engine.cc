#include "serve/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::serve {

namespace {

/** Request-lifecycle async category shared by every engine event. */
constexpr const char *kReqCat = "request";

/**
 * Hot counters shared by every engine in the process. Each enters the
 * obs registry on its first event, so a run whose features are off
 * never registers the prefix, chunk or spec names and its registry
 * snapshot stays byte-identical to builds that predate them.
 */
namespace ctr {
constinit obs::LazyCounter prefills{"serve.prefills"};
constinit obs::LazyCounter decodeSteps{"serve.decode_steps"};
constinit obs::LazyCounter tokens{"serve.output_tokens"};
constinit obs::LazyCounter preempts{"serve.kv_preempts"};
constinit obs::LazyCounter swapOuts{"serve.kv_swap_outs"};
constinit obs::LazyCounter swapIns{"serve.kv_swap_ins"};
constinit obs::LazyCounter prefixHits{"serve.prefix_hits"};
constinit obs::LazyCounter prefixMisses{"serve.prefix_misses"};
constinit obs::LazyCounter prefixEvicted{"serve.prefix_evicted_blocks"};
constinit obs::LazyCounter chunkSlices{"serve.chunk_slices"};
constinit obs::LazyCounter chunkTokens{"serve.chunk_prefill_tokens"};
constinit obs::LazyCounter mixedSteps{"serve.chunk_mixed_steps"};
constinit obs::LazyCounter starvation{"serve.chunk_starvation_kicks"};
constinit obs::LazyCounter specVerify{"serve.spec_verify_steps"};
constinit obs::LazyCounter specDraft{"serve.spec_draft_tokens"};
constinit obs::LazyCounter specAccept{"serve.spec_accepted_tokens"};
constinit obs::LazyCounter specReject{"serve.spec_rejected_tokens"};
constinit obs::LazyCounter specBonus{"serve.spec_bonus_tokens"};
} // namespace ctr

/**
 * Whether the target accepts draft position `pos` (0-based output
 * index) of request `id`: a uniform draw in [0, 1) keyed purely on
 * (spec seed, request id, position), so the outcome is identical at
 * any CLLM_THREADS setting and replays bit-exactly when a preempted
 * or restarted sequence regenerates the same positions.
 */
bool
specAccept(const SpecDecodePolicy &sp, std::uint32_t id, unsigned pos)
{
    const std::uint64_t h = splitSeed(splitSeed(sp.seed, id), pos);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < sp.acceptProb;
}

/** The config's tracer when sim recording is live, else null. */
obs::Tracer *
simTracer(const ServerConfig &cfg)
{
    return cfg.tracer && cfg.tracer->simEnabled() ? cfg.tracer
                                                  : nullptr;
}

} // namespace

ContinuousEngine::ContinuousEngine(const StepModel &step,
                                   const ServerConfig &cfg)
    : step_(&step), cfg_(cfg), inj_(cfg_.faults)
{
    inj_.setTrace(cfg_.tracer, cfg_.traceLane);
    validate(cfg_, "ContinuousEngine");
    if (cfg_.policy != BatchPolicy::Continuous)
        cllm_fatal("ContinuousEngine: requires continuous batching");
    chunked_ = tally_.chunkedEnabled =
        cfg_.chunkedPrefill.mode != ChunkMode::Off;
    spec_ = tally_.specEnabled = cfg_.specDecode.enabled;
    if (cfg_.kvBlocks)
        pool_.emplace(
            mem::PagedKvConfig{cfg_.kvBlocks, cfg_.kvBlockTokens});
    if (cfg_.prefixMode != PrefixMode::Off) {
        // &*pool_ is stable: the optional is never re-emplaced.
        prefix_.emplace(cfg_.prefixMode, &*pool_,
                        cfg_.prefix.maxBlocks);
        tally_.prefixEnabled = true;
    }
}

void
ContinuousEngine::submit(Request *r, double ready_at, unsigned attempts)
{
    if (!r->promptTokens.empty() &&
        r->promptTokens.size() != r->inLen)
        cllm_fatal("ContinuousEngine: prompt token count mismatch "
                   "for request ",
                   r->id);
    // Every request emits at least one token: the step's draft widths
    // (outLen - produced - 1) and its completion check assume it.
    if (r->outLen == 0)
        cllm_fatal("ContinuousEngine: zero output length for request ",
                   r->id);
    pending_.push({r, ready_at, attempts, 0, false, -1.0});
    submitted_.push_back(r);
    if (obs::Tracer *t = simTracer(cfg_); t && attempts == 0)
        t->asyncBegin(cfg_.traceLane, kReqCat, r->id, "req",
                      std::max(r->arrival, ready_at));
}

double
ContinuousEngine::nextReadyTime() const
{
    if (!active_.empty())
        return clock_;
    if (!pending_.empty())
        return std::max(clock_, pending_.top().readyAt);
    return std::numeric_limits<double>::infinity();
}

double
ContinuousEngine::kvHeadroom() const
{
    return pool_ ? 1.0 - pool_->utilization() : 1.0;
}

std::uint64_t
ContinuousEngine::kvFreeBlocks() const
{
    return pool_ ? pool_->freeBlocks()
                 : std::numeric_limits<std::uint64_t>::max();
}

std::uint64_t
ContinuousEngine::kvUsedBlocks() const
{
    return pool_ ? pool_->usedBlocks() : 0;
}

std::uint64_t
ContinuousEngine::kvTotalBlocks() const
{
    return pool_ ? pool_->totalBlocks() : 0;
}

double
ContinuousEngine::kvUtilization() const
{
    return pool_ ? pool_->utilization() : 0.0;
}

std::vector<const Request *>
ContinuousEngine::drainFinished()
{
    std::vector<const Request *> out;
    out.swap(finished_);
    return out;
}

// Admission check, optionally against a pool whose usable share has
// been shrunk by an active KvExhaustion window. Reserved mode needs
// the full inLen+outLen up front; paged mode needs only the resident
// context (prompt plus tokens already generated before a preemption)
// while keeping `minFreeBlocks` of headroom, and refuses outright a
// request whose full context could never fit.
bool
ContinuousEngine::canAdmit(const Request &r, unsigned produced,
                           double factor,
                           std::uint64_t shared_blocks) const
{
    if (!pool_)
        return true;
    std::uint64_t need;
    if (cfg_.kvMode == KvMode::Paged) {
        const std::uint64_t reserve = cfg_.paged.minFreeBlocks;
        if (pool_->blocksFor(r.inLen + r.outLen) + reserve >
            cfg_.kvBlocks)
            return false;
        // Blocks already cached for this prompt's prefix are shared,
        // not allocated, so they come off the admission bill.
        need = pool_->blocksFor(r.inLen + produced) - shared_blocks +
               reserve;
        if (need > pool_->freeBlocks())
            return false;
    } else {
        if (!pool_->canAdmit(r.inLen + r.outLen))
            return false;
        need = (r.inLen + r.outLen + cfg_.kvBlockTokens - 1) /
               cfg_.kvBlockTokens;
    }
    if (factor >= 1.0)
        return true;
    const std::uint64_t used = cfg_.kvBlocks - pool_->freeBlocks();
    const auto usable = static_cast<std::uint64_t>(
        factor * static_cast<double>(cfg_.kvBlocks));
    return used + need <= usable;
}

bool
ContinuousEngine::admitCheck(const Request &r, unsigned produced,
                             double factor, bool swapped)
{
    if (!prefix_)
        return canAdmit(r, produced, factor);
    // A request whose full context can never fit is hopeless no
    // matter what gets evicted; refuse before draining the cache.
    if (pool_->blocksFor(r.inLen + r.outLen) +
            cfg_.paged.minFreeBlocks >
        cfg_.kvBlocks)
        return false;
    // A swapped-out victim resumes with its KV image intact — the
    // cache is not consulted (matching would double-credit tokens the
    // swap-in already pays for).
    const bool use_cache = !swapped && !r.promptTokens.empty();
    for (;;) {
        std::uint64_t shared = 0;
        if (use_cache)
            shared = prefix_->peek(r.tenant, r.promptTokens)
                         .blocks.size();
        if (canAdmit(r, produced, factor, shared))
            return true;
        // Short on blocks: evict LRU cached prefixes, then re-probe —
        // eviction may have reclaimed part of this prompt's own
        // match, shrinking the credit.
        const std::uint64_t need =
            pool_->blocksFor(r.inLen + produced) - shared +
            cfg_.paged.minFreeBlocks;
        const std::uint64_t free = pool_->freeBlocks();
        const std::uint64_t want = need > free ? need - free : 1;
        const std::uint64_t freed = prefix_->evictToFree(want, clock_);
        if (freed == 0)
            return false;
        ctr::prefixEvicted.add(freed);
        syncPrefixTally();
        if (obs::Tracer *t = simTracer(cfg_))
            t->instant(cfg_.traceLane, "prefix.evict", clock_,
                       {{"blocks", static_cast<double>(freed)}});
    }
}

void
ContinuousEngine::syncPrefixTally()
{
    const PrefixCacheStats &s = prefix_->stats();
    tally_.prefixHits = s.hits;
    tally_.prefixMisses = s.misses;
    tally_.prefixCachedTokens = s.hitTokens;
    tally_.prefixEvictions = s.evictions;
    tally_.prefixEvictedBlocks = s.evictedBlocks;
    tally_.prefixInsertedBlocks = s.insertedBlocks;
    tally_.prefixPinnedPeak = std::max<std::uint64_t>(
        tally_.prefixPinnedPeak, prefix_->pinnedBlocks());
}

/** EPC boundary traffic time to move a `tokens`-token KV image. */
double
ContinuousEngine::swapSeconds(unsigned tokens) const
{
    const auto bytes = static_cast<std::uint64_t>(
        cfg_.paged.kvBytesPerToken * static_cast<double>(tokens));
    return cfg_.paged.epcCost.swapSeconds(bytes);
}

// Evict one active sequence to make room: release its blocks, charge
// the policy's cost, and requeue it with its generated-token count
// intact so nothing already emitted is ever re-emitted.
void
ContinuousEngine::preemptActive(std::size_t idx)
{
    ActiveSeq victim = active_[idx];
    active_.erase(active_.begin() +
                  static_cast<std::ptrdiff_t>(idx));
    // Read before the release: a spec victim caught between growth and
    // emission still holds unverified draft KV past inLen + produced.
    const bool mid_verify =
        spec_ && pool_->tokens(victim.req->id) >
                     victim.req->inLen + victim.produced;
    pool_->release(victim.req->id);
    ++tally_.kvPreemptions;
    ctr::preempts.inc();
    obs::Tracer *tr = simTracer(cfg_);
    if (tr)
        tr->instant(cfg_.traceLane, "kv.preempt", clock_,
                    {{"req", static_cast<double>(victim.req->id)},
                     {"produced",
                      static_cast<double>(victim.produced)}});
    bool swapped = false;
    // A victim still mid-prefill (chunked mode only) always resumes
    // by recomputation: its KV image is partial, so swapping it out
    // would pay EPC traffic for blocks holding nothing worth keeping.
    // The same goes for a victim caught mid-verify: its trailing
    // draft KV is speculative, so it recomputes from its last
    // verified token instead of swapping unverified state.
    const bool mid_prefill =
        victim.prefillDone < victim.prefillTarget;
    if (cfg_.paged.preempt == KvPreemptPolicy::SwapToEpc &&
        !mid_prefill && !mid_verify) {
        const double t0 = clock_;
        const double sec =
            swapSeconds(victim.req->inLen + victim.produced);
        clock_ += sec;
        tally_.kvSwapSeconds += sec;
        ++tally_.kvSwapOuts;
        ctr::swapOuts.inc();
        swapped = true;
        if (tr)
            tr->complete(
                cfg_.traceLane, "kv.swap", t0, clock_,
                {{"req", static_cast<double>(victim.req->id)},
                 {"dir", 0.0}});
    }
    // Not a fault retry: re-enters the queue at the same attempt
    // count, ordered by (readyAt, id) like any other pending request.
    pending_.push({victim.req, clock_, victim.attempts,
                   victim.produced, swapped, victim.lastEmit});
}

// Before a paged step every decoding sequence must be able to append
// this step's tokens. Prefilling sequences (chunked mode only) already
// hold their whole resident context, allocated at admission. Grow in
// index order (admission order); on pool exhaustion evict from the
// tail (LIFO — the youngest sequence has the least sunk cost), or the
// growing sequence itself when it is the youngest, whatever phase the
// victim is in. The head of the batch can always finish: admission
// guaranteed its full context fits in the pool alone.
void
ContinuousEngine::growPaged()
{
    for (std::size_t i = 0; i < active_.size();) {
        const ActiveSeq &a = active_[i];
        Request *r = a.req;
        // A spec cycle appends k drafts plus the verified emission;
        // plain decode appends one token. draftK <= outLen-produced-1
        // keeps the target inside the admission-checked full context,
        // so the head of the batch can still always finish.
        const unsigned target =
            r->inLen + a.produced + (spec_ ? a.draftK + 1u : 1u);
        if (a.prefillDone < a.prefillTarget ||
            pool_->tokens(r->id) >= target) {
            ++i;
            continue;
        }
        const bool needs_block =
            pool_->tokens(r->id) % cfg_.kvBlockTokens == 0;
        if (needs_block && pool_->freeBlocks() == 0) {
            // Cached prefixes are the cheapest thing to give back:
            // reclaim idle cache blocks before preempting a live
            // sequence (which costs recompute or swap traffic).
            if (prefix_) {
                const std::uint64_t freed =
                    prefix_->evictToFree(1, clock_);
                if (freed > 0) {
                    ctr::prefixEvicted.add(freed);
                    syncPrefixTally();
                    continue;
                }
            }
            preemptActive(i + 1 < active_.size() ? active_.size() - 1
                                                 : i);
            continue; // retry the same slot (or fall off the end)
        }
        if (!pool_->appendToken(r->id))
            cllm_panic("paged KV append failed with free blocks");
    }
}

void
ContinuousEngine::publishKvGauges() const
{
    static obs::Gauge &used =
        obs::Registry::global().gauge("serve.kv_blocks_used");
    static obs::Gauge &free =
        obs::Registry::global().gauge("serve.kv_blocks_free");
    used.set(static_cast<double>(pool_->usedBlocks()));
    free.set(static_cast<double>(pool_->freeBlocks()));
    if (prefix_) {
        static obs::Gauge &pinned = obs::Registry::global().gauge(
            "serve.prefix_pinned_blocks");
        pinned.set(static_cast<double>(prefix_->pinnedBlocks()));
    }
}

// Bounded retry with exponential backoff; a request that spends its
// budget is dropped for good.
void
ContinuousEngine::requeue(Request *r, unsigned attempts,
                          double last_emit)
{
    const ResiliencePolicy &rp = cfg_.resilience;
    obs::Tracer *t = simTracer(cfg_);
    if (attempts > rp.maxRetries) {
        ++tally_.failed;
        if (t) {
            t->instant(cfg_.traceLane, "retries_exhausted", clock_,
                       {{"req", static_cast<double>(r->id)}});
            t->asyncEnd(cfg_.traceLane, kReqCat, r->id, "failed",
                        clock_);
        }
        return;
    }
    ++tally_.retries;
    double backoff = rp.retryBackoff;
    for (unsigned i = 1; i < attempts; ++i)
        backoff *= rp.backoffMultiplier;
    pending_.push({r, clock_ + backoff, attempts, 0, false,
                   last_emit});
    if (t)
        t->asyncInstant(cfg_.traceLane, kReqCat, r->id, "retry",
                        clock_);
}

void
ContinuousEngine::iterate(double admit_horizon)
{
    if (idle())
        return;

    const ResiliencePolicy &rp = cfg_.resilience;
    obs::Tracer *tr = simTracer(cfg_);
    const std::uint32_t lane = cfg_.traceLane;

    double kv_factor = 1.0;
    unsigned max_batch = cfg_.maxBatch;
    if (inAdmission_) {
        // Resuming a horizon-paused admission loop: keep the fault
        // snapshot sampled when this iteration started.
        inAdmission_ = false;
        kv_factor = admitKvFactor_;
        max_batch = admitMaxBatch_;
    } else {
        // Enclave/TD restarts wipe everything in secure memory: the
        // KV pool, the weights, the attested session state. Pay the
        // re-provisioning downtime and retry what was in flight.
        if (inj_.enabled()) {
            const unsigned crossed = inj_.consumeRestarts(
                clock_, static_cast<unsigned>(active_.size()));
            if (crossed) {
                const double t0 = clock_;
                const double down =
                    crossed *
                    cfg_.reprovision.seconds(cfg_.weightBytes);
                clock_ += down;
                tally_.faultDowntime += down;
                tally_.restarts += crossed;
                if (tr)
                    tr->complete(
                        lane, "reprovision", t0, clock_,
                        {{"restarts",
                          static_cast<double>(crossed)},
                         {"requeued",
                          static_cast<double>(active_.size())}});
                for (ActiveSeq &a : active_) {
                    if (pool_)
                        pool_->release(a.req->id);
                    requeue(a.req, a.attempts + 1, a.lastEmit);
                }
                active_.clear();
            }
        }

        if (inj_.enabled())
            kv_factor = inj_.kvCapacityFactor(clock_);
        if (rp.degradedMaxBatch && inj_.enabled() &&
            inj_.anyWindowActive(clock_)) {
            max_batch = std::max(
                1u, std::min(max_batch, rp.degradedMaxBatch));
        }
    }

    // Admit arrivals up to batch and KV capacity; prefill on
    // admission, reserving the full context worth of blocks. Pause
    // (without stepping) once the clock reaches the caller's horizon:
    // a not-yet-submitted request has become eligible and must enter
    // the queue before any later-ready request is admitted.
    while (active_.size() < max_batch) {
        if (clock_ >= admit_horizon) {
            inAdmission_ = true;
            admitKvFactor_ = kv_factor;
            admitMaxBatch_ = max_batch;
            return;
        }
        if (pending_.empty() || pending_.top().readyAt > clock_)
            break;
        const PendingReq p = pending_.top();
        // Deadline: reject queued work already past its budget. A
        // preempted victim timing out here takes its already-emitted
        // tokens back out of the occupancy sum — only completed
        // requests bill tokens, so occupancySum == outputTokens holds
        // in any restart-free run, timeouts included.
        if (rp.requestTimeout > 0.0 &&
            clock_ - p.req->arrival > rp.requestTimeout) {
            pending_.pop();
            ++tally_.timedOut;
            occupancySum_ -= static_cast<double>(p.produced);
            if (tr) {
                tr->instant(
                    lane, "timeout_queued", clock_,
                    {{"req", static_cast<double>(p.req->id)}});
                tr->asyncEnd(lane, kReqCat, p.req->id, "timeout",
                             clock_);
            }
            continue;
        }
        // Admission shedding under KV pressure. A preempted request
        // (produced > 0) is never shed: its generated tokens are
        // already with the client and must not be abandoned.
        if (rp.shedOnKvPressure && pool_ && p.produced == 0 &&
            pool_->utilization() >= rp.shedThreshold) {
            pending_.pop();
            ++tally_.shed;
            if (tr) {
                tr->instant(
                    lane, "shed_kv_pressure", clock_,
                    {{"req", static_cast<double>(p.req->id)},
                     {"kv_util", pool_->utilization()}});
                tr->asyncEnd(lane, kReqCat, p.req->id, "shed",
                             clock_);
            }
            continue;
        }
        // Attestation gate: no verified handshake, no admission; the
        // client backs off and retries.
        if (inj_.enabled() && inj_.attestationFails(clock_)) {
            pending_.pop();
            ++tally_.attestRejections;
            if (tr)
                tr->instant(
                    lane, "attest_reject", clock_,
                    {{"req", static_cast<double>(p.req->id)}});
            requeue(p.req, p.attempts + 1, p.lastEmit);
            continue;
        }
        if (!admitCheck(*p.req, p.produced, kv_factor, p.swapped))
            break;
        pending_.pop();
        Request *r = p.req;
        const bool paged = cfg_.kvMode == KvMode::Paged;
        const bool use_cache = prefix_ && !p.swapped &&
                               !r->promptTokens.empty();
        PrefixMatch pm;
        if (pool_) {
            // Paged admission allocates only the resident context;
            // reserved admission pins the full generation up front. A
            // cached-prefix hit shares the matched blocks instead of
            // allocating them (and counts exactly once, here, at the
            // successful admission).
            const unsigned resident =
                paged ? r->inLen + p.produced : r->inLen + r->outLen;
            bool ok;
            if (use_cache) {
                pm = prefix_->commitMatch(r->tenant, r->promptTokens,
                                          clock_);
                if (pm.tokens > 0)
                    ctr::prefixHits.inc();
                else
                    ctr::prefixMisses.inc();
                ok = pm.tokens > 0
                         ? pool_->addSequenceWithPrefix(
                               r->id, resident, pm.blocks, pm.tokens)
                         : pool_->addSequence(r->id, resident);
            } else {
                ok = pool_->addSequence(r->id, resident);
            }
            if (!ok)
                cllm_panic("KV admission raced the pool");
            if (tr)
                tr->counterValue(lane, "kv_util", clock_,
                                 pool_->utilization());
        }
        const double admit_at = clock_;
        // Cost to make the context live again: a swap-in from EPC
        // for swapped-out victims, else a (re)prefill over prompt
        // plus any previously generated tokens — charged only from
        // the cached-prefix boundary on a hit. Fresh requests have
        // produced == 0, so the reserved-mode cost is unchanged.
        // Chunked mode defers all prefill work to token-budgeted
        // steps: admission just records the progress target (a
        // swap-in still restores the full KV image in one bulk move,
        // so swapped victims resume straight into decode).
        const bool chunk_defer = chunked_ && !(paged && p.swapped);
        double pf;
        if (paged && p.swapped)
            pf = swapSeconds(r->inLen + p.produced);
        else if (chunk_defer)
            pf = 0.0;
        else if (pm.tokens > 0)
            pf = step_->prefillFrom(pm.tokens,
                                    r->inLen + p.produced);
        else
            pf = step_->prefill(r->inLen + p.produced);
        if (!(paged && p.swapped) && !chunk_defer) {
            const std::uint64_t computed =
                r->inLen + p.produced - pm.tokens;
            tally_.prefillTokensComputed += computed;
            // Monolithic prefill hits one step with the whole
            // uncached prompt — the working-set bound chunking exists
            // to shrink; tracked in every mode so the differential
            // tests can compare.
            tally_.maxStepPrefillTokens = std::max(
                tally_.maxStepPrefillTokens, computed);
        }
        if (inj_.enabled())
            pf *= inj_.slowdown(clock_);
        clock_ += pf;
        if (!chunk_defer && r->firstToken < 0.0)
            r->firstToken = clock_;
        ActiveSeq seq{r, p.produced, p.attempts};
        seq.lastEmit = p.lastEmit >= 0.0 ? p.lastEmit : clock_;
        if (chunk_defer) {
            seq.prefillDone = pm.tokens;
            seq.prefillTarget = r->inLen + p.produced;
        }
        active_.push_back(seq);
        if (tr)
            tr->asyncInstant(lane, kReqCat, r->id, "admit",
                             admit_at);
        if (paged && p.swapped) {
            tally_.kvSwapSeconds += pf;
            ++tally_.kvSwapIns;
            ctr::swapIns.inc();
            if (tr)
                tr->complete(lane, "kv.swap", admit_at, clock_,
                             {{"req", static_cast<double>(r->id)},
                              {"dir", 1.0}});
        } else if (!chunk_defer) {
            ctr::prefills.inc();
            if (tr)
                tr->complete(
                    lane, "prefill", admit_at, clock_,
                    {{"req", static_cast<double>(r->id)},
                     {"in_len",
                      static_cast<double>(r->inLen + p.produced)}});
        }
        if (use_cache) {
            // Cache the freshly prefilled prompt (idempotent on a
            // full hit: the walk just refreshes LRU stamps). Chunked
            // admissions have nothing prefilled yet — their prompt is
            // inserted when the last slice lands, so another request
            // can never share KV that has not been computed.
            if (!chunk_defer) {
                prefix_->insert(r->tenant, r->promptTokens,
                                pool_->blockTable(r->id), clock_);
                syncPrefixTally();
            }
            if (tr && pm.tokens > 0)
                tr->instant(
                    lane, "prefix.hit", admit_at,
                    {{"req", static_cast<double>(r->id)},
                     {"cached_tokens",
                      static_cast<double>(pm.tokens)}});
        }
    }
    if (pool_) {
        kvPeak_ = std::max(kvPeak_, pool_->utilization());
        publishKvGauges();
    }
    // If KV capacity blocks the head of the queue while nothing runs,
    // time must still advance: to the end of a transient exhaustion
    // window, or past a request too big to ever fit.
    if (active_.empty() && !pending_.empty()) {
        const PendingReq head = pending_.top();
        if (head.readyAt <= clock_ &&
            !canAdmit(*head.req, head.produced, kv_factor)) {
            if (canAdmit(*head.req, head.produced, 1.0)) {
                // Transient KvExhaustion window: wait it out.
                const double t0 = clock_;
                clock_ = inj_.nextWindowEnd(clock_);
                if (tr)
                    tr->complete(lane, "kv_blocked", t0, clock_);
            } else {
                // Request larger than the whole pool: drop it.
                pending_.pop();
                ++tally_.shed;
                if (tr) {
                    tr->instant(
                        lane, "shed_oversized", clock_,
                        {{"req",
                          static_cast<double>(head.req->id)}});
                    tr->asyncEnd(lane, kReqCat, head.req->id,
                                 "shed", clock_);
                }
            }
            return;
        }
        clock_ = std::max(clock_, head.readyAt);
        return;
    }
    if (active_.empty())
        return; // everything remaining was dropped

    step();
}

// One engine step: plan, price, commit (see the class comment in
// engine.hh).
void
ContinuousEngine::step()
{
    const ResiliencePolicy &rp = cfg_.resilience;
    const SpecDecodePolicy &sp = cfg_.specDecode;
    obs::Tracer *tr = simTracer(cfg_);
    const std::uint32_t lane = cfg_.traceLane;
    const bool paged = pool_ && cfg_.kvMode == KvMode::Paged;

    // ---- Plan -------------------------------------------------------
    // Draft widths first: KV growth must know how many tokens of room
    // each decoding sequence needs. The cap keeps the cycle from
    // running past the sequence's last token (the verify emission
    // covers it). `mixed` records whether any prompt is still being
    // prefilled as the step starts, before growth can preempt it; it
    // fixes the spec cycle's summation order below.
    bool mixed = false;
    for (ActiveSeq &a : active_) {
        if (a.prefillDone < a.prefillTarget)
            mixed = true;
        else if (spec_)
            a.draftK = std::min(sp.draftTokens,
                                a.req->outLen - a.produced - 1);
    }
    // Growth may preempt from the tail (possibly a prefilling
    // sequence), so phases are partitioned only afterwards.
    if (paged) {
        growPaged();
        kvPeak_ = std::max(kvPeak_, pool_->utilization());
        if (active_.empty())
            return; // whole batch preempted (pathological pool)
    }
    unsigned ndecode = 0;
    double avg_pos = 0.0;
    double mean_k = 0.0;
    for (ActiveSeq &a : active_) {
        a.decodes = a.prefillDone >= a.prefillTarget;
        if (a.decodes) {
            ++ndecode;
            avg_pos += a.req->inLen + a.produced;
            mean_k += a.draftK;
        }
    }

    // Cut the slices (chunked mode only: nothing else prefills in a
    // step). DecodePriority reserves one budget token per decoding
    // sequence before any slice is cut; PrefillPriority hands the whole
    // budget to the slices. A sequence starved of budget for
    // starvationIters consecutive iterations gets a forced slice — at
    // most one forced slice per step (contended in admission order),
    // which keeps the step's prefill tokens under budget + chunkTokens
    // while still bounding every sequence's wait no matter how busy
    // decode keeps the step.
    slices_.clear();
    if (ndecode < active_.size()) {
        const ChunkedPrefillPolicy &cp = cfg_.chunkedPrefill;
        // The default budget always fits one full slice beside a full
        // decode batch, so no legal configuration can deadlock.
        const unsigned budget =
            cp.stepTokenBudget ? cp.stepTokenBudget
                               : cp.chunkTokens + cfg_.maxBatch;
        unsigned rem = cp.mode == ChunkMode::DecodePriority
                           ? (budget > ndecode ? budget - ndecode : 0)
                           : budget;
        bool forced_used = false;
        for (std::size_t i = 0; i < active_.size(); ++i) {
            ActiveSeq &a = active_[i];
            if (a.decodes)
                continue;
            const unsigned remaining = a.prefillTarget - a.prefillDone;
            unsigned take =
                std::min(std::min(cp.chunkTokens, remaining), rem);
            bool forced = false;
            if (take == 0) {
                if (a.stallIters < cp.starvationIters)
                    ++a.stallIters;
                if (a.stallIters < cp.starvationIters || forced_used)
                    continue;
                take = std::min(cp.chunkTokens, remaining);
                forced = forced_used = true;
            }
            a.stallIters = 0;
            rem -= std::min(take, rem);
            slices_.push_back({i, take, forced});
        }
    }

    // ---- Price ------------------------------------------------------
    // Decode first, then the slices in plan order, each laid out
    // sequentially on the trace timeline. The first phase of the step
    // streams the weights; every slice after it rides that stream,
    // paying only its marginal working set (its attention FLOPs, its
    // activations, the KV it writes, the prefix KV it re-reads) plus
    // its own per-op fixed costs.
    const double step_t0 = clock_;
    const double slow = inj_.enabled() ? inj_.slowdown(clock_) : 1.0;
    double t = clock_;
    if (ndecode) {
        const double n = ndecode;
        avg_pos /= n;
        mean_k /= n;
        if (spec_) {
            // The draft model runs k sequential decode steps at
            // draftCostRatio of the target's price; the verify streams
            // the weights once for the whole k+1-token window, paying
            // the per-step TEE tax (MEE/EPC traffic, enclave
            // transitions, launch encryption) once.
            const double draft_sec =
                mean_k > 0.0 ? sp.draftCostRatio * mean_k *
                                   step_->decodeStep(n, avg_pos) * slow
                             : 0.0;
            const double verify_sec =
                step_->verifyStep(n, mean_k, avg_pos) * slow;
            const double draft_end = t + draft_sec;
            // Floating-point addition does not associate, so the two
            // step shapes keep their own orders and every completion
            // time stays bit-identical: a pure decode batch adds the
            // cycle's two phases before advancing the clock, a step
            // that started mixed advances it phase by phase. (The
            // goldens compare at 1e-9 and would not notice a merge.)
            t = mixed ? draft_end + verify_sec
                      : t + (draft_sec + verify_sec);
            if (tr) {
                if (draft_sec > 0.0)
                    tr->complete(lane, "decode.draft", step_t0,
                                 draft_end,
                                 {{"batch", n}, {"draft_k", mean_k}});
                tr->complete(lane, "decode.verify", draft_end, t,
                             {{"batch", n},
                              {"draft_k", mean_k},
                              {"avg_pos", avg_pos}});
            }
        } else {
            t += step_->decodeStep(n, avg_pos) * slow;
            if (tr)
                tr->complete(lane, "decode", step_t0, t,
                             {{"batch", n}, {"avg_pos", avg_pos}});
        }
    }
    bool shared = ndecode > 0;
    std::uint64_t step_prefill_tokens = 0;
    for (const Slice &s : slices_) {
        ActiveSeq &a = active_[s.idx];
        const double sec =
            step_->prefillChunk(a.prefillDone, s.tokens, shared) *
            slow;
        shared = true;
        if (tr)
            tr->complete(
                lane, "prefill.chunk", t, t + sec,
                {{"req", static_cast<double>(a.req->id)},
                 {"done", static_cast<double>(a.prefillDone)},
                 {"tokens", static_cast<double>(s.tokens)}});
        t += sec;
        a.prefillDone += s.tokens;
        step_prefill_tokens += s.tokens;
        tally_.prefillTokensComputed += s.tokens;
        ++tally_.chunkSlices;
        tally_.chunkPrefillTokens += s.tokens;
        ctr::chunkSlices.inc();
        ctr::chunkTokens.add(s.tokens);
        if (s.forced) {
            ++tally_.starvationKicks;
            ctr::starvation.inc();
        }
    }
    clock_ = t;
    tally_.maxStepPrefillTokens =
        std::max(tally_.maxStepPrefillTokens, step_prefill_tokens);
    if (ndecode && !slices_.empty()) {
        ++tally_.mixedSteps;
        ctr::mixedSteps.inc();
    }
    if (ndecode) {
        ++tally_.decodeSteps;
        ctr::decodeSteps.inc();
        if (spec_) {
            ++tally_.specVerifySteps;
            ctr::specVerify.inc();
        }
    }
    maxActive_ = std::max(maxActive_, active_.size());
    kvUtilSum_ += pool_ ? pool_->utilization() : 0.0;
    ++steps_;

    // ---- Commit -----------------------------------------------------
    // Sequences whose final slice landed decode from the next step;
    // their first token completes with this one.
    for (const Slice &s : slices_) {
        ActiveSeq &a = active_[s.idx];
        if (a.prefillDone < a.prefillTarget)
            continue;
        Request *r = a.req;
        if (r->firstToken < 0.0) {
            r->firstToken = clock_;
            a.lastEmit = clock_;
        }
        ctr::prefills.inc();
        if (prefix_ && !r->promptTokens.empty()) {
            // The prompt's KV is fully computed only now — cache it.
            prefix_->insert(r->tenant, r->promptTokens,
                            pool_->blockTable(r->id), clock_);
            syncPrefixTally();
        }
    }

    std::uint64_t emitted_total = 0;
    std::uint64_t drafted = 0;
    std::uint64_t accepted_total = 0;
    std::uint64_t bonus_total = 0;
    std::uint64_t reject_total = 0;
    for (auto it = active_.begin(); it != active_.end();) {
        // Deadline first, for everyone (a prefilling sequence can blow
        // its budget too): a token completing past the deadline is
        // never delivered, so it enters neither itlSamples nor the
        // occupancy sum, and the victim's earlier emissions come back
        // out of the sum — only completed requests bill tokens, and
        // occupancySum == outputTokens holds in any restart-free run.
        if (rp.requestTimeout > 0.0 &&
            clock_ - it->req->arrival > rp.requestTimeout) {
            ++tally_.timedOut;
            occupancySum_ -= static_cast<double>(it->produced);
            if (pool_)
                pool_->release(it->req->id);
            if (tr) {
                tr->instant(lane, "timeout_decoding", clock_,
                            {{"req", static_cast<double>(it->req->id)}});
                tr->asyncEnd(lane, kReqCat, it->req->id, "timeout",
                             clock_);
            }
            it = active_.erase(it);
            continue;
        }
        if (!it->decodes) {
            ++it;
            continue;
        }
        unsigned emit = 1;
        if (spec_) {
            // Longest accepted draft prefix: position produced+j is a
            // pure function of (seed, id, j), replayable anywhere.
            unsigned acc = 0;
            while (acc < it->draftK &&
                   specAccept(sp, it->req->id, it->produced + acc))
                ++acc;
            emit = acc + 1;
            drafted += it->draftK;
            accepted_total += acc;
            // The +1 token is a bonus token when every draft survived,
            // else the rejection-resampled correction — so accepted +
            // rejected + bonus counts every emitted token exactly once.
            if (acc == it->draftK)
                ++bonus_total;
            else
                ++reject_total;
        }
        // Inter-token gap, measured client-side from the previous
        // emission (wherever it happened — before a preemption, even
        // before a restart). A spec cycle's tokens reach the client
        // together at the verify boundary; the gap is spread across
        // them so ITL samples keep their per-token meaning.
        const double gap =
            (clock_ - it->lastEmit) / static_cast<double>(emit);
        for (unsigned j = 0; j < emit; ++j)
            itlSamples_.push_back(gap);
        it->lastEmit = clock_;
        it->produced += emit;
        emitted_total += emit;
        if (it->produced >= it->req->outLen) {
            it->req->finish = clock_;
            finished_.push_back(it->req);
            if (pool_)
                pool_->release(it->req->id);
            if (tr)
                tr->asyncEnd(lane, kReqCat, it->req->id, "complete",
                             clock_);
            it = active_.erase(it);
            continue;
        }
        // Roll rejected draft KV back out of the pool so reuse, forks
        // and pins see only verified tokens (no-op when every draft
        // survived; reserved mode holds the full reservation and never
        // trims).
        if (spec_ && paged)
            pool_->trimTokens(it->req->id,
                              it->req->inLen + it->produced);
        ++it;
    }
    occupancySum_ += static_cast<double>(emitted_total);
    if (ndecode)
        ctr::tokens.add(emitted_total);
    if (spec_ && ndecode) {
        tally_.specDraftTokens += drafted;
        tally_.specAccepted += accepted_total;
        tally_.specRejected += reject_total;
        tally_.specBonus += bonus_total;
        ctr::specDraft.add(drafted);
        ctr::specAccept.add(accepted_total);
        ctr::specReject.add(reject_total);
        ctr::specBonus.add(bonus_total);
    }
    if (pool_) {
        publishKvGauges();
        if (tr)
            tr->counterValue(lane, "kv_util", clock_,
                             pool_->utilization());
    }
}

ServeMetrics
ContinuousEngine::metrics() const
{
    ServeMetrics m =
        finalizeRequests(submitted_, clock_, occupancySum_, steps_,
                         tally_, itlSamples_, cfg_.ttftSlo, cfg_.tpotSlo);
    m.kvUtilizationPeak = kvPeak_;
    m.kvUtilizationMean = kvUtilizationMean();
    m.peakBatchOccupancy = static_cast<double>(maxActive_);
    m.faultTimeline = inj_.timeline();
    return m;
}

ServeMetrics
finalizeRequests(const std::vector<const Request *> &reqs,
                 double makespan, double occupancy_sum,
                 std::size_t steps, const ServeTally &tally,
                 const std::vector<double> &itl_samples,
                 double ttft_slo, double tpot_slo)
{
    ServeMetrics m;
    static_cast<ServeTally &>(m) = tally;
    m.makespan = makespan;
    std::vector<double> ttft, tpot;
    std::uint64_t tokens = 0;
    std::size_t slo_ok = 0;
    for (const Request *r : reqs) {
        if (r->finish < 0.0)
            continue;
        ++m.completed;
        tokens += r->outLen;
        const double first = r->firstToken - r->arrival;
        const double per_tok =
            r->outLen > 1
                ? (r->finish - r->firstToken) / (r->outLen - 1)
                : 0.0;
        ttft.push_back(first);
        if (r->outLen > 1)
            tpot.push_back(per_tok);
        if (first <= ttft_slo &&
            (r->outLen <= 1 || per_tok <= tpot_slo))
            ++slo_ok;
    }
    const bool dropped_any =
        tally.shed || tally.timedOut || tally.failed;
    if (!reqs.empty() && m.completed == 0 && !dropped_any)
        cllm_panic("serving simulation completed no requests");
    m.tokensPerSecond = makespan > 0.0 ? tokens / makespan : 0.0;
    m.ttft = summarize(ttft, 0.0);
    if (!tpot.empty())
        m.tpot = summarize(tpot, 0.0);
    m.sloAttainment =
        m.completed ? static_cast<double>(slo_ok) /
                          static_cast<double>(m.completed)
                    : 0.0;
    m.meanBatchOccupancy =
        steps ? occupancy_sum / static_cast<double>(steps) : 0.0;

    m.submitted = reqs.size();
    m.outputTokens = tokens;
    m.availability = m.submitted
                         ? static_cast<double>(m.completed) /
                               static_cast<double>(m.submitted)
                         : 0.0;
    if (!itl_samples.empty())
        m.itl = summarize(itl_samples, 0.0);
    return m;
}

} // namespace cllm::serve
