/**
 * @file
 * Host-time probes wrapped around the program's public entry points
 * from outside. The step-model probe is a decorator: it forwards every
 * `serve::StepModel` virtual to the wrapped model and returns its
 * result unchanged, so a traced run prices every step exactly as an
 * untraced one does. Probes are single-threaded: they are only
 * attached to simulations that run on one thread.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "serve/serving.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock points. */
inline std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The five `StepModel` virtuals a probe times separately. */
enum class StepCall
{
    Prefill,
    PrefillFrom,
    PrefillChunk,
    Decode,
    Verify,
};
constexpr std::size_t kStepCalls = 5;

/** Calls and host nanoseconds per step-model virtual. */
struct StepTally
{
    std::array<std::uint64_t, kStepCalls> calls{};
    std::array<std::uint64_t, kStepCalls> ns{};
    /** Return time of the latest timed call. */
    Clock::time_point lastReturn{};

    std::uint64_t
    totalNs() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t v : ns)
            s += v;
        return s;
    }
};

/** Forwarding decorator timing each call into the wrapped model. */
class ProbeStepModel final : public cllm::serve::StepModel
{
  public:
    ProbeStepModel(std::unique_ptr<cllm::serve::StepModel> inner,
                   StepTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }

    double
    prefill(unsigned in_len) const override
    {
        return timed(StepCall::Prefill,
                     [&] { return inner_->prefill(in_len); });
    }

    double
    decodeStep(double nseq, double avg_pos) const override
    {
        return timed(StepCall::Decode, [&] {
            return inner_->decodeStep(nseq, avg_pos);
        });
    }

    double
    prefillFrom(unsigned cached, unsigned total) const override
    {
        return timed(StepCall::PrefillFrom, [&] {
            return inner_->prefillFrom(cached, total);
        });
    }

    double
    prefillChunk(unsigned done, unsigned chunk,
                 bool shared) const override
    {
        return timed(StepCall::PrefillChunk, [&] {
            return inner_->prefillChunk(done, chunk, shared);
        });
    }

    double
    verifyStep(double nseq, double k, double avg_pos) const override
    {
        return timed(StepCall::Verify, [&] {
            return inner_->verifyStep(nseq, k, avg_pos);
        });
    }

  private:
    template <typename F>
    double
    timed(StepCall c, F &&f) const
    {
        const Clock::time_point t0 = Clock::now();
        const double v = f();
        const Clock::time_point t1 = Clock::now();
        const auto i = static_cast<std::size_t>(c);
        ++tally_.calls[i];
        tally_.ns[i] += nsBetween(t0, t1);
        tally_.lastReturn = t1;
        return v;
    }

    std::unique_ptr<cllm::serve::StepModel> inner_;
    StepTally &tally_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
