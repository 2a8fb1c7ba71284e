/**
 * @file
 * Tests for the deterministic parallel execution layer: chunk-shape
 * edge cases, exception propagation, the reduction determinism
 * contract across thread counts, and nested-call behaviour.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/pool.hh"
#include "util/rng.hh"

using namespace cllm;

namespace {

/** Scoped thread-count override; restores the default on exit so
 *  test order cannot leak pool state. */
struct ScopedThreads
{
    explicit ScopedThreads(unsigned n) { par::setThreadCount(n); }
    ~ScopedThreads() { par::setThreadCount(0); }
};

} // namespace

TEST(ChunkCount, MatchesCeilDiv)
{
    EXPECT_EQ(par::chunkCount(0, 1), 0u);
    EXPECT_EQ(par::chunkCount(1, 1), 1u);
    EXPECT_EQ(par::chunkCount(10, 3), 4u);
    EXPECT_EQ(par::chunkCount(9, 3), 3u);
    EXPECT_EQ(par::chunkCount(2, 100), 1u);
}

TEST(GrainFor, NeverBelowMinGrain)
{
    EXPECT_EQ(par::grainFor(32, par::kMinChunkWork), 32u);
    EXPECT_EQ(par::grainFor(32, 10 * par::kMinChunkWork), 32u);
    EXPECT_EQ(par::grainFor(1, par::kMinChunkWork), 1u);
    for (std::size_t work : {1u, 7u, 48u, 128u, 4096u, 1u << 20})
        for (std::size_t min_grain : {1u, 32u, 64u})
            EXPECT_GE(par::grainFor(min_grain, work), min_grain);
}

TEST(GrainFor, ChunkCarriesAtLeastMinChunkWork)
{
    // ceil(kMinChunkWork / work): the smallest grain whose chunk
    // reaches the threshold.
    EXPECT_EQ(par::grainFor(1, 128), par::kMinChunkWork / 128);
    EXPECT_EQ(par::grainFor(1, 48), (par::kMinChunkWork + 47) / 48);
    EXPECT_EQ(par::grainFor(1, 0), par::kMinChunkWork);
    for (std::size_t work : {1u, 3u, 48u, 100u, 4097u}) {
        const std::size_t g = par::grainFor(1, work);
        EXPECT_GE(g * work, par::kMinChunkWork) << work;
        EXPECT_LT((g - 1) * work, par::kMinChunkWork) << work;
    }
}

TEST(GrainFor, SameAtEveryThreadCount)
{
    std::vector<std::size_t> want;
    for (std::size_t work : {1u, 48u, 128u, 1u << 16, 1u << 18})
        want.push_back(par::grainFor(32, work));
    for (unsigned threads : {1u, 2u, 8u}) {
        ScopedThreads scoped(threads);
        std::vector<std::size_t> got;
        for (std::size_t work : {1u, 48u, 128u, 1u << 16, 1u << 18})
            got.push_back(par::grainFor(32, work));
        EXPECT_EQ(got, want) << threads << " threads";
    }
}

TEST(ParallelFor, OneChunkRunsOnTheCaller)
{
    ScopedThreads scoped(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    par::parallelFor(0, 100, 100, [&](std::size_t, std::size_t) {
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, caller);
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody)
{
    std::atomic<int> calls{0};
    par::parallelFor(5, 5, 1,
                     [&](std::size_t, std::size_t) { ++calls; });
    par::parallelFor(7, 3, 4,
                     [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, GrainLargerThanRangeIsOneChunk)
{
    std::atomic<int> calls{0};
    std::size_t seen_b = 99, seen_e = 99;
    par::parallelFor(2, 6, 100, [&](std::size_t b, std::size_t e) {
        ++calls;
        seen_b = b;
        seen_e = e;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen_b, 2u);
    EXPECT_EQ(seen_e, 6u);
}

TEST(ParallelFor, SingleElementRange)
{
    std::vector<int> hit(1, 0);
    par::parallelFor(0, 1, 4, [&](std::size_t b, std::size_t e) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 1u);
        hit[b] = 1;
    });
    EXPECT_EQ(hit[0], 1);
}

TEST(ParallelFor, ChunkBoundariesDependOnlyOnRangeAndGrain)
{
    // The same (range, grain) must produce the same chunk set at any
    // thread count — the heart of the determinism contract.
    for (unsigned threads : {1u, 2u, 8u}) {
        ScopedThreads st(threads);
        std::mutex m;
        std::set<std::pair<std::size_t, std::size_t>> chunks;
        par::forEachChunk(
            3, 103, 7,
            [&](std::size_t chunk, std::size_t b, std::size_t e) {
                std::lock_guard<std::mutex> lk(m);
                EXPECT_EQ(b, 3 + chunk * 7);
                EXPECT_EQ(e, std::min<std::size_t>(b + 7, 103));
                chunks.insert({b, e});
            });
        EXPECT_EQ(chunks.size(), par::chunkCount(100, 7));
        // Chunks tile the range with no gaps or overlaps.
        std::size_t expect_b = 3;
        for (const auto &[b, e] : chunks) {
            EXPECT_EQ(b, expect_b);
            expect_b = e;
        }
        EXPECT_EQ(expect_b, 103u);
    }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ScopedThreads st(8);
    std::vector<std::atomic<int>> touched(1000);
    par::parallelFor(0, touched.size(), 9,
                     [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i)
                             touched[i].fetch_add(1);
                     });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, ExceptionPropagatesToCaller)
{
    ScopedThreads st(4);
    EXPECT_THROW(
        par::parallelFor(0, 100, 1,
                         [&](std::size_t b, std::size_t) {
                             if (b == 37)
                                 throw std::runtime_error("chunk 37");
                         }),
        std::runtime_error);
}

TEST(ParallelFor, PoolUsableAfterException)
{
    ScopedThreads st(4);
    EXPECT_THROW(par::parallelFor(0, 8, 1,
                                  [](std::size_t, std::size_t) {
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    std::atomic<int> calls{0};
    par::parallelFor(0, 8, 1,
                     [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelFor, LowestFailingChunkWinsWhenSeveralThrow)
{
    ScopedThreads st(8);
    try {
        par::parallelFor(0, 64, 1, [](std::size_t b, std::size_t) {
            if (b % 3 == 1) // chunks 1, 4, 7, ... all throw
                throw std::runtime_error("chunk " + std::to_string(b));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk 1");
    }
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    ScopedThreads st(4);
    std::vector<double> out(64, 0.0);
    par::parallelFor(0, 8, 1, [&](std::size_t b0, std::size_t e0) {
        for (std::size_t i = b0; i < e0; ++i) {
            par::parallelFor(0, 8, 1,
                             [&](std::size_t b1, std::size_t e1) {
                                 for (std::size_t j = b1; j < e1; ++j)
                                     out[i * 8 + j] =
                                         static_cast<double>(i * 8 + j);
                             });
        }
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<double>(i));
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity)
{
    const double r = par::parallelReduce(
        4, 4, 2, 42.0,
        [](std::size_t, std::size_t) { return 1.0; },
        [](double a, double b) { return a + b; });
    EXPECT_EQ(r, 42.0);
}

TEST(ParallelReduce, FloatSumBitIdenticalAcrossThreadCounts)
{
    // A float sum is non-associative, so bit-identity across thread
    // counts holds only because chunk bounds and the combine order
    // are fixed by (range, grain).
    std::vector<float> xs(10007);
    Rng rng(5);
    for (auto &x : xs)
        x = static_cast<float>(rng.gaussian(0.0, 1.0));

    auto sum_at = [&](unsigned threads) {
        ScopedThreads st(threads);
        return par::parallelReduce(
            0, xs.size(), 64, 0.0f,
            [&](std::size_t b, std::size_t e) {
                float s = 0.0f;
                for (std::size_t i = b; i < e; ++i)
                    s += xs[i];
                return s;
            },
            [](float a, float b) { return a + b; });
    };

    const float serial = sum_at(1);
    for (unsigned threads : {2u, 4u, 8u})
        EXPECT_EQ(serial, sum_at(threads))
            << "thread count " << threads;
}

TEST(ParallelReduce, CombineOrderIsAscendingChunkOrder)
{
    ScopedThreads st(8);
    // Concatenation is order-sensitive: the result pins the fold
    // order to chunk 0, 1, 2, ...
    const auto joined = par::parallelReduce(
        0, 26, 4, std::string{},
        [](std::size_t b, std::size_t e) {
            std::string s;
            for (std::size_t i = b; i < e; ++i)
                s.push_back(static_cast<char>('a' + i));
            return s;
        },
        [](std::string a, std::string b) { return a + b; });
    EXPECT_EQ(joined, "abcdefghijklmnopqrstuvwxyz");
}

TEST(ThreadCount, ResizeAndRestore)
{
    par::setThreadCount(3);
    EXPECT_EQ(par::threadCount(), 3u);
    std::atomic<int> calls{0};
    par::parallelFor(0, 16, 1,
                     [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 16);
    par::setThreadCount(0);
    EXPECT_GE(par::threadCount(), 1u);
}

TEST(ParallelFor, ZeroGrainPanics)
{
    EXPECT_DEATH(par::parallelFor(
                     0, 4, 0, [](std::size_t, std::size_t) {}),
                 "zero grain");
}
