/**
 * @file
 * Tests for the functional compute kernels: reference comparisons,
 * mathematical properties, and quantization error bounds. Shape sweeps
 * use parameterized tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "llm/kernels.hh"
#include "obs/metrics.hh"
#include "par/pool.hh"
#include "util/rng.hh"

using namespace cllm;
using namespace cllm::llm;

namespace {

Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Tensor t(r, c);
    Rng rng(seed);
    for (std::size_t i = 0; i < r; ++i)
        for (std::size_t j = 0; j < c; ++j)
            t.at(i, j) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return t;
}

void
naiveGemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
            c.at(i, j) = static_cast<float>(acc);
        }
    }
}

} // namespace

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, MatchesNaiveReference)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(m, k, 1);
    const Tensor b = randomTensor(k, n, 2);
    Tensor c(m, n), ref(m, n);
    gemm(a, b, c);
    naiveGemm(a, b, ref);
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j)
            EXPECT_NEAR(c.at(i, j), ref.at(i, j),
                        1e-3 * (1.0 + std::abs(ref.at(i, j))));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 66),
                      std::make_tuple(128, 17, 40),
                      std::make_tuple(1, 256, 1)));

TEST(Gemm, ZeroTimesAnythingIsZero)
{
    Tensor a(4, 8);
    const Tensor b = randomTensor(8, 4, 3);
    Tensor c(4, 4);
    c.fill(99.0f);
    gemm(a, b, c);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_EQ(c.at(i, j), 0.0f);
}

TEST(GemmDeath, ShapeMismatchPanics)
{
    Tensor a(2, 3), b(4, 2), c(2, 2);
    EXPECT_DEATH(gemm(a, b, c), "shape mismatch");
}

TEST(Matvec, MatchesGemmColumn)
{
    const Tensor w = randomTensor(32, 48, 4);
    const Tensor x = randomTensor(48, 1, 5);
    std::vector<float> y(32);
    matvec(w, x.data(), y.data());
    Tensor ref(32, 1);
    naiveGemm(w, x, ref);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_NEAR(y[i], ref.at(i, 0), 1e-3);
}

TEST(RmsNorm, ProducesUnitRms)
{
    Rng rng(6);
    std::vector<float> x(256), w(256, 1.0f), y(256);
    for (auto &v : x)
        v = static_cast<float>(rng.gaussian(0.0, 3.0));
    rmsnorm(x.data(), w.data(), y.data(), x.size());
    double sum_sq = 0.0;
    for (float v : y)
        sum_sq += static_cast<double>(v) * v;
    EXPECT_NEAR(std::sqrt(sum_sq / 256.0), 1.0, 1e-3);
}

TEST(RmsNorm, WeightScalesOutput)
{
    std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
    std::vector<float> w = {2.0f, 2.0f, 2.0f, 2.0f};
    std::vector<float> y1(4), y2(4);
    std::vector<float> ones(4, 1.0f);
    rmsnorm(x.data(), ones.data(), y1.data(), 4);
    rmsnorm(x.data(), w.data(), y2.data(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(y2[i], 2.0f * y1[i], 1e-6);
}

TEST(RmsNorm, ScaleInvariantDirection)
{
    std::vector<float> x = {1.0f, -2.0f, 0.5f, 3.0f};
    std::vector<float> x10 = x;
    for (auto &v : x10)
        v *= 10.0f;
    std::vector<float> w(4, 1.0f), y1(4), y2(4);
    rmsnorm(x.data(), w.data(), y1.data(), 4);
    rmsnorm(x10.data(), w.data(), y2.data(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(y1[i], y2[i], 1e-4);
}

TEST(Softmax, SumsToOne)
{
    std::vector<float> x = {1.0f, 2.0f, 3.0f, -1.0f, 0.0f};
    softmaxInPlace(x.data(), x.size());
    double sum = 0.0;
    for (float v : x) {
        EXPECT_GT(v, 0.0f);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Softmax, PreservesOrdering)
{
    std::vector<float> x = {0.5f, 3.0f, -2.0f};
    softmaxInPlace(x.data(), x.size());
    EXPECT_GT(x[1], x[0]);
    EXPECT_GT(x[0], x[2]);
}

TEST(Softmax, NumericallyStableForLargeInputs)
{
    std::vector<float> x = {10000.0f, 10001.0f};
    softmaxInPlace(x.data(), x.size());
    EXPECT_FALSE(std::isnan(x[0]));
    EXPECT_NEAR(x[0] + x[1], 1.0, 1e-6);
    EXPECT_GT(x[1], x[0]);
}

TEST(Softmax, EmptyIsNoop)
{
    softmaxInPlace(nullptr, 0); // must not crash
}

TEST(Rope, PreservesNorm)
{
    Rng rng(9);
    std::vector<float> v(64);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian(0.0, 1.0));
    double before = 0.0;
    for (float x : v)
        before += static_cast<double>(x) * x;
    applyRope(v.data(), v.size(), 1234);
    double after = 0.0;
    for (float x : v)
        after += static_cast<double>(x) * x;
    EXPECT_NEAR(before, after, 1e-3 * before);
}

TEST(Rope, PositionZeroIsIdentity)
{
    std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
    auto orig = v;
    applyRope(v.data(), v.size(), 0);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_NEAR(v[i], orig[i], 1e-6);
}

TEST(Rope, DotDependsOnlyOnDistance)
{
    // The defining RoPE property: <R_m q, R_n k> == <R_{m+d} q,
    // R_{n+d} k> for any shift d.
    Rng rng(10);
    std::vector<float> q(32), k(32);
    for (std::size_t i = 0; i < 32; ++i) {
        q[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
        k[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
    auto dot_at = [&](std::size_t pq, std::size_t pk) {
        auto qq = q, kk = k;
        applyRope(qq.data(), qq.size(), pq);
        applyRope(kk.data(), kk.size(), pk);
        double d = 0.0;
        for (std::size_t i = 0; i < qq.size(); ++i)
            d += static_cast<double>(qq[i]) * kk[i];
        return d;
    };
    EXPECT_NEAR(dot_at(10, 3), dot_at(110, 103), 1e-3);
    EXPECT_NEAR(dot_at(5, 5), dot_at(900, 900), 1e-3);
}

TEST(RopeDeath, OddHeadDimPanics)
{
    std::vector<float> v(3);
    EXPECT_DEATH(applyRope(v.data(), 3, 1), "odd");
}

TEST(Silu, KnownValues)
{
    std::vector<float> x = {0.0f, 100.0f, -100.0f};
    siluInPlace(x.data(), x.size());
    EXPECT_NEAR(x[0], 0.0f, 1e-6);
    EXPECT_NEAR(x[1], 100.0f, 1e-3); // ~identity for large positive
    EXPECT_NEAR(x[2], 0.0f, 1e-3);   // ~zero for large negative
}

TEST(Bf16, RoundtripErrorBounded)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const float x = static_cast<float>(rng.gaussian(0.0, 100.0));
        const float r = toBf16(x);
        // bf16 has 8 mantissa bits -> relative error < 2^-8.
        EXPECT_LE(std::abs(r - x), std::abs(x) * (1.0f / 256.0f) + 1e-30f);
    }
}

TEST(Bf16, ExactForSmallIntegers)
{
    for (float v : {0.0f, 1.0f, -2.0f, 64.0f, 128.0f})
        EXPECT_EQ(toBf16(v), v);
}

TEST(Bf16, QuantizeTensorAppliesEverywhere)
{
    Tensor t = randomTensor(8, 8, 12);
    quantizeBf16(t);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            EXPECT_EQ(t.at(i, j), toBf16(t.at(i, j)));
}

TEST(Int8Quant, DequantizeErrorBounded)
{
    const Tensor w = randomTensor(16, 64, 13);
    const QuantizedTensor q = QuantizedTensor::quantize(w);
    const Tensor d = q.dequantize();
    for (std::size_t r = 0; r < 16; ++r) {
        float max_abs = 0.0f;
        for (std::size_t c = 0; c < 64; ++c)
            max_abs = std::max(max_abs, std::abs(w.at(r, c)));
        for (std::size_t c = 0; c < 64; ++c) {
            // Error at most half a quantization step per element.
            EXPECT_LE(std::abs(d.at(r, c) - w.at(r, c)),
                      max_abs / 127.0f * 0.51f + 1e-6f);
        }
    }
}

TEST(Int8Quant, MatvecCloseToFloat)
{
    const Tensor w = randomTensor(32, 128, 14);
    const QuantizedTensor q = QuantizedTensor::quantize(w);
    Rng rng(15);
    std::vector<float> x(128), yf(32), yq(32);
    for (auto &v : x)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    matvec(w, x.data(), yf.data());
    matvecQuantized(q, x.data(), yq.data());
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_NEAR(yq[i], yf[i], 0.15 * (std::abs(yf[i]) + 1.0));
}

TEST(Int8Quant, ZeroRowHandled)
{
    Tensor w(2, 4); // all zeros
    const QuantizedTensor q = QuantizedTensor::quantize(w);
    std::vector<float> x(4, 1.0f), y(2, 99.0f);
    matvecQuantized(q, x.data(), y.data());
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
}

TEST(Tensor, AccessorsAndFill)
{
    Tensor t(2, 3);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.size(), 6u);
    t.fill(7.0f);
    EXPECT_EQ(t.at(1, 2), 7.0f);
    t.at(0, 0) = 1.0f;
    EXPECT_EQ(t.row(0)[0], 1.0f);
}

TEST(TensorDeath, OutOfRangePanics)
{
    Tensor t(2, 2);
    EXPECT_DEATH(t.at(2, 0), "out of range");
    EXPECT_DEATH(t.row(5), "out of range");
}

// ------------------------------------------------- thread determinism

namespace {

/** Run `fn` under each thread count and require bit-identical float
 *  output — the cllm::par contract the golden files rely on. */
template <typename Fn>
void
expectBitIdenticalAcrossThreads(Fn &&fn)
{
    par::setThreadCount(1);
    const std::vector<float> serial = fn();
    for (unsigned threads : {2u, 4u, 8u}) {
        par::setThreadCount(threads);
        const std::vector<float> parallel = fn();
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial[i], parallel[i])
                << "index " << i << " at " << threads << " threads";
    }
    par::setThreadCount(0);
}

} // namespace

TEST(ThreadDeterminism, GemmBitIdentical)
{
    const Tensor a = randomTensor(97, 65, 21);
    const Tensor b = randomTensor(65, 83, 22);
    expectBitIdenticalAcrossThreads([&] {
        Tensor c(97, 83);
        gemm(a, b, c);
        return std::vector<float>(c.data(), c.data() + c.size());
    });
}

// The 301-row matvecs fall under par::kMinChunkWork and run as one
// chunk on the caller; the 2053-wide shapes split into several chunks
// with a ragged tail and keep the dispatched path under test.

TEST(ThreadDeterminism, GemmTransBBitIdentical)
{
    const Tensor a = randomTensor(8, 128, 23);
    for (std::size_t n : {200u, 2053u}) {
        const Tensor w = randomTensor(n, 128, 24);
        expectBitIdenticalAcrossThreads([&] {
            Tensor c(8, n);
            gemmTransB(a, w, c);
            return std::vector<float>(c.data(), c.data() + c.size());
        });
    }
}

TEST(ThreadDeterminism, MatvecBitIdentical)
{
    const Tensor x = randomTensor(128, 1, 26);
    for (std::size_t rows : {301u, 2053u}) {
        const Tensor w = randomTensor(rows, 128, 25);
        expectBitIdenticalAcrossThreads([&] {
            std::vector<float> y(rows);
            matvec(w, x.data(), y.data());
            return y;
        });
    }
}

TEST(ThreadDeterminism, MatvecQuantizedBitIdentical)
{
    const Tensor x = randomTensor(128, 1, 28);
    for (std::size_t rows : {301u, 2053u}) {
        const QuantizedTensor q =
            QuantizedTensor::quantize(randomTensor(rows, 128, 27));
        expectBitIdenticalAcrossThreads([&] {
            std::vector<float> y(rows);
            matvecQuantized(q, x.data(), y.data());
            return y;
        });
    }
}

namespace {

/** par.chunks executed by one matvec of a rows x cols matrix. */
std::uint64_t
matvecChunks(std::size_t rows, std::size_t cols)
{
    const Tensor w = randomTensor(rows, cols, 37);
    const Tensor x = randomTensor(cols, 1, 38);
    std::vector<float> y(rows);
    const obs::Counter &chunks =
        obs::Registry::global().counter("par.chunks");
    const std::uint64_t before = chunks.total();
    matvec(w, x.data(), y.data());
    return chunks.total() - before;
}

} // namespace

TEST(ThreadDeterminism, MatvecChunkCountFollowsWork)
{
    // 48x48 is ~2.3k multiply-adds: one chunk, whatever the width.
    // 2053x128 at grain ceil(2^16 / 128) = 512 is four full chunks
    // and a 5-row tail.
    for (unsigned threads : {1u, 4u}) {
        par::setThreadCount(threads);
        EXPECT_EQ(matvecChunks(48, 48), 1u) << threads << " threads";
        EXPECT_EQ(matvecChunks(2053, 128), 5u) << threads << " threads";
    }
    par::setThreadCount(0);
}
