/**
 * @file
 * google-benchmark microbenchmarks of the functional kernels backing
 * the runtime: GEMM, matvec (dense and int8-quantized), RMSNorm,
 * softmax, RoPE, and a full TinyLlama decode step, plus the cost of
 * one cllm::par dispatch against the work a chunk carries. These
 * measure the host machine (not the simulated EMR targets) and exist
 * to keep the functional substrate honest and regression-tracked.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "llm/kernels.hh"
#include "llm/runtime.hh"
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
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    return t;
}

void
BM_Gemm(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Tensor a = randomTensor(n, n, 1);
    const Tensor b = randomTensor(n, n, 2);
    Tensor c(n, n);
    for (auto _ : state) {
        gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void
BM_Matvec(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Tensor w = randomTensor(n, n, 3);
    std::vector<float> x(n, 1.0f), y(n);
    for (auto _ : state) {
        matvec(w, x.data(), y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_Matvec)->Arg(256)->Arg(1024);

void
BM_MatvecInt8(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const QuantizedTensor q =
        QuantizedTensor::quantize(randomTensor(n, n, 4));
    std::vector<float> x(n, 1.0f), y(n);
    for (auto _ : state) {
        matvecQuantized(q, x.data(), y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_MatvecInt8)->Arg(256)->Arg(1024);

void
BM_GemmTransB(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Tensor a = randomTensor(8, n, 5);  // batch of 8 activations
    const Tensor w = randomTensor(n, n, 6);  // [out x in] weights
    Tensor c(8, n);
    for (auto _ : state) {
        gemmTransB(a, w, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * 8 * n * n);
}
BENCHMARK(BM_GemmTransB)->Arg(256)->Arg(512);

void
BM_TinyLlamaBatchedStep(benchmark::State &state)
{
    ModelConfig cfg;
    cfg.layers = 4;
    cfg.hidden = 128;
    cfg.heads = 8;
    cfg.kvHeads = 8;
    cfg.ffn = 256;
    cfg.vocab = 258;
    const TinyLlama model(cfg, hw::Dtype::Fp32, 7);
    const unsigned bsz = static_cast<unsigned>(state.range(0));
    std::vector<KvCache> caches(bsz, model.makeCache());
    std::vector<KvCache *> ptrs;
    for (auto &c : caches)
        ptrs.push_back(&c);
    std::vector<TokenId> toks(bsz, 1);
    for (auto _ : state) {
        const auto logits = model.forwardBatch(toks, ptrs);
        benchmark::DoNotOptimize(logits.data());
    }
    state.SetItemsProcessed(state.iterations() * bsz);
}
BENCHMARK(BM_TinyLlamaBatchedStep)->Arg(1)->Arg(8);

void
BM_RmsNorm(benchmark::State &state)
{
    const std::size_t n = 4096;
    std::vector<float> x(n, 0.5f), w(n, 1.0f), y(n);
    for (auto _ : state) {
        rmsnorm(x.data(), w.data(), y.data(), n);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RmsNorm);

void
BM_Softmax(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<float> base(n);
    for (std::size_t i = 0; i < n; ++i)
        base[i] = static_cast<float>(i % 17) * 0.1f;
    for (auto _ : state) {
        std::vector<float> x = base;
        softmaxInPlace(x.data(), n);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Softmax)->Arg(1024)->Arg(8192);

void
BM_Rope(benchmark::State &state)
{
    std::vector<float> v(128, 1.0f);
    std::size_t pos = 0;
    for (auto _ : state) {
        applyRope(v.data(), v.size(), ++pos);
        benchmark::DoNotOptimize(v.data());
    }
}
BENCHMARK(BM_Rope);

void
BM_TinyLlamaDecodeStep(benchmark::State &state)
{
    ModelConfig cfg;
    cfg.layers = 4;
    cfg.hidden = 128;
    cfg.heads = 8;
    cfg.kvHeads = 8;
    cfg.ffn = 256;
    cfg.vocab = 258;
    const TinyLlama model(cfg, hw::Dtype::Fp32, 7);
    KvCache cache = model.makeCache();
    model.forward(1, cache); // warm the cache
    TokenId tok = 2;
    for (auto _ : state) {
        const auto logits = model.forward(tok, cache);
        tok = static_cast<TokenId>(
            std::max_element(logits.begin(), logits.end()) -
            logits.begin());
        benchmark::DoNotOptimize(logits.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TinyLlamaDecodeStep);

/**
 * One parallelFor of four chunks, each a scalar dot product of
 * range(1) multiply-adds, on a pool of range(0) threads. At width 1
 * the chunks run inline, so the time difference to width 2 or 4 at
 * the same work is what a dispatch costs or saves. The work at which
 * the widths break even sizes par::kMinChunkWork.
 */
void
BM_ParDispatch(benchmark::State &state)
{
    constexpr std::size_t kChunks = 4;
    const auto threads = static_cast<unsigned>(state.range(0));
    const auto work = static_cast<std::size_t>(state.range(1));
    std::vector<float> a(kChunks * work, 0.5f), b(kChunks * work, 1.5f);
    std::vector<float> out(kChunks);
    par::setThreadCount(threads);
    for (auto _ : state) {
        par::parallelFor(0, kChunks, 1, [&](std::size_t c0,
                                             std::size_t c1) {
            for (std::size_t c = c0; c < c1; ++c) {
                const float *x = a.data() + c * work;
                const float *y = b.data() + c * work;
                float acc = 0.0f;
                for (std::size_t i = 0; i < work; ++i)
                    acc += x[i] * y[i];
                out[c] = acc;
            }
        });
        benchmark::DoNotOptimize(out.data());
    }
    par::setThreadCount(0);
    state.SetItemsProcessed(state.iterations() * kChunks * work);
}
BENCHMARK(BM_ParDispatch)
    ->ArgsProduct({{1, 2, 4},
                   {0, 1 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 16}});

} // namespace

BENCHMARK_MAIN();
