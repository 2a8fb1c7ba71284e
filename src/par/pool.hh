/**
 * @file
 * Deterministic parallel execution layer.
 *
 * A fixed-size thread pool drives `parallelFor` / `parallelReduce`
 * over index ranges. The determinism contract: chunk boundaries and
 * the reduction combine order depend ONLY on the range and the grain
 * — never on the thread count or on scheduling — so any computation
 * whose chunks write disjoint state (or reduce through the provided
 * combiner) produces bit-identical results for `CLLM_THREADS=1` and
 * `CLLM_THREADS=N`. That contract is what lets the golden regression
 * files stay pinned while the hot paths (GEMM, attention, AES-CTR,
 * dense retrieval, bench sweeps) fan out across cores.
 *
 * Grains are pure functions of a call's shape, never of the thread
 * count: `grainFor` sizes a call site's grain from the work one item
 * carries, so a range whose whole work is below one chunk's worth
 * runs as a single chunk, inline on the caller, without waking the
 * pool.
 *
 * Thread-count resolution: the `CLLM_THREADS` environment variable if
 * set and positive, else `std::thread::hardware_concurrency()`. Tests
 * and benches may override at runtime with `setThreadCount()`.
 *
 * Nested calls from inside a worker task run inline and sequentially
 * (the same code path as a single-threaded pool), so parallel bench
 * sweeps can fan out over configurations whose inner kernels are
 * themselves parallelized without deadlock or oversubscription.
 */

#ifndef CLLM_PAR_POOL_HH
#define CLLM_PAR_POOL_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace cllm::par {

/** Current pool width (number of threads chunks may run on). */
unsigned threadCount();

/**
 * Reconfigure the pool width. 0 restores the default (CLLM_THREADS
 * env, else hardware concurrency). Joins and respawns the workers;
 * must not race an in-flight parallelFor. Results are unaffected —
 * the width changes wall-clock only, never chunking or combine order.
 */
void setThreadCount(unsigned n);

/**
 * Multiply-adds one chunk must carry before a dispatch pays for
 * itself. `BM_ParDispatch` (bench/micro_kernels) on a 4-core VM: a
 * woken worker starts its first chunk ~15 µs after the dispatch, so
 * width 2 and 4 break even with inline execution at ~2^13 scalar
 * multiply-adds a chunk (~6 µs). At 2^16 (~48 µs at 0.73 ns each)
 * width 2 runs 1.7x and width 4 2.8x faster than inline.
 */
inline constexpr std::size_t kMinChunkWork = std::size_t{1} << 16;

/**
 * Grain for a range whose items each carry `workPerItem`
 * multiply-adds: max(minGrain, ceil(kMinChunkWork / workPerItem)).
 * A pure function of the call's shape, so chunking — and with it the
 * determinism contract — never depends on the thread count.
 */
constexpr std::size_t
grainFor(std::size_t minGrain, std::size_t workPerItem)
{
    const std::size_t w = std::max<std::size_t>(workPerItem, 1);
    return std::max(minGrain, (kMinChunkWork + w - 1) / w);
}

/** Number of chunks a range of `count` items splits into at `grain`.
 *  Depends only on (count, grain): ceil(count / grain). */
std::size_t chunkCount(std::size_t count, std::size_t grain);

/**
 * Run `body(chunk, b, e)` for every chunk of [begin, end) at the
 * given grain. Chunk `i` always covers
 * [begin + i*grain, min(begin + (i+1)*grain, end)), whatever the
 * thread count. Chunks may run concurrently and in any order; bodies
 * must write disjoint state. A one-chunk range, a call nested in a
 * chunk, or a width-1 pool runs inline on the caller in chunk order.
 * The first-thrown exception (lowest chunk index wins when several
 * chunks throw) is rethrown on the caller after all chunks finish.
 * `grain` must be positive.
 */
void forEachChunk(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &body);

/**
 * Parallel loop over [begin, end): `body(b, e)` is invoked once per
 * chunk with the chunk's sub-range. See forEachChunk for the
 * determinism and exception contract.
 */
void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>
                     &body);

/**
 * Deterministic parallel reduction over [begin, end).
 *
 * `map(b, e)` produces one partial value per chunk (chunks may run
 * concurrently); the partials are then combined SEQUENTIALLY in
 * ascending chunk order: `acc = combine(acc, partial[0]); acc =
 * combine(acc, partial[1]); ...` starting from `identity`. Because
 * both the chunk boundaries and the fold order are fixed by (range,
 * grain), the result is bit-identical across thread counts even for
 * non-associative combines (floating-point sums, top-k merges).
 */
template <typename T, typename Map, typename Combine>
T
parallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
               T identity, Map &&map, Combine &&combine)
{
    const std::size_t n = end > begin ? end - begin : 0;
    const std::size_t chunks = chunkCount(n, grain);
    if (chunks == 0)
        return identity;
    std::vector<T> partial(chunks);
    forEachChunk(begin, end, grain,
                 [&](std::size_t chunk, std::size_t b, std::size_t e) {
                     partial[chunk] = map(b, e);
                 });
    T acc = std::move(identity);
    for (std::size_t i = 0; i < chunks; ++i)
        acc = combine(std::move(acc), std::move(partial[i]));
    return acc;
}

} // namespace cllm::par

#endif // CLLM_PAR_POOL_HH
