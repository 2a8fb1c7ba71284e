/**
 * @file
 * Tests for the paged KV-cache block pool: allocation, growth,
 * copy-on-write forking, exhaustion, and accounting — plus
 * parameterized property sweeps over pool geometries (no double-free,
 * monotone occupancy, admission reservations cover the full context).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "mem/kv_paged.hh"
#include "util/rng.hh"

using namespace cllm;

namespace {

mem::PagedKvConfig
smallPool(std::uint64_t blocks = 8, unsigned block_tokens = 4)
{
    mem::PagedKvConfig cfg;
    cfg.totalBlocks = blocks;
    cfg.blockTokens = block_tokens;
    return cfg;
}

} // namespace

TEST(KvPool, AdmitsAndAccounts)
{
    mem::PagedKvCache pool(smallPool());
    ASSERT_TRUE(pool.addSequence(1, 6)); // needs ceil(6/4) = 2 blocks
    EXPECT_EQ(pool.blocksOf(1), 2u);
    EXPECT_EQ(pool.tokens(1), 6u);
    EXPECT_EQ(pool.freeBlocks(), 6u);
    EXPECT_NEAR(pool.utilization(), 0.25, 1e-9);
}

TEST(KvPool, AppendAllocatesOnBoundary)
{
    mem::PagedKvCache pool(smallPool());
    ASSERT_TRUE(pool.addSequence(1, 4)); // exactly one full block
    EXPECT_EQ(pool.blocksOf(1), 1u);
    ASSERT_TRUE(pool.appendToken(1)); // crosses into block 2
    EXPECT_EQ(pool.blocksOf(1), 2u);
    ASSERT_TRUE(pool.appendToken(1)); // within block 2
    EXPECT_EQ(pool.blocksOf(1), 2u);
    EXPECT_EQ(pool.tokens(1), 6u);
}

TEST(KvPool, RejectsWhenFull)
{
    mem::PagedKvCache pool(smallPool(2, 4));
    ASSERT_TRUE(pool.addSequence(1, 8)); // both blocks
    EXPECT_FALSE(pool.addSequence(2, 1));
    EXPECT_FALSE(pool.appendToken(1)); // would need a third block
    // The failed ops must not leak or corrupt.
    EXPECT_EQ(pool.freeBlocks(), 0u);
    pool.release(1);
    EXPECT_EQ(pool.freeBlocks(), 2u);
    EXPECT_TRUE(pool.addSequence(2, 1));
}

TEST(KvPool, ReleaseReturnsBlocks)
{
    mem::PagedKvCache pool(smallPool());
    pool.addSequence(1, 8);
    pool.addSequence(2, 8);
    EXPECT_EQ(pool.freeBlocks(), 4u);
    pool.release(1);
    EXPECT_EQ(pool.freeBlocks(), 6u);
    EXPECT_EQ(pool.tokens(1), 0u);
}

TEST(KvPool, ForkSharesFullBlocks)
{
    mem::PagedKvCache pool(smallPool(8, 4));
    pool.addSequence(1, 8); // two full blocks
    ASSERT_TRUE(pool.fork(1, 2));
    // No partial block: everything shared, no extra allocation.
    EXPECT_EQ(pool.freeBlocks(), 6u);
    EXPECT_EQ(pool.tokens(2), 8u);
}

TEST(KvPool, ForkCopiesPartialBlock)
{
    mem::PagedKvCache pool(smallPool(8, 4));
    pool.addSequence(1, 6); // 1 full + 1 partial
    ASSERT_TRUE(pool.fork(1, 2));
    // Partial block duplicated: 3 blocks in use.
    EXPECT_EQ(pool.freeBlocks(), 5u);
}

TEST(KvPool, CopyOnWriteOnSharedBoundary)
{
    // Fork on a full-block boundary shares everything; the next
    // append lands in a fresh block so beams never clobber each
    // other.
    mem::PagedKvCache pool(smallPool(8, 4));
    pool.addSequence(1, 4);
    ASSERT_TRUE(pool.fork(1, 2));
    EXPECT_EQ(pool.freeBlocks(), 7u); // one shared block
    ASSERT_TRUE(pool.appendToken(1)); // new private block for 1
    ASSERT_TRUE(pool.appendToken(2)); // new private block for 2
    EXPECT_EQ(pool.freeBlocks(), 5u);
    EXPECT_EQ(pool.blocksOf(1), 2u);
    EXPECT_EQ(pool.blocksOf(2), 2u);
}

TEST(KvPool, ReleaseOfForkKeepsParentIntact)
{
    mem::PagedKvCache pool(smallPool(8, 4));
    pool.addSequence(1, 8);
    pool.fork(1, 2);
    pool.release(2);
    EXPECT_EQ(pool.freeBlocks(), 6u);
    EXPECT_EQ(pool.tokens(1), 8u);
    // Parent can still grow.
    EXPECT_TRUE(pool.appendToken(1));
}

TEST(KvPool, CanAdmitChecksWithoutAllocating)
{
    mem::PagedKvCache pool(smallPool(4, 4));
    EXPECT_TRUE(pool.canAdmit(16));
    EXPECT_FALSE(pool.canAdmit(17));
    EXPECT_EQ(pool.freeBlocks(), 4u); // unchanged
}

TEST(KvPool, ManySequencesChurn)
{
    mem::PagedKvCache pool(smallPool(64, 8));
    for (int round = 0; round < 20; ++round) {
        for (mem::KvSeqId s = 0; s < 8; ++s)
            ASSERT_TRUE(pool.addSequence(round * 100 + s, 17));
        for (mem::KvSeqId s = 0; s < 8; ++s) {
            for (int t = 0; t < 5; ++t)
                ASSERT_TRUE(pool.appendToken(round * 100 + s));
        }
        for (mem::KvSeqId s = 0; s < 8; ++s)
            pool.release(round * 100 + s);
    }
    EXPECT_EQ(pool.freeBlocks(), 64u); // no leaks
    EXPECT_EQ(pool.utilization(), 0.0);
}

TEST(KvPoolDeath, ApiMisuseFatal)
{
    mem::PagedKvCache pool(smallPool());
    pool.addSequence(1, 4);
    EXPECT_DEATH(pool.addSequence(1, 4), "duplicate");
    EXPECT_DEATH(pool.appendToken(99), "unknown");
    EXPECT_DEATH(pool.release(99), "unknown");
    EXPECT_DEATH(pool.fork(99, 100), "unknown");
    EXPECT_DEATH(pool.fork(1, 1), "existing");
}

TEST(KvPoolDeath, DegenerateConfigFatal)
{
    mem::PagedKvConfig cfg;
    cfg.totalBlocks = 0;
    EXPECT_DEATH(mem::PagedKvCache{cfg}, "degenerate");
}

// ---- Property sweeps over pool geometries -----------------------------
//
// Parameterized over (totalBlocks, blockTokens, seed): the invariants
// the serving simulator leans on must hold for any pool shape, not
// just the hand-picked cases above.

class KvPoolProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, unsigned, std::uint64_t>>
{
  protected:
    mem::PagedKvConfig
    cfg() const
    {
        mem::PagedKvConfig c;
        c.totalBlocks = std::get<0>(GetParam());
        c.blockTokens = std::get<1>(GetParam());
        return c;
    }

    std::uint64_t
    seed() const
    {
        return std::get<2>(GetParam());
    }
};

TEST_P(KvPoolProperty, ChurnNeverLeaksOrDoubleFrees)
{
    // Random admit/append/fork/release churn. A double-free would trip
    // the pool's refcount panic; a leak shows up as missing free
    // blocks once every survivor is released. Along the way, free
    // blocks can never exceed the pool size.
    mem::PagedKvCache pool(cfg());
    cllm::Rng rng(seed());
    std::vector<mem::KvSeqId> live;
    mem::KvSeqId next_id = 1;
    for (int op = 0; op < 400; ++op) {
        const double dice = rng.uniform();
        if (dice < 0.4) {
            const auto toks = static_cast<unsigned>(
                rng.uniformInt(1, 3 * cfg().blockTokens));
            if (pool.addSequence(next_id, toks))
                live.push_back(next_id);
            ++next_id;
        } else if (dice < 0.7 && !live.empty()) {
            const mem::KvSeqId id = live[rng.uniformInt(0, live.size() - 1)];
            pool.appendToken(id); // allowed to fail when full
        } else if (dice < 0.8 && !live.empty()) {
            const mem::KvSeqId parent =
                live[rng.uniformInt(0, live.size() - 1)];
            if (pool.fork(parent, next_id))
                live.push_back(next_id);
            ++next_id;
        } else if (!live.empty()) {
            const std::size_t at = rng.uniformInt(0, live.size() - 1);
            pool.release(live[at]);
            live.erase(live.begin() + at);
        }
        ASSERT_LE(pool.freeBlocks(), cfg().totalBlocks);
        ASSERT_GE(pool.utilization(), 0.0);
        ASSERT_LE(pool.utilization(), 1.0);
    }
    for (mem::KvSeqId id : live)
        pool.release(id);
    EXPECT_EQ(pool.freeBlocks(), cfg().totalBlocks);
    EXPECT_EQ(pool.utilization(), 0.0);
}

TEST_P(KvPoolProperty, OccupancyMonotoneUnderAllocation)
{
    // Admitting and growing sequences (no releases) can only raise
    // occupancy; peak utilization is non-decreasing.
    mem::PagedKvCache pool(cfg());
    cllm::Rng rng(seed());
    double peak = 0.0;
    std::vector<mem::KvSeqId> live;
    mem::KvSeqId id = 1;
    for (int op = 0; op < 200; ++op) {
        const double before = pool.utilization();
        if (rng.chance(0.5) || live.empty()) {
            if (pool.addSequence(id, static_cast<unsigned>(
                                         rng.uniformInt(
                                             1, 2 * cfg().blockTokens))))
                live.push_back(id);
            ++id;
        } else {
            pool.appendToken(live[rng.uniformInt(0, live.size() - 1)]);
        }
        const double after = pool.utilization();
        ASSERT_GE(after, before); // failed ops allocate nothing
        ASSERT_GE(after, 0.0);
        ASSERT_LE(after, 1.0);
        peak = std::max(peak, after);
        ASSERT_EQ(peak, after); // monotone: the latest IS the peak
    }
}

TEST_P(KvPoolProperty, AdmissionReservationCoversFullContext)
{
    // The serving loop admits with canAdmit(inLen + outLen) and then
    // reserves that whole context up front. The property the decode
    // loop relies on: a successful reservation owns enough block
    // capacity for every future token, so decode can never fail on KV
    // exhaustion mid-request.
    mem::PagedKvCache pool(cfg());
    cllm::Rng rng(seed());
    std::vector<mem::KvSeqId> live;
    mem::KvSeqId id = 1;
    for (int trial = 0; trial < 100; ++trial) {
        const auto in_len = static_cast<unsigned>(
            rng.uniformInt(1, 4 * cfg().blockTokens));
        const auto out_len = static_cast<unsigned>(
            rng.uniformInt(1, 2 * cfg().blockTokens));
        const unsigned context = in_len + out_len;
        if (!pool.canAdmit(context)) {
            // Rejection must be honest: the blocks really are scarce.
            const std::uint64_t need =
                (context + cfg().blockTokens - 1) / cfg().blockTokens;
            EXPECT_GT(need, pool.freeBlocks());
            if (!live.empty()) { // make room, as preemption would
                const std::size_t at =
                    rng.uniformInt(0, live.size() - 1);
                pool.release(live[at]);
                live.erase(live.begin() + at);
            }
            continue;
        }
        ASSERT_TRUE(pool.addSequence(id, context));
        EXPECT_GE(pool.blocksOf(id) * cfg().blockTokens, context);
        EXPECT_EQ(pool.tokens(id), context);
        live.push_back(id);
        ++id;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KvPoolProperty,
    ::testing::Combine(::testing::Values<std::uint64_t>(8, 64, 257),
                       ::testing::Values<unsigned>(1, 4, 16),
                       ::testing::Values<std::uint64_t>(1, 42)),
    [](const auto &info) {
        return "blocks" + std::to_string(std::get<0>(info.param)) +
               "_tok" + std::to_string(std::get<1>(info.param)) +
               "_seed" + std::to_string(std::get<2>(info.param));
    });
