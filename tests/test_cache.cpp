/**
 * @file
 * Cache latency-model tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/cache.hpp"

namespace vegeta::cpu {
namespace {

TEST(Cache, FirstTouchPaysL2)
{
    CacheModel cache;
    EXPECT_EQ(cache.accessLine(0x1000), cache.config().l2Latency);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, ReReferenceHitsL1)
{
    CacheModel cache;
    cache.accessLine(0x1000);
    EXPECT_EQ(cache.accessLine(0x1000), cache.config().l1Latency);
    EXPECT_EQ(cache.accessLine(0x1010), cache.config().l1Latency)
        << "same 64 B line";
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, DistinctLinesMissSeparately)
{
    CacheModel cache;
    cache.accessLine(0);
    cache.accessLine(64);
    cache.accessLine(128);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(Cache, LruEvictionWithinSet)
{
    CacheConfig cfg;
    cfg.l1Sets = 1;
    cfg.l1Ways = 2;
    CacheModel cache(cfg);
    cache.accessLine(0);        // miss, {0}
    cache.accessLine(64);       // miss, {64, 0}
    cache.accessLine(0);        // hit,  {0, 64}
    cache.accessLine(128);      // miss, evicts 64
    EXPECT_EQ(cache.accessLine(0), cfg.l1Latency);
    EXPECT_EQ(cache.accessLine(64), cfg.l2Latency) << "was evicted";
}

TEST(Cache, RangeAccessTouchesEveryLine)
{
    CacheModel cache;
    auto range = cache.accessRange(0x2000, 1024);
    EXPECT_EQ(range.lines, 16u); // a 1 KB tile = 16 cache lines
    EXPECT_EQ(range.maxLatency, cache.config().l2Latency);
    EXPECT_EQ(cache.misses(), 16u);
    // Re-access: every line hits, so the aggregate is the L1 latency.
    auto again = cache.accessRange(0x2000, 1024);
    EXPECT_EQ(again.maxLatency, cache.config().l1Latency);
    EXPECT_EQ(cache.hits(), 16u);
    // Unaligned range straddles one extra line.
    auto unaligned = cache.accessRange(0x5020, 128);
    EXPECT_EQ(unaligned.lines, 3u);
}

TEST(Cache, ResetClearsState)
{
    CacheModel cache;
    cache.accessLine(0);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.accessLine(0), cache.config().l2Latency);
}

TEST(Cache, WorkingSetLargerThanL1Thrashes)
{
    CacheConfig cfg;
    CacheModel cache(cfg);
    const u32 lines = cfg.l1Sets * cfg.l1Ways * 2;
    for (u32 pass = 0; pass < 2; ++pass)
        for (u32 l = 0; l < lines; ++l)
            cache.accessLine(static_cast<Addr>(l) * cfg.lineBytes);
    // Sequential sweep over 2x capacity with LRU never hits.
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 2ull * lines);
}

TEST(Cache, ProbeSpanMatchesAccessLineForEveryAssociativity)
{
    // probeSpan's way-specialized loops (4/8/12/16) and its generic
    // fallback must evolve the bank exactly like repeated accessLine
    // calls: same latencies, same hit/miss counts, same later state.
    for (const u32 ways : {2u, 4u, 8u, 12u, 16u}) {
        SCOPED_TRACE("ways " + std::to_string(ways));
        CacheConfig cfg;
        cfg.l1Sets = 4;
        cfg.l1Ways = ways;
        CacheModel spans(cfg);
        CacheModel lines(cfg);
        u64 seed = 12345;
        for (u32 round = 0; round < 200; ++round) {
            seed = seed * 6364136223846793005ull +
                   1442695040888963407ull;
            const Addr base = (seed >> 33) % 4096 * 16;
            const u64 count = 1 + (seed >> 20) % 9;
            Cycles got[9];
            spans.probeSpan(base, 64, count, got);
            for (u64 i = 0; i < count; ++i)
                EXPECT_EQ(got[i], lines.accessLine(base + i * 64));
        }
        EXPECT_EQ(spans.hits(), lines.hits());
        EXPECT_EQ(spans.misses(), lines.misses());
        EXPECT_GT(spans.hits(), 0u);
    }
}

} // namespace
} // namespace vegeta::cpu
