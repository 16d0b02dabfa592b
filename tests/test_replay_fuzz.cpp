/**
 * @file
 * Randomized shared-stream vs single-stream cross-check.
 *
 * The equivalence tests pin hand-picked streams; this fuzz pass
 * hammers the same contract with a deterministically seeded matrix of
 * streams -- random op mixes crowded into a small address region so
 * Loads, Stores and TileStores alias in both the cache sets and the
 * store index, TileLoadM descriptors, raw line ranges from 65 lines
 * to past one 1024-line probe strip, VectorFma chains, and the naive
 * and optimized GEMM kernels (the naive one reloads C after storing
 * it) -- replayed on K = 1..8 lanes of randomly mixed core and engine
 * configurations.  Every lane
 * must be bit-identical to its own single-stream TraceCpu replay, and
 * the whole matrix must reproduce a digest captured from the earlier
 * independent-trace replayer, whose lanes each probed a private cache
 * and kept a private store map.  All randomness draws from the
 * library's audited common/Rng, so a failure is a repro, not a flake.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.hpp"
#include "cpu/lane_replayer.hpp"
#include "cpu/trace_cpu.hpp"
#include "kernels/gemm_kernels.hpp"

namespace vegeta::cpu {
namespace {

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.retiredOps, b.retiredOps);
    EXPECT_EQ(a.kindCounts, b.kindCounts);
    EXPECT_EQ(a.engineInstructions, b.engineInstructions);
    EXPECT_EQ(a.engineLastFinish, b.engineLastFinish);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.macUtilization, b.macUtilization);
}

/** FNV-1a over every field of a result, macUtilization's bits too. */
u64
mix(u64 hash, u64 value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

u64
digest(u64 hash, const SimResult &r)
{
    u64 util = 0;
    std::memcpy(&util, &r.macUtilization, sizeof(util));
    for (const u64 v : {u64{r.totalCycles}, r.retiredOps,
                        r.engineInstructions, u64{r.engineLastFinish},
                        r.cacheHits, r.cacheMisses, util})
        hash = mix(hash, v);
    for (const auto &[kind, count] : r.kindCounts)
        hash = mix(mix(hash, static_cast<u64>(kind)), count);
    return hash;
}

/** One random stream biased toward memory hazards. */
Trace
randomStream(Rng &rng)
{
    // A few KiB of addresses so loads, stores and tile stores collide
    // in both the cache sets and the store-to-load dependence index.
    const auto addr = [&] {
        return Addr{0x1000} + rng.nextBelow(0x2001);
    };
    static constexpr u32 kBytes[] = {4, 8, 64, 256};
    const auto c_reg = [&] {
        return isa::treg(static_cast<u8>(5 + rng.nextBelow(3)));
    };

    Trace trace;
    const u64 n = 50 + rng.nextBelow(1451); // length in [50, 1500]
    trace.reserve(n);
    for (u64 i = 0; i < n; ++i) {
        switch (rng.nextBelow(16)) {
          case 0:
          case 1:
          case 2:
            trace.push_back(TraceOp::alu());
            break;
          case 3:
            trace.push_back(TraceOp::branch());
            break;
          case 4:
          case 5: // unaligned addresses exercise line straddles
            trace.push_back(
                TraceOp::load(addr(), kBytes[rng.nextBelow(4)]));
            break;
          case 6: // a raw line range of 65 up to ~1300 lines
            trace.push_back(TraceOp::load(
                addr(), 64 * 64 + 1 +
                            static_cast<u32>(rng.nextBelow(80000))));
            break;
          case 7:
          case 8:
            trace.push_back(
                TraceOp::store(addr(), kBytes[rng.nextBelow(4)]));
            break;
          case 9:
          case 10:
            trace.push_back(
                TraceOp::vectorFma(u32(rng.nextBelow(4))));
            break;
          case 11: {
            static constexpr u8 kRegs[] = {0, 4, 5, 6, 7};
            trace.push_back(TraceOp::fromTileInstruction(
                isa::makeTileLoadT(isa::treg(kRegs[rng.nextBelow(5)]),
                                   addr(), 64)));
            break;
          }
          case 12:
            trace.push_back(TraceOp::fromTileInstruction(
                isa::makeTileLoadM(4, addr())));
            break;
          case 13:
            trace.push_back(TraceOp::fromTileInstruction(
                isa::makeTileStoreT(addr(), 64, c_reg())));
            break;
          default:
            trace.push_back(TraceOp::fromTileInstruction(
                isa::makeTileGemm(c_reg(), isa::treg(4),
                                  isa::treg(0))));
            break;
        }
    }
    return trace;
}

/** A small naive or optimized GEMM kernel at a random pattern. */
Trace
kernelStream(Rng &rng)
{
    static constexpr u32 kPatterns[] = {1, 2, 4};
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    opts.optimized = rng.nextBelow(2) == 0;
    opts.cBlocking = 1 + static_cast<u32>(rng.nextBelow(3));
    const kernels::GemmDims dims{
        16 * (1 + static_cast<u32>(rng.nextBelow(3))),
        16 * (1 + static_cast<u32>(rng.nextBelow(3))),
        32 * (1 + static_cast<u32>(rng.nextBelow(4)))};
    return kernels::runSpmmKernel(dims, kPatterns[rng.nextBelow(3)],
                                  opts)
        .trace;
}

/** A random lane configuration able to execute @p trace. */
LaneReplayer::LaneSpec
randomLane(Rng &rng, const Trace &trace)
{
    std::vector<engine::EngineConfig> engines;
    for (const auto &engine : engine::allEvaluatedConfigs()) {
        bool ok = true;
        for (const TraceOp &op : trace)
            if (op.kind == UopKind::TileCompute &&
                !engine.supportsOpcode(op.tile.op))
                ok = false;
        if (ok)
            engines.push_back(engine);
    }
    static constexpr u32 kDividers[] = {1, 2, 4};
    CoreConfig core;
    core.fetchWidth = 1 + static_cast<u32>(rng.nextBelow(6));
    core.retireWidth = 1 + static_cast<u32>(rng.nextBelow(6));
    core.robEntries = 4 + static_cast<u32>(rng.nextBelow(125));
    core.loadBufferEntries = 1 + static_cast<u32>(rng.nextBelow(96));
    core.engineClockDivider = kDividers[rng.nextBelow(3)];
    core.outputForwarding = rng.nextBelow(2) == 0;
    return {core, engines[rng.nextBelow(engines.size())]};
}

/** One matrix entry: a stream and K random lanes to replay it on. */
struct Round
{
    Trace trace;
    std::vector<LaneReplayer::LaneSpec> lanes;
};

std::vector<Round>
fuzzMatrix()
{
    Rng rng(0x5ee7a11e5u); // fixed: failures must repro
    std::vector<Round> rounds;
    for (u32 round = 0; round < 32; ++round) {
        Round r;
        r.trace =
            round % 4 == 3 ? kernelStream(rng) : randomStream(rng);
        const u32 width = 1 + round % 8; // K = 1..8, each 4 times
        for (u32 lane = 0; lane < width; ++lane)
            r.lanes.push_back(randomLane(rng, r.trace));
        rounds.push_back(std::move(r));
    }
    return rounds;
}

/**
 * Digest of the matrix's per-lane results, captured from the earlier
 * independent-trace LaneReplayer (private cache bank and store map
 * per lane) on the same seeded matrix.
 */
constexpr u64 kIndependentDigest = 0x6205180f1a571da4ull;

TEST(ReplayFuzz, SharedStreamLanesMatchSingleStream)
{
    u64 hash = 0xcbf29ce484222325ull;
    for (const Round &round : fuzzMatrix()) {
        SCOPED_TRACE("K=" + std::to_string(round.lanes.size()) +
                     ", " + std::to_string(round.trace.size()) +
                     " ops");
        LaneReplayer replayer(round.lanes);
        const auto results = replayer.run(round.trace);
        ASSERT_EQ(results.size(), round.lanes.size());
        for (std::size_t lane = 0; lane < results.size(); ++lane) {
            SCOPED_TRACE("lane " + std::to_string(lane));
            TraceCpu single(round.lanes[lane].core,
                            round.lanes[lane].engine);
            expectIdentical(results[lane], single.run(round.trace));
            hash = digest(hash, results[lane]);
        }
    }
    EXPECT_EQ(hash, kIndependentDigest);
}

TEST(ReplayFuzzDeathTest, MismatchedCacheConfigsAreRejected)
{
    // The shared probe strip is exact for one bank only.
    CoreConfig small_l1;
    small_l1.cache.l1Ways = 4;
    const std::vector<LaneReplayer::LaneSpec> specs = {
        {{}, engine::vegetaS162()}, {small_l1, engine::vegetaS162()}};
    EXPECT_DEATH(LaneReplayer{specs}, "CacheConfig");
}

} // namespace
} // namespace vegeta::cpu
