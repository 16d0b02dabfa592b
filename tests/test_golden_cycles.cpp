/**
 * @file
 * Golden-cycle regression matrix.
 *
 * Every value below was captured from the pre-streaming-refactor
 * replayer (full-trace vectors, unordered_map renaming, std::list
 * LRU) at commit 90d647f and is pinned exactly -- including the
 * macUtilization doubles, written as hex-float literals so the
 * comparison is bit-identical.  The streaming rewrite of TraceCpu is
 * required to be a pure performance change: any drift in totalCycles,
 * cache hits/misses, or utilization on this (engine, workload, N,
 * forwarding) matrix is a modeling regression, not noise.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "common/random.hpp"
#include "cpu/lane_replayer.hpp"
#include "cpu/trace_cpu.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {
namespace {

struct GoldenPoint
{
    const char *engine;
    const char *workload;
    kernels::GemmDims dims;
    u32 patternN;
    bool outputForwarding;
    Cycles coreCycles;
    u64 instructions;
    u64 engineInstructions;
    u64 cacheHits;
    u64 cacheMisses;
    double macUtilization;
};

// Captured from the pre-refactor model (see file comment).
// clang-format off
const GoldenPoint kGolden[] = {
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 4, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 4, true, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 2, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 2, true, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 1, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 1, true, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 4, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 4, true, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 2, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 2, true, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 1, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 1, true, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 4, false, 1454, 223, 16, 192, 320, 0x1.68954dd2390bap-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 4, true, 1430, 223, 16, 192, 320, 0x1.6ea28d118b474p-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 2, false, 946, 179, 8, 192, 268, 0x1.151b9a3fdd5c9p-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 2, true, 938, 179, 8, 192, 268, 0x1.1778a191bd684p-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 1, false, 714, 149, 4, 192, 230, 0x1.6f26016f26017p-2},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 1, true, 714, 149, 4, 192, 230, 0x1.6f26016f26017p-2},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 4, false, 11602, 1071, 128, 1248, 2336, 0x1.6983fe694b81dp-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 4, true, 9810, 1071, 128, 1248, 2336, 0x1.ab8dce001ab8ep-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 2, false, 6474, 719, 64, 1832, 1336, 0x1.43ef3bde26c08p-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 2, true, 5706, 719, 64, 1832, 1336, 0x1.6f88d6a26957ep-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 1, false, 4010, 479, 32, 1944, 920, 0x1.057d829e119ebp-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 1, true, 3754, 479, 32, 1944, 920, 0x1.175283c02ba4ep-1},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 4, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 4, true, 1542, 223, 16, 192, 320, 0x1.5401540154015p-1},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 2, false, 1170, 179, 8, 192, 268, 0x1.c01c01c01c01cp-2},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 2, true, 1050, 179, 8, 192, 268, 0x1.f3526859b8cecp-2},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 1, false, 826, 149, 4, 192, 230, 0x1.3d5d991aa75c6p-2},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 1, true, 826, 149, 4, 192, 230, 0x1.3d5d991aa75c6p-2},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 4, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 4, true, 10258, 1071, 128, 1248, 2336, 0x1.98e19a7a7c14fp-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 2, false, 7594, 719, 64, 1832, 1336, 0x1.1428b90147f06p-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 2, true, 6154, 719, 64, 1832, 1336, 0x1.54c7579b7f35bp-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 1, false, 4682, 479, 32, 1944, 920, 0x1.bfeb00fbf4309p-2},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 1, true, 4202, 479, 32, 1944, 920, 0x1.f315911e95625p-2},
    {"STC-like", "quick-small", {32, 32, 128}, 4, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"STC-like", "quick-small", {32, 32, 128}, 4, true, 1542, 223, 16, 192, 320, 0x1.5401540154015p-1},
    {"STC-like", "quick-small", {32, 32, 128}, 2, false, 1170, 179, 8, 192, 268, 0x1.c01c01c01c01cp-2},
    {"STC-like", "quick-small", {32, 32, 128}, 2, true, 1050, 179, 8, 192, 268, 0x1.f3526859b8cecp-2},
    {"STC-like", "quick-small", {32, 32, 128}, 1, false, 1170, 179, 8, 192, 268, 0x1.c01c01c01c01cp-2},
    {"STC-like", "quick-small", {32, 32, 128}, 1, true, 1050, 179, 8, 192, 268, 0x1.f3526859b8cecp-2},
    {"STC-like", "quick-square", {64, 64, 256}, 4, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"STC-like", "quick-square", {64, 64, 256}, 4, true, 10258, 1071, 128, 1248, 2336, 0x1.98e19a7a7c14fp-1},
    {"STC-like", "quick-square", {64, 64, 256}, 2, false, 7594, 719, 64, 1832, 1336, 0x1.1428b90147f06p-1},
    {"STC-like", "quick-square", {64, 64, 256}, 2, true, 6154, 719, 64, 1832, 1336, 0x1.54c7579b7f35bp-1},
    {"STC-like", "quick-square", {64, 64, 256}, 1, false, 7594, 719, 64, 1832, 1336, 0x1.1428b90147f06p-1},
    {"STC-like", "quick-square", {64, 64, 256}, 1, true, 6154, 719, 64, 1832, 1336, 0x1.54c7579b7f35bp-1},
};
// clang-format on

TEST(GoldenCycles, MatrixIsBitIdenticalToPreRefactorModel)
{
    const Session session;
    for (const GoldenPoint &g : kGolden) {
        SCOPED_TRACE(std::string(g.engine) + " / " + g.workload +
                     " N=" + std::to_string(g.patternN) +
                     (g.outputForwarding ? " +OF" : ""));
        auto job = session.job()
                       .gemm(g.dims)
                       .engine(g.engine)
                       .pattern(g.patternN)
                       .outputForwarding(g.outputForwarding)
                       .build();
        ASSERT_TRUE(job.has_value());
        const SimulationResult result = session.run(job->simulation);
        EXPECT_EQ(result.coreCycles, g.coreCycles);
        EXPECT_EQ(result.instructions, g.instructions);
        EXPECT_EQ(result.engineInstructions, g.engineInstructions);
        EXPECT_EQ(result.cacheHits, g.cacheHits);
        EXPECT_EQ(result.cacheMisses, g.cacheMisses);
        EXPECT_EQ(result.macUtilization, g.macUtilization)
            << "macUtilization must match bit for bit";
    }
}

TEST(GoldenCycles, NaiveKernelPoint)
{
    // Listing-1 kernel variant (C through memory inside the k loop),
    // captured from the same pre-refactor model.
    const Session session;
    auto job = session.job()
                   .gemm(kernels::GemmDims{32, 32, 128})
                   .engine("VEGETA-S-16-2")
                   .pattern(2)
                   .kernel(KernelVariant::Naive)
                   .build();
    ASSERT_TRUE(job.has_value());
    const SimulationResult result = session.run(job->simulation);
    EXPECT_EQ(result.coreCycles, 2027u);
    EXPECT_EQ(result.instructions, 245u);
    EXPECT_EQ(result.cacheHits, 396u);
    EXPECT_EQ(result.cacheMisses, 268u);
    EXPECT_EQ(result.macUtilization, 0x1.02a6f64678fdap-2);
}

TEST(GoldenCycles, BatchReplayMatchesStreamingRun)
{
    // The facade's streaming path and a batch replay of the same
    // generated trace must agree on every golden point measurement.
    const Session session;
    const GoldenPoint &g = kGolden[20]; // S-16-2, quick-square, N=2
    auto job = session.job()
                   .gemm(g.dims)
                   .engine(g.engine)
                   .pattern(g.patternN)
                   .outputForwarding(g.outputForwarding)
                   .build();
    ASSERT_TRUE(job.has_value());
    cpu::Trace trace;
    session.run(job->simulation, &trace); // batch path, trace captured
    const SimulationResult streamed = session.run(job->simulation);
    const SimulationResult replayed =
        session.replay(trace, job->simulation);
    EXPECT_EQ(replayed.coreCycles, g.coreCycles);
    EXPECT_EQ(streamed.coreCycles, replayed.coreCycles);
    EXPECT_EQ(streamed.cacheHits, replayed.cacheHits);
    EXPECT_EQ(streamed.cacheMisses, replayed.cacheMisses);
    EXPECT_EQ(streamed.macUtilization, replayed.macUtilization);
}

std::vector<SimulationRequest>
goldenRequests()
{
    std::vector<SimulationRequest> requests;
    requests.reserve(std::size(kGolden));
    const Session session;
    for (const GoldenPoint &g : kGolden) {
        auto job = session.job()
                       .gemm(g.dims)
                       .engine(g.engine)
                       .pattern(g.patternN)
                       .outputForwarding(g.outputForwarding)
                       .build();
        EXPECT_TRUE(job.has_value());
        requests.push_back(job->simulation);
    }
    return requests;
}

void
expectGolden(const GoldenPoint &g, const SimulationResult &result)
{
    SCOPED_TRACE(std::string(g.engine) + " / " + g.workload +
                 " N=" + std::to_string(g.patternN) +
                 (g.outputForwarding ? " +OF" : ""));
    EXPECT_EQ(result.coreCycles, g.coreCycles);
    EXPECT_EQ(result.instructions, g.instructions);
    EXPECT_EQ(result.engineInstructions, g.engineInstructions);
    EXPECT_EQ(result.cacheHits, g.cacheHits);
    EXPECT_EQ(result.cacheMisses, g.cacheMisses);
    EXPECT_EQ(result.macUtilization, g.macUtilization)
        << "macUtilization must match bit for bit";
}

TEST(GoldenCycles, GroupedBatchIsBitIdenticalForEveryThreadCount)
{
    // The whole golden matrix through Session::runBatch's stream
    // groups: every thread count (8 forces group splits on this
    // small batch) must reproduce the pinned pre-refactor values bit
    // for bit, macUtilization included.  This is the end-to-end pin
    // of the shared-stream bit-exactness contract.
    const auto requests = goldenRequests();
    for (const u32 threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        // A fresh session per count: the in-memory result cache
        // would otherwise satisfy every later count without
        // replaying.
        const Session session;
        const auto results = session.runBatch(requests, threads);
        ASSERT_EQ(results.size(), std::size(kGolden));
        for (std::size_t i = 0; i < results.size(); ++i)
            expectGolden(kGolden[i], results[i]);
    }
}

TEST(GoldenCycles, MatrixIsBitIdenticalWithTracingEnabled)
{
    // Telemetry observes and never steers: with span recording armed
    // (the --trace-out path), the batched golden matrix must still
    // match every pinned value bit for bit, and the run must actually
    // have recorded spans.
    const auto requests = goldenRequests();
    telemetry::setTraceEnabled(true);
    telemetry::clearTrace();
    const Session session;
    const auto results = session.runBatch(requests, 2);
    telemetry::setTraceEnabled(false);
    ASSERT_EQ(results.size(), std::size(kGolden));
    for (std::size_t i = 0; i < results.size(); ++i)
        expectGolden(kGolden[i], results[i]);
#ifndef VEGETA_NO_TELEMETRY
    EXPECT_GT(telemetry::traceSpanCount("session.batch.plan"), 0u)
        << "an armed golden batch must record its planning span";
    EXPECT_GT(telemetry::traceSpanCount("session.stream"), 0u)
        << "an armed grouped batch must record stream spans";
#endif
    telemetry::clearTrace();
}

TEST(GoldenCycles, SharedStreamLanesMatchPinnedValues)
{
    // The replayer itself, below the Session: every golden point that
    // replays one uop stream (same GEMM and executed N) rides as a
    // lane of one LaneReplayer fed by a single kernel emission, and
    // each lane must land on its pinned values.
    const EngineRegistry engines = EngineRegistry::builtin();
    struct Group
    {
        const GoldenPoint *first = nullptr;
        u32 executedN = 0;
        std::vector<const GoldenPoint *> points;
        std::vector<cpu::LaneReplayer::LaneSpec> specs;
    };
    std::vector<Group> groups;
    for (const GoldenPoint &g : kGolden) {
        const auto engine = engines.find(g.engine);
        ASSERT_TRUE(engine.has_value());
        const u32 executed_n = engine->effectiveN(g.patternN);
        cpu::CoreConfig core;
        core.outputForwarding = g.outputForwarding && engine->sparse;
        Group *group = nullptr;
        for (Group &candidate : groups)
            if (candidate.first->dims.m == g.dims.m &&
                candidate.first->dims.n == g.dims.n &&
                candidate.first->dims.k == g.dims.k &&
                candidate.executedN == executed_n)
                group = &candidate;
        if (!group) {
            groups.push_back({&g, executed_n, {}, {}});
            group = &groups.back();
        }
        group->points.push_back(&g);
        group->specs.push_back({core, *engine});
    }
    ASSERT_LT(groups.size(), std::size(kGolden))
        << "the matrix must exercise multi-lane streams";

    kernels::KernelOptions opts;
    opts.traceOnly = true;
    for (const Group &group : groups) {
        SCOPED_TRACE("K=" + std::to_string(group.specs.size()));
        cpu::LaneReplayer replayer(group.specs);
        kernels::streamSpmmKernel(group.first->dims, group.executedN,
                                  opts, replayer.sink());
        const auto sims = replayer.finish();
        ASSERT_EQ(sims.size(), group.points.size());
        for (std::size_t lane = 0; lane < sims.size(); ++lane) {
            const GoldenPoint &g = *group.points[lane];
            SimulationResult result;
            result.coreCycles = sims[lane].totalCycles;
            result.instructions = sims[lane].retiredOps;
            result.engineInstructions = sims[lane].engineInstructions;
            result.cacheHits = sims[lane].cacheHits;
            result.cacheMisses = sims[lane].cacheMisses;
            result.macUtilization = sims[lane].macUtilization;
            expectGolden(g, result);
        }
    }
}

std::string
hexFloat(double value)
{
    std::ostringstream os;
    os << std::hexfloat << value;
    return os.str();
}

TEST(GoldenCycles, EqualTimingKeysReplayBitIdentically)
{
    // The guard on runBatch's timing classes: any two registered
    // engine x OF lanes that LaneReplayer::sameTiming calls equal
    // must replay every stream both can execute to bit-identical
    // results.  A PipelineModel or lane change that starts reading a
    // field the key leaves out fails here until the key grows.
    const EngineRegistry engines = EngineRegistry::builtin();
    std::vector<cpu::LaneReplayer::LaneSpec> specs;
    for (const auto &engine : engines.configs()) {
        for (const bool of : {false, true}) {
            cpu::CoreConfig core;
            core.outputForwarding = of && engine.sparse;
            specs.push_back({core, engine});
        }
    }

    Rng rng(0x7131c1a55u); // fixed: failures must repro
    for (const u32 executed_n : {1u, 2u, 4u}) {
        for (const bool optimized : {false, true}) {
            kernels::KernelOptions opts;
            opts.traceOnly = true;
            opts.optimized = optimized;
            opts.cBlocking = 1 + static_cast<u32>(rng.nextBelow(3));
            const kernels::GemmDims dims{
                16 * (1 + static_cast<u32>(rng.nextBelow(3))),
                16 * (1 + static_cast<u32>(rng.nextBelow(3))),
                32 * (1 + static_cast<u32>(rng.nextBelow(4)))};
            SCOPED_TRACE("N=" + std::to_string(executed_n) + " " +
                         std::to_string(dims.m) + "x" +
                         std::to_string(dims.n) + "x" +
                         std::to_string(dims.k) +
                         (optimized ? " optimized" : " naive"));
            const cpu::Trace trace =
                kernels::runSpmmKernel(dims, executed_n, opts).trace;

            std::vector<std::optional<cpu::SimResult>> sims(
                specs.size());
            auto replay = [&](std::size_t s) -> const cpu::SimResult & {
                if (!sims[s])
                    sims[s] = cpu::TraceCpu(specs[s].core,
                                            specs[s].engine)
                                  .run(trace);
                return *sims[s];
            };
            u32 merged = 0;
            for (std::size_t a = 0; a < specs.size(); ++a) {
                for (std::size_t b = a + 1; b < specs.size(); ++b) {
                    const auto &ea = specs[a].engine;
                    const auto &eb = specs[b].engine;
                    if (ea.effectiveN(executed_n) != executed_n ||
                        eb.effectiveN(executed_n) != executed_n ||
                        !cpu::LaneReplayer::sameTiming(specs[a],
                                                       specs[b]))
                        continue;
                    SCOPED_TRACE(ea.name + " vs " + eb.name);
                    const cpu::SimResult &x = replay(a);
                    const cpu::SimResult &y = replay(b);
                    EXPECT_EQ(x.totalCycles, y.totalCycles);
                    EXPECT_EQ(x.retiredOps, y.retiredOps);
                    EXPECT_EQ(x.kindCounts, y.kindCounts);
                    EXPECT_EQ(x.engineInstructions,
                              y.engineInstructions);
                    EXPECT_EQ(x.engineLastFinish, y.engineLastFinish);
                    EXPECT_EQ(x.cacheHits, y.cacheHits);
                    EXPECT_EQ(x.cacheMisses, y.cacheMisses);
                    EXPECT_EQ(hexFloat(x.macUtilization),
                              hexFloat(y.macUtilization));
                    ++merged;
                }
            }
            EXPECT_GT(merged, 0u);
        }
    }
}

TEST(GoldenCycles, TimingKeyMergesTheFigure13Equivalences)
{
    // The Table IV merges runBatch relies on (docs/REPLAY.md), and
    // the splits it must keep.
    const EngineRegistry engines = EngineRegistry::builtin();
    auto spec = [&](const char *name, bool of) {
        const auto engine = engines.find(name);
        EXPECT_TRUE(engine.has_value()) << name;
        cpu::CoreConfig core;
        core.outputForwarding = of && engine->sparse;
        return cpu::LaneReplayer::LaneSpec{core, *engine};
    };
    auto same = [&](const char *a, bool a_of, const char *b,
                    bool b_of) {
        return cpu::LaneReplayer::sameTiming(spec(a, a_of),
                                             spec(b, b_of));
    };
    for (const bool of : {false, true}) {
        EXPECT_TRUE(same("VEGETA-S-8-2", of, "VEGETA-S-16-2", of));
        EXPECT_TRUE(same("VEGETA-S-1-2", of, "STC-like", of));
        EXPECT_FALSE(same("VEGETA-S-4-2", of, "VEGETA-S-8-2", of));
        EXPECT_FALSE(same("VEGETA-S-2-2", of, "VEGETA-S-4-2", of));
    }
    // Dense engines never forward, so OF folds away for them.
    EXPECT_TRUE(same("VEGETA-D-1-2", false, "VEGETA-S-1-2", false));
    EXPECT_TRUE(same("VEGETA-D-1-2", true, "STC-like", false));
    EXPECT_FALSE(same("VEGETA-D-1-2", true, "VEGETA-S-1-2", true));
    EXPECT_FALSE(same("VEGETA-S-1-2", false, "VEGETA-S-1-2", true));
    EXPECT_FALSE(same("VEGETA-D-1-1", false, "VEGETA-D-16-1", false));
    EXPECT_FALSE(same("VEGETA-D-1-1", false, "VEGETA-D-1-2", false));

    // Any core field splits a class.
    auto narrow = spec("VEGETA-S-8-2", false);
    narrow.core.robEntries = 24;
    EXPECT_FALSE(cpu::LaneReplayer::sameTiming(
        narrow, spec("VEGETA-S-16-2", false)));
}

} // namespace
} // namespace vegeta::sim
