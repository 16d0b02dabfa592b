/**
 * @file
 * Tests for the vegeta::sim facade: simulation-job validation,
 * registry round-trips, Session/primitive equivalence, batch
 * determinism, and result serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "kernels/driver.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {
namespace {

// --- parseGemmSpec ----------------------------------------------------

TEST(GemmSpec, ParsesWellFormed)
{
    const auto dims = parseGemmSpec("256x256x2048");
    ASSERT_TRUE(dims.has_value());
    EXPECT_EQ(dims->m, 256u);
    EXPECT_EQ(dims->n, 256u);
    EXPECT_EQ(dims->k, 2048u);
}

TEST(GemmSpec, RejectsTrailingGarbage)
{
    EXPECT_FALSE(parseGemmSpec("256x256x2048x9").has_value());
    EXPECT_FALSE(parseGemmSpec("256x256x2048 ").has_value());
    EXPECT_FALSE(parseGemmSpec("256x256x2048abc").has_value());
}

TEST(GemmSpec, RejectsMalformed)
{
    EXPECT_FALSE(parseGemmSpec("").has_value());
    EXPECT_FALSE(parseGemmSpec("256x256").has_value());
    EXPECT_FALSE(parseGemmSpec("0x256x2048").has_value());
    EXPECT_FALSE(parseGemmSpec("ax bx c").has_value());
}

// --- JobBuilder validation of simulation jobs ------------------------

TEST(SimulationBuilder, BuildsValidRequest)
{
    const Session session;
    auto builder = session.job()
                       .workload("BERT-L1")
                       .engine("VEGETA-S-16-2")
                       .pattern(2)
                       .outputForwarding(true);
    const auto job = builder.build();
    ASSERT_TRUE(job.has_value());
    ASSERT_EQ(job->kind, JobKind::Simulation);
    EXPECT_EQ(job->simulation.label, "BERT-L1");
    EXPECT_EQ(job->simulation.engine, "VEGETA-S-16-2");
    EXPECT_EQ(job->simulation.patternN, 2u);
    EXPECT_TRUE(job->simulation.outputForwarding);
    EXPECT_TRUE(builder.error().empty());
}

TEST(SimulationBuilder, RejectsUnknownEngine)
{
    const Session session;
    auto builder =
        session.job().workload("BERT-L1").engine("NOPE-9000");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "unknown engine: NOPE-9000");
}

TEST(SimulationBuilder, RejectsUnknownWorkload)
{
    const Session session;
    auto builder =
        session.job().workload("NoSuchLayer").engine("VEGETA-S-16-2");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "unknown workload: NoSuchLayer");
}

TEST(SimulationBuilder, RejectsBadPattern)
{
    const Session session;
    auto builder = session.job()
                       .workload("BERT-L1")
                       .engine("VEGETA-S-16-2")
                       .pattern(3);
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "pattern must be 1, 2, or 4 (got 3)");
}

TEST(SimulationBuilder, RejectsBadBlocking)
{
    const Session session;
    auto builder = session.job()
                       .workload("BERT-L1")
                       .engine("VEGETA-S-16-2")
                       .cBlocking(7);
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "cBlocking must be 1..3 (got 7)");
}

TEST(SimulationBuilder, RejectsEmptyRequest)
{
    const Session session;
    auto builder = session.job();
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "no workload or GEMM dimensions given");
}

TEST(SimulationBuilder, RejectsMissingEngine)
{
    const Session session;
    auto builder = session.job().workload("BERT-L1");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "no engine given");
}

TEST(SimulationBuilder, RejectsBadGemmSpec)
{
    const Session session;
    auto builder = session.job().gemm("32x32").engine("VEGETA-S-2-2");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "bad GEMM spec (expected MxNxK): 32x32");
}

TEST(SimulationBuilder, RejectsZeroGemmDims)
{
    const Session session;
    auto builder = session.job()
                       .gemm(kernels::GemmDims{0, 32, 64})
                       .engine("VEGETA-S-2-2");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "GEMM dimensions must be non-zero");
}

TEST(SimulationBuilder, RejectsBothWorkloadAndGemm)
{
    // One target per simulation job: a workload and explicit dims
    // together are an error, not "the last one wins".
    const Session session;
    auto builder = session.job()
                       .workload("BERT-L1")
                       .gemm(kernels::GemmDims{32, 32, 64})
                       .engine("VEGETA-S-2-2");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(),
              "give either a workload or GEMM dimensions, not both");
}

TEST(SimulationBuilder, KeepsFirstError)
{
    const Session session;
    auto builder = session.job()
                       .workload("NoSuchLayer")
                       .engine("NOPE-9000")
                       .pattern(3);
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_EQ(builder.error(), "unknown workload: NoSuchLayer");
}

// --- Registries -------------------------------------------------------

TEST(EngineRegistry, BuiltinRoundTrips)
{
    const auto reg = EngineRegistry::builtin();
    // Figure 13 engine set: eight Table III rows plus STC-like.
    EXPECT_EQ(reg.size(), 9u);
    EXPECT_EQ(reg.tableIIIConfigs().size(), 8u);
    for (const auto &name : reg.names()) {
        const auto cfg = reg.find(name);
        ASSERT_TRUE(cfg.has_value()) << name;
        EXPECT_EQ(cfg->name, name);
    }
    EXPECT_FALSE(reg.find("NOPE-9000").has_value());
}

TEST(EngineRegistry, BuiltinMatchesEvaluatedConfigOrder)
{
    const auto reg = EngineRegistry::builtin();
    const auto expected = engine::allEvaluatedConfigs();
    const auto actual = reg.configs();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(actual[i].name, expected[i].name);
}

TEST(EngineRegistry, AddAndReplace)
{
    EngineRegistry reg;
    auto custom = engine::vegetaS22();
    custom.name = "CUSTOM-1";
    reg.add(custom);
    ASSERT_TRUE(reg.contains("CUSTOM-1"));
    EXPECT_TRUE(reg.find("CUSTOM-1")->sparse);

    // Re-registering the name replaces the entry in place.
    auto replacement = engine::vegetaD12();
    replacement.name = "CUSTOM-1";
    reg.add(replacement);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_FALSE(reg.find("CUSTOM-1")->sparse);
}

TEST(WorkloadRegistry, BuiltinRoundTrips)
{
    const auto reg = WorkloadRegistry::builtin();
    EXPECT_EQ(reg.group("tableIV").size(), 12u);
    EXPECT_EQ(reg.group("quick").size(), 3u);
    for (const auto &name : reg.names()) {
        const auto w = reg.find(name);
        ASSERT_TRUE(w.has_value()) << name;
        EXPECT_EQ(w->name, name);
        EXPECT_GT(w->gemm.macs(), 0u);
    }
    EXPECT_FALSE(reg.find("NoSuchLayer").has_value());
}

TEST(WorkloadRegistry, AddAndGroup)
{
    WorkloadRegistry reg;
    kernels::Workload w;
    w.name = "mine";
    w.gemm = {64, 64, 256};
    reg.add(w, "mygroup");
    ASSERT_TRUE(reg.contains("mine"));
    EXPECT_EQ(reg.group("mygroup").size(), 1u);
    EXPECT_TRUE(reg.group("tableIV").empty());
}

// --- Session runs ---------------------------------------------------

TEST(SessionRun, MatchesSimulateLayerPrimitive)
{
    const Session session;
    const SimulationRequest request = session.job()
                                          .workload("quick-square")
                                          .engine("VEGETA-S-16-2")
                                          .pattern(2)
                                          .outputForwarding(true)
                                          .build()
                                          .value()
                                          .simulation;
    const auto result = session.run(request);

    kernels::Workload w = *session.workloads().find("quick-square");
    const auto reference = kernels::simulateLayer(
        w, 2, engine::vegetaS162(), /*output_forwarding=*/true);
    EXPECT_EQ(result.coreCycles, reference.coreCycles);
    EXPECT_EQ(result.instructions, reference.instructions);
    EXPECT_EQ(result.tileComputes, reference.tileComputes);
    EXPECT_EQ(result.executedN, reference.executedN);
    EXPECT_DOUBLE_EQ(result.macUtilization,
                     reference.macUtilization);
}

TEST(SessionRun, ReplayMatchesGeneratedRun)
{
    const Session session;
    const SimulationRequest request =
        session.job()
            .gemm(kernels::GemmDims{64, 64, 256})
            .engine("VEGETA-S-2-2")
            .pattern(2)
            .build()
            .value()
            .simulation;

    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto engine = session.engines().find("VEGETA-S-2-2");
    const auto run = kernels::runSpmmKernel(
        request.gemm, engine->effectiveN(2), opts);

    const auto direct = session.run(request);
    const auto replayed = session.replay(run.trace, request);
    EXPECT_EQ(replayed.coreCycles, direct.coreCycles);
    EXPECT_EQ(replayed.instructions, direct.instructions);
    EXPECT_EQ(replayed.kernel, "replay");
}

TEST(SessionRun, ReplayErrorOnIncompatibleEngine)
{
    const Session session;
    // A 2:4 trace contains TILE_SPMM_U ops; the dense RASA-DM engine
    // has no datapath for them.
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto run =
        kernels::runSpmmKernel({64, 64, 256}, /*executed_n=*/2, opts);

    const SimulationRequest sparse_req =
        session.job()
            .gemm(kernels::GemmDims{64, 64, 256})
            .engine("VEGETA-S-2-2")
            .build()
            .value()
            .simulation;
    const SimulationRequest dense_req =
        session.job()
            .gemm(kernels::GemmDims{64, 64, 256})
            .engine("VEGETA-D-1-2")
            .build()
            .value()
            .simulation;
    EXPECT_FALSE(
        session.replayError(run.trace, sparse_req).has_value());
    const auto error = session.replayError(run.trace, dense_req);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("VEGETA-D-1-2"), std::string::npos);
}

TEST(SessionRun, DenseEngineIgnoresOutputForwardingRequest)
{
    const Session session;
    const SimulationRequest request = session.job()
                                          .workload("quick-small")
                                          .engine("VEGETA-D-1-2")
                                          .pattern(2)
                                          .outputForwarding(true)
                                          .build()
                                          .value()
                                          .simulation;
    EXPECT_FALSE(session.run(request).outputForwarding);
}

// --- Session batches -------------------------------------------------

std::vector<SimulationRequest>
fullQuickGrid(const Session &session)
{
    std::vector<std::string> workload_names;
    for (const auto &w : session.workloads().group("quick"))
        workload_names.push_back(w.name);
    return figure13Grid(session, workload_names,
                        session.engines().names(), {4, 2, 1});
}

TEST(SessionBatch, ParallelMatchesSingleThreadBitForBit)
{
    const Session session;
    const auto grid = fullQuickGrid(session);
    ASSERT_FALSE(grid.empty());

    const auto serial = session.runBatch(grid, 1);
    const auto parallel = session.runBatch(grid, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].engine, parallel[i].engine);
        EXPECT_EQ(serial[i].layerN, parallel[i].layerN);
        EXPECT_EQ(serial[i].executedN, parallel[i].executedN);
        EXPECT_EQ(serial[i].outputForwarding,
                  parallel[i].outputForwarding);
        EXPECT_EQ(serial[i].coreCycles, parallel[i].coreCycles);
        EXPECT_EQ(serial[i].instructions, parallel[i].instructions);
        EXPECT_EQ(serial[i].engineInstructions,
                  parallel[i].engineInstructions);
        EXPECT_EQ(serial[i].tileComputes, parallel[i].tileComputes);
        EXPECT_EQ(serial[i].cacheHits, parallel[i].cacheHits);
        EXPECT_EQ(serial[i].cacheMisses, parallel[i].cacheMisses);
        // bit-for-bit: exact double equality, not a tolerance.
        EXPECT_EQ(serial[i].macUtilization,
                  parallel[i].macUtilization);
    }
}

TEST(SessionBatch, MatchesLegacyFigure13Sweep)
{
    const Session session;
    const auto workloads = session.workloads().group("quick");
    const auto engines = session.engines().configs();
    const auto legacy = kernels::figure13Sweep(workloads, engines);

    const auto results = session.runBatch(fullQuickGrid(session), 2);
    ASSERT_EQ(results.size(), legacy.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].workload, legacy[i].workload);
        EXPECT_EQ(results[i].engine, legacy[i].engineName);
        EXPECT_EQ(results[i].layerN, legacy[i].layerN);
        EXPECT_EQ(results[i].coreCycles, legacy[i].coreCycles);
    }
}

TEST(SessionBatch, GeomeanSpeedupMatchesLegacy)
{
    const Session session;
    const auto workloads = session.workloads().group("quick");
    std::vector<std::string> names;
    for (const auto &w : workloads)
        names.push_back(w.name);

    for (const u32 layer_n : {4u, 2u, 1u}) {
        const double legacy = kernels::geomeanSpeedupVsDenseBaseline(
            workloads, layer_n, engine::vegetaS162(), true);
        const double sweep = geomeanSpeedup(
            session, names, layer_n, "VEGETA-S-16-2", true,
            "VEGETA-D-1-2", /*threads=*/3);
        EXPECT_DOUBLE_EQ(sweep, legacy) << layer_n;
    }
}

TEST(SessionBatch, EmptyBatch)
{
    const Session session;
    EXPECT_TRUE(
        session.runBatch(std::vector<SimulationRequest>{}, 4).empty());
}

// --- Result serialization --------------------------------------------

std::vector<SimulationResult>
sampleResults(const Session &session)
{
    const SimulationRequest request = session.job()
                                          .workload("quick-small")
                                          .engine("VEGETA-S-2-2")
                                          .pattern(2)
                                          .build()
                                          .value()
                                          .simulation;
    return {session.run(request)};
}

TEST(Results, CsvHasHeaderAndRow)
{
    const Session session;
    std::ostringstream os;
    writeCsv(os, sampleResults(session));
    const std::string text = os.str();
    EXPECT_NE(text.find("workload,engine,pattern"), std::string::npos);
    EXPECT_NE(text.find("quick-small,VEGETA-S-2-2,2:4"),
              std::string::npos);
}

TEST(Results, JsonIsWellFormedEnough)
{
    const Session session;
    std::ostringstream os;
    writeJson(os, sampleResults(session));
    const std::string text = os.str();
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"workload\": \"quick-small\""),
              std::string::npos);
    EXPECT_NE(text.find("\"core_cycles\": "), std::string::npos);
    EXPECT_EQ(text[text.size() - 2], ']');
}

TEST(Results, TableHasOneRowPerResult)
{
    const Session session;
    const auto results = sampleResults(session);
    EXPECT_EQ(resultsTable(results).numRows(), results.size());
}

} // namespace
} // namespace vegeta::sim
