/**
 * @file
 * Session/Job API tests: JobBuilder validation, job keys dedupe
 * across kinds, and runBatch over a MIXED trace+analytical job vector
 * is bit-for-bit identical for 1 and N threads in every result-store
 * state (none, memory-only, persistent) -- and a second batch against
 * a warm persistent store performs zero trace replays.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "expect_identical.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_session" / name;
    fs::remove_all(dir);
    return dir.string();
}

/**
 * A mixed batch: trace simulations across engines/patterns (with
 * duplicates, so dedupe is exercised) interleaved with analytical
 * queries, including a parameterized Monte-Carlo one.
 */
std::vector<Job>
mixedBatch(const Session &session)
{
    std::vector<Job> jobs;
    auto sim_job = [&](const char *engine, u32 pattern, bool of) {
        auto builder = session.job()
                           .gemm(kernels::GemmDims{32, 32, 128})
                           .engine(engine)
                           .pattern(pattern)
                           .outputForwarding(of);
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    };
    auto ana_job = [&](auto configure) {
        auto builder = session.job();
        configure(builder);
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    };

    sim_job("VEGETA-D-1-2", 4, false);
    ana_job([](JobBuilder &b) { b.model("fig4-vector-vs-matrix"); });
    sim_job("VEGETA-S-2-2", 2, true);
    ana_job([](JobBuilder &b) {
        b.model("dynamic-sparsity")
            .param("registers", 16)
            .param("trials", 64)
            .param("density", 0.2);
    });
    sim_job("VEGETA-S-2-2", 2, true); // duplicate of job 2
    ana_job([](JobBuilder &b) {
        b.model("micro-latency").engine("VEGETA-S-16-2");
    });
    sim_job("VEGETA-S-16-2", 1, false);
    ana_job([](JobBuilder &b) {
        b.model("fig4-vector-vs-matrix"); // duplicate of job 1
    });
    return jobs;
}

// --- JobBuilder validation -------------------------------------------

TEST(JobBuilder, SimulationJobFillsEveryRequestField)
{
    const Session session;
    auto jb = session.job()
                  .workload("BERT-L1")
                  .engine("VEGETA-S-16-2")
                  .pattern(2)
                  .outputForwarding(true);
    const auto job = jb.build();
    ASSERT_TRUE(job.has_value()) << jb.error();
    ASSERT_EQ(job->kind, JobKind::Simulation);

    const SimulationRequest &request = job->simulation;
    const auto workload = session.workloads().find("BERT-L1");
    ASSERT_TRUE(workload.has_value());
    EXPECT_EQ(request.label, "BERT-L1");
    EXPECT_EQ(request.gemm.m, workload->gemm.m);
    EXPECT_EQ(request.gemm.n, workload->gemm.n);
    EXPECT_EQ(request.gemm.k, workload->gemm.k);
    EXPECT_EQ(request.engine, "VEGETA-S-16-2");
    EXPECT_EQ(request.patternN, 2u);
    EXPECT_TRUE(request.outputForwarding);
    // Unset knobs keep their documented defaults.
    EXPECT_EQ(request.kernel, KernelVariant::Optimized);
    EXPECT_EQ(request.cBlocking, 3u);

    // Raw dims label the request "MxNxK".
    const auto dims = session.job()
                          .gemm("64x32x256")
                          .engine("VEGETA-S-2-2")
                          .build();
    ASSERT_TRUE(dims.has_value());
    EXPECT_EQ(dims->simulation.label, "64x32x256");
    EXPECT_EQ(dims->simulation.gemm.m, 64u);
    EXPECT_EQ(dims->simulation.gemm.n, 32u);
    EXPECT_EQ(dims->simulation.gemm.k, 256u);
    EXPECT_EQ(dims->simulation.patternN, 4u);
    EXPECT_FALSE(dims->simulation.outputForwarding);
}

TEST(JobBuilder, RejectsUnknownNamesEagerly)
{
    const Session session;
    {
        auto b = session.job().workload("NoSuchLayer");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("unknown workload"),
                  std::string::npos);
    }
    {
        auto b = session.job().engine("NOPE-9000");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("unknown engine"), std::string::npos);
    }
    {
        auto b = session.job().model("no-such-model");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("unknown analytical model"),
                  std::string::npos);
    }
    {
        auto b = session.job()
                     .workload("BERT-L1")
                     .engine("VEGETA-S-16-2")
                     .pattern(3);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("pattern"), std::string::npos);
    }
}

TEST(JobBuilder, RejectsCrossKindMixtures)
{
    const Session session;
    {
        // A pattern on an analytical job.
        auto b = session.job().model("fig3-roofline").pattern(2);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("simulation jobs"),
                  std::string::npos);
    }
    {
        // A param on a simulation job.
        auto b = session.job()
                     .workload("BERT-L1")
                     .engine("VEGETA-S-16-2")
                     .param("degree", 0.95);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("model"), std::string::npos);
    }
    {
        // Two engines on a simulation job (fine for analysis).
        auto b = session.job()
                     .workload("BERT-L1")
                     .engine("VEGETA-S-16-2")
                     .engine("VEGETA-D-1-2");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("exactly one engine"),
                  std::string::npos);
    }
    {
        auto b = session.job()
                     .model("fig14-area-power")
                     .engine("VEGETA-S-16-2")
                     .engine("VEGETA-D-1-2");
        const auto job = b.build();
        ASSERT_TRUE(job.has_value()) << b.error();
        EXPECT_EQ(job->kind, JobKind::Analysis);
        EXPECT_EQ(job->analysis.engines.size(), 2u);
    }
}

// --- Job keys --------------------------------------------------------

TEST(JobKey, DistinguishesKindsAndParameters)
{
    const Session session;
    const auto sim_job = session.job()
                             .workload("quick-small")
                             .engine("VEGETA-S-2-2")
                             .build();
    ASSERT_TRUE(sim_job.has_value());

    auto ana = session.job().model("fig15-unstructured");
    const auto ana_job = ana.build();
    ASSERT_TRUE(ana_job.has_value());
    EXPECT_NE(jobKey(*sim_job), jobKey(*ana_job));

    auto ana2 = session.job()
                    .model("fig15-unstructured")
                    .param("degree", 0.95);
    const auto ana_job2 = ana2.build();
    EXPECT_NE(jobKey(*ana_job), jobKey(*ana_job2));

    auto ana3 = session.job()
                    .model("fig15-unstructured")
                    .param("degree", 0.95);
    EXPECT_EQ(jobKey(*ana_job2), jobKey(*ana3.build()));
}

// --- Session::run(Job) -----------------------------------------------

TEST(Session, JobRunMatchesTypedEntryPoints)
{
    const Session session;
    const auto sim_job = session.job()
                             .workload("quick-small")
                             .engine("VEGETA-S-2-2")
                             .pattern(2)
                             .build();
    ASSERT_TRUE(sim_job.has_value());
    const auto via_job = session.run(*sim_job);
    ASSERT_EQ(via_job.kind, JobKind::Simulation);
    expectIdenticalSim(via_job.simulation,
                       session.run(sim_job->simulation));

    auto ana = session.job()
                   .model("fig14-area-power")
                   .engine("VEGETA-S-16-2");
    const auto ana_job = ana.build();
    ASSERT_TRUE(ana_job.has_value());
    const auto via_ana = session.run(*ana_job);
    ASSERT_EQ(via_ana.kind, JobKind::Analysis);
    expectIdenticalAnalysis(via_ana.analysis,
                            session.analyze(ana_job->analysis));
}

// --- runBatch --------------------------------------------------------

TEST(Session, MixedBatchBitIdenticalAcrossThreadsAndCaches)
{
    const Session plain;
    const auto jobs = mixedBatch(plain);
    const auto reference = plain.runBatch(jobs, 1);

    // Threads.
    expectIdenticalBatches(plain.runBatch(jobs, 4), reference);

    // Memory-only store.
    Session cached;
    cached.enableCache();
    expectIdenticalBatches(cached.runBatch(jobs, 1), reference);
    expectIdenticalBatches(cached.runBatch(jobs, 4), reference);

    // Persistent cache (cold, then warm, single- and multi-threaded).
    Session disk;
    disk.attachDiskCache(freshDir("mixed_batch"));
    ASSERT_TRUE(disk.cache()->ok());
    expectIdenticalBatches(disk.runBatch(jobs, 4), reference);
    expectIdenticalBatches(disk.runBatch(jobs, 1), reference);
}

TEST(Session, BatchDedupeRunsUniqueJobsOnce)
{
    Session session;
    const auto cache = session.enableCache();
    const auto jobs = mixedBatch(session);
    session.runBatch(jobs, 4);
    // mixedBatch holds 3 unique trace jobs and 3 unique analyses
    // (one of each duplicated): each runs exactly once, and the
    // memory-only store keeps both kinds.
    EXPECT_EQ(session.simulationsPerformed(), 3u);
    EXPECT_EQ(session.analysesPerformed(), 3u);
    EXPECT_EQ(cache->stats().simulationEntries, 3u);
    EXPECT_EQ(cache->stats().analysisEntries, 3u);
}

TEST(Session, WarmDiskCacheSkipsEveryTraceReplay)
{
    const std::string dir = freshDir("warm_sweep");

    // Cold run: a first session populates the persistent cache.
    Session cold;
    cold.attachDiskCache(dir);
    ASSERT_TRUE(cold.cache()->ok());
    const auto jobs = mixedBatch(cold);
    const auto cold_results = cold.runBatch(jobs, 4);
    EXPECT_EQ(cold.simulationsPerformed(), 3u);
    EXPECT_EQ(cold.analysesPerformed(), 3u);

    // Warm run: a second session (fresh process in real life) runs
    // the same sweep against the same directory -- ZERO trace
    // replays, ZERO analytical backend evaluations, and bit-identical
    // output.
    Session warm;
    warm.attachDiskCache(dir);
    const auto warm_results = warm.runBatch(jobs, 4);
    expectIdenticalBatches(warm_results, cold_results);
    EXPECT_EQ(warm.simulationsPerformed(), 0u);
    EXPECT_EQ(warm.analysesPerformed(), 0u);
    const auto stats = warm.cache()->stats();
    EXPECT_EQ(stats.misses, 0u);
    // 3 unique trace jobs + 3 unique analytical jobs, all from disk.
    EXPECT_EQ(stats.hits, 6u);
}

TEST(Session, RequestOverloadMatchesJobBatch)
{
    const Session session;
    std::vector<Job> jobs;
    std::vector<SimulationRequest> requests;
    for (const char *engine : {"VEGETA-D-1-2", "VEGETA-S-2-2"}) {
        const auto job = session.job()
                             .workload("quick-small")
                             .engine(engine)
                             .pattern(2)
                             .build();
        ASSERT_TRUE(job.has_value());
        jobs.push_back(*job);
        requests.push_back(job->simulation);
    }
    const auto direct = session.runBatch(requests, 2);
    const auto via_jobs = session.runBatch(jobs, 2);
    ASSERT_EQ(direct.size(), via_jobs.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        expectIdenticalSim(direct[i], via_jobs[i].simulation);
}

// --- Stream grouping in runBatch -------------------------------------

/** Every job run on its own: the single-stream reference. */
std::vector<JobResult>
ungrouped(const Session &session, const std::vector<Job> &jobs)
{
    std::vector<JobResult> results;
    results.reserve(jobs.size());
    for (const Job &job : jobs)
        results.push_back(session.run(job));
    return results;
}

std::vector<JobResult>
ungrouped(const std::vector<Job> &jobs)
{
    return ungrouped(Session(), jobs);
}

std::vector<Job>
quickGrid(const Session &session)
{
    std::vector<Job> jobs;
    for (auto &request :
         figure13Grid(session,
                      {"quick-small", "quick-square", "quick-deep"},
                      session.engines().names()))
        jobs.push_back(Job::simulate(std::move(request)));
    return jobs;
}

/** session.stream.groups so far (0 without telemetry). */
u64
streamGroups()
{
    return telemetry::snapshot().counter("session.stream.groups");
}

TEST(StreamGrouping, QuickGridIdenticalAtEveryThreadCount)
{
    const auto jobs = quickGrid(Session());
    const auto reference = ungrouped(jobs);
    for (const u32 threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectIdenticalBatches(Session().runBatch(jobs, threads),
                               reference);
    }
}

TEST(StreamGrouping, MixedShareableAndUnshareableBatch)
{
    // Lanes that share a stream (engines at one executed N, OF on
    // and off, GEMMs that pad to the same tiles) next to jobs that
    // must not: another kernel variant, another C blocking, another
    // L1 -- plus analysis jobs and duplicates.
    const Session session;
    auto jobs = mixedBatch(session);
    auto sim_job = [&](kernels::GemmDims dims, const char *engine,
                       u32 pattern) {
        auto job = session.job()
                       .gemm(dims)
                       .engine(engine)
                       .pattern(pattern)
                       .build();
        EXPECT_TRUE(job.has_value());
        return *job;
    };
    for (const char *engine :
         {"VEGETA-S-16-2", "VEGETA-S-4-2", "STC-like"}) {
        jobs.push_back(sim_job({64, 64, 256}, engine, 2));
        jobs.push_back(sim_job({60, 50, 250}, engine, 2)); // same pad
    }
    Job naive = sim_job({64, 64, 256}, "VEGETA-S-16-2", 2);
    naive.simulation.kernel = KernelVariant::Naive;
    Job blocked = sim_job({64, 64, 256}, "VEGETA-S-16-2", 2);
    blocked.simulation.cBlocking = 1;
    Job small_l1 = sim_job({64, 64, 256}, "VEGETA-S-16-2", 2);
    small_l1.simulation.core.cache.l1Ways = 4;
    Job narrow = sim_job({64, 64, 256}, "VEGETA-S-4-2", 2);
    narrow.simulation.core.robEntries = 24;
    for (const Job &job : {naive, blocked, small_l1, narrow})
        jobs.push_back(job);
    jobs.push_back(jobs[jobs.size() - 5]); // a duplicate lane
    jobs.push_back(naive);                 // a duplicate singleton

    const auto reference = ungrouped(jobs);
    for (const u32 threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectIdenticalBatches(Session().runBatch(jobs, threads),
                               reference);
    }
}

TEST(StreamGrouping, GroupsMixingCacheHitsAndMisses)
{
    // Some lanes of each stream hit entries loaded from disk, some
    // hit entries this session stored itself, the rest miss: only
    // the misses may replay, and every slot must still read the
    // single-stream bytes.
    const Session builder;
    const auto jobs = quickGrid(builder);
    const auto reference = ungrouped(jobs);
    std::vector<Job> on_disk, in_memory;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i % 3 == 0)
            on_disk.push_back(jobs[i]);
        else if (i % 3 == 1)
            in_memory.push_back(jobs[i]);
    }
    for (const u32 threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const std::string dir =
            freshDir("partial_" + std::to_string(threads));
        {
            Session warmer;
            warmer.attachDiskCache(dir);
            warmer.runBatch(on_disk, threads);
        }
        Session session;
        session.attachDiskCache(dir);
        ASSERT_TRUE(session.cache()->ok());
        session.runBatch(in_memory, threads);
        const u64 before = session.simulationsPerformed();
        expectIdenticalBatches(session.runBatch(jobs, threads),
                               reference);
        EXPECT_EQ(session.simulationsPerformed() - before,
                  jobs.size() - on_disk.size() - in_memory.size());
    }
}

TEST(StreamGrouping, ThreadsBeyondGroupsSplitTheGroup)
{
    // One stream, twelve lanes in eight timing classes: at 8
    // threads a single group would hold far more than a thread's
    // share, so it splits into one chunk per thread; at 1 thread it
    // stays whole.
    const Session session;
    std::vector<Job> jobs;
    for (const auto &engine : session.engines().names()) {
        const auto config = session.engines().find(engine);
        if (!config->sparse)
            continue;
        for (const bool of : {false, true}) {
            auto job = session.job()
                           .gemm(kernels::GemmDims{64, 64, 256})
                           .engine(engine)
                           .pattern(2)
                           .outputForwarding(of)
                           .build();
            ASSERT_TRUE(job.has_value());
            jobs.push_back(*job);
        }
    }
    ASSERT_GE(jobs.size(), 8u);
    const auto reference = ungrouped(jobs);

    u64 before = streamGroups();
    expectIdenticalBatches(Session().runBatch(jobs, 1), reference);
    const u64 whole = streamGroups() - before;
    before = streamGroups();
    expectIdenticalBatches(Session().runBatch(jobs, 8), reference);
    const u64 split = streamGroups() - before;
#ifndef VEGETA_NO_TELEMETRY
    EXPECT_EQ(whole, 1u);
    EXPECT_EQ(split, 8u);
#else
    (void)whole;
    (void)split;
#endif
}

TEST(StreamGrouping, OneJobSpanPerUniqueJob)
{
    // Grouping changes the unit of work, not the span contract: one
    // "session.job" span per unique job, one "session.stream" span
    // per group.
    const Session session;
    auto jobs = mixedBatch(session);
    const auto grid = quickGrid(session);
    jobs.insert(jobs.end(), grid.begin(), grid.end());
    jobs.insert(jobs.end(), grid.begin(), grid.begin() + 5);
    std::set<std::string> unique;
    for (const Job &job : jobs)
        unique.insert(jobKey(job));

    telemetry::setTraceEnabled(true);
    telemetry::clearTrace();
    const u64 before = streamGroups();
    Session().runBatch(jobs, 3);
    const u64 groups = streamGroups() - before;
    telemetry::setTraceEnabled(false);
#ifndef VEGETA_NO_TELEMETRY
    EXPECT_EQ(telemetry::traceSpanCount("session.job"), unique.size());
    EXPECT_EQ(telemetry::traceSpanCount("session.stream"), groups);
    EXPECT_GT(groups, 0u);
#else
    (void)groups;
#endif
    telemetry::clearTrace();
}

// --- Timing classes within a stream group ----------------------------

/** A telemetry counter so far (0 without telemetry). */
u64
counter(const char *name)
{
    return telemetry::snapshot().counter(name);
}

/** One layer through every engine, pattern and OF: 45 jobs. */
std::vector<Job>
oneLayer(const Session &session)
{
    std::vector<Job> jobs;
    for (auto &request : figure13Grid(session, {"quick-square"},
                                      session.engines().names()))
        jobs.push_back(Job::simulate(std::move(request)));
    return jobs;
}

TEST(TimingClasses, OneLayerReplaysEachTimingOnce)
{
    // 45 jobs on three streams replay in 26 lanes: 10 on the 4:4
    // stream, 8 each on 2:4 and 1:4 (docs/REPLAY.md lists them).
    const auto jobs = oneLayer(Session());
    ASSERT_EQ(jobs.size(), 45u);
    const auto reference = ungrouped(jobs);
    for (const u32 threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Session session;
        const u64 lanes = counter("session.stream.lanes");
        const u64 replays = counter("session.stream.replays");
        const u64 sims = counter("session.simulations");
        expectIdenticalBatches(session.runBatch(jobs, threads),
                               reference);
        EXPECT_EQ(session.simulationsPerformed(), jobs.size());
#ifndef VEGETA_NO_TELEMETRY
        EXPECT_EQ(counter("session.stream.lanes") - lanes, 45u);
        EXPECT_EQ(counter("session.stream.replays") - replays, 26u);
        EXPECT_EQ(counter("session.simulations") - sims, 45u);
#else
        (void)lanes;
        (void)replays;
        (void)sims;
#endif
    }
}

TEST(TimingClasses, CacheHitsOnSomeMembersOfAClass)
{
    // Pre-warm one member of each merged class (and a singleton):
    // the hits are served from the store, their classmates still
    // replay, and every slot reads the single-job bytes.
    const auto jobs = oneLayer(Session());
    const auto reference = ungrouped(jobs);
    std::vector<Job> warm;
    for (const Job &job : jobs) {
        const SimulationRequest &r = job.simulation;
        if ((r.engine == "VEGETA-S-1-2" && r.patternN == 4 &&
             !r.outputForwarding) ||
            (r.engine == "VEGETA-S-16-2" && r.outputForwarding) ||
            (r.engine == "VEGETA-D-1-1" && r.patternN == 2) ||
            (r.engine == "VEGETA-S-4-2" && r.patternN == 1 &&
             !r.outputForwarding))
            warm.push_back(job);
    }
    ASSERT_EQ(warm.size(), 6u);
    for (const u32 threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const std::string dir =
            freshDir("class_partial_" + std::to_string(threads));
        {
            Session warmer;
            warmer.attachDiskCache(dir);
            warmer.runBatch(warm, threads);
        }
        Session session;
        session.attachDiskCache(dir);
        ASSERT_TRUE(session.cache()->ok());
        expectIdenticalBatches(session.runBatch(jobs, threads),
                               reference);
        EXPECT_EQ(session.simulationsPerformed(),
                  jobs.size() - warm.size());
        // Every miss landed in the store under its own key.
        const u64 before = session.simulationsPerformed();
        expectIdenticalBatches(session.runBatch(jobs, threads),
                               reference);
        EXPECT_EQ(session.simulationsPerformed(), before);
    }
}

TEST(TimingClasses, ClonedEngineSharesALaneButKeepsItsName)
{
    // An engine registered twice under different names is one timing
    // class: one lane replays both, and each result still carries
    // its own engine name, label and OF flag.
    EngineRegistry engines = EngineRegistry::builtin();
    engine::EngineConfig twin = *engines.find("VEGETA-S-2-2");
    twin.name = "VEGETA-S-2-2-twin";
    engines.add(twin);
    const Session session(engines, WorkloadRegistry::builtin());
    std::vector<Job> jobs;
    for (const char *name : {"VEGETA-S-2-2", "VEGETA-S-2-2-twin"}) {
        for (const u32 pattern : {1u, 2u, 4u}) {
            for (const bool of : {false, true}) {
                auto job = session.job()
                               .workload("quick-small")
                               .engine(name)
                               .pattern(pattern)
                               .outputForwarding(of)
                               .build();
                ASSERT_TRUE(job.has_value());
                jobs.push_back(*job);
            }
        }
    }
    const auto reference = ungrouped(session, jobs);
    for (std::size_t i = 0; i < jobs.size() / 2; ++i) {
        const auto &own = reference[i].simulation;
        const auto &twin_result = reference[i + 6].simulation;
        EXPECT_EQ(own.coreCycles, twin_result.coreCycles);
        EXPECT_EQ(twin_result.engine, "VEGETA-S-2-2-twin");
    }
    for (const u32 threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Session fresh(engines, WorkloadRegistry::builtin());
        const u64 replays = counter("session.stream.replays");
        expectIdenticalBatches(fresh.runBatch(jobs, threads),
                               reference);
        EXPECT_EQ(fresh.simulationsPerformed(), jobs.size());
#ifndef VEGETA_NO_TELEMETRY
        // Three streams x {OF off, OF on}.
        EXPECT_EQ(counter("session.stream.replays") - replays, 6u);
#else
        (void)replays;
#endif
    }
}

TEST(TimingClassesDeathTest, MergedMemberStillChecksItsOpcodes)
{
    // A dense engine with S-1-2's geometry that claims N=2 shares
    // S-1-2's class on the 2:4 stream, so only S-1-2's pipeline
    // issues its TILE_SPMM_U ops -- the batch must still refuse the
    // dense member, as a single-job run would.
    EngineRegistry engines = EngineRegistry::builtin();
    engine::EngineConfig fake;
    fake.name = "DENSE-1-2-N2";
    fake.sparse = false;
    fake.alpha = 1;
    fake.beta = 2;
    fake.minSupportedN = 2;
    engines.add(fake);
    const Session session(engines, WorkloadRegistry::builtin());
    std::vector<Job> jobs;
    for (const char *name : {"VEGETA-S-1-2", "DENSE-1-2-N2"}) {
        Job job;
        job.kind = JobKind::Simulation;
        job.simulation.gemm = {32, 32, 128};
        job.simulation.engine = name;
        job.simulation.patternN = 2;
        jobs.push_back(job);
    }
    ASSERT_TRUE(cpu::LaneReplayer::sameTiming(
        {cpu::CoreConfig{}, *engines.find("VEGETA-S-1-2")},
        {cpu::CoreConfig{}, fake}));
    EXPECT_DEATH(session.runBatch(jobs, 1),
                 "DENSE-1-2-N2 cannot execute");
    EXPECT_DEATH(session.run(jobs[1]), "DENSE-1-2-N2 cannot execute");
}

TEST(Session, JobErrorChecksBothKinds)
{
    const Session session;
    Job bad_sim;
    bad_sim.kind = JobKind::Simulation;
    bad_sim.simulation.engine = "NOPE-9000";
    bad_sim.simulation.gemm = {32, 32, 64};
    ASSERT_TRUE(session.jobError(bad_sim).has_value());

    Job bad_ana;
    bad_ana.kind = JobKind::Analysis;
    bad_ana.analysis.model = "no-such-model";
    ASSERT_TRUE(session.jobError(bad_ana).has_value());

    const auto good = session.job()
                          .gemm(kernels::GemmDims{32, 32, 64})
                          .engine("VEGETA-D-1-2")
                          .build();
    ASSERT_TRUE(good.has_value());
    EXPECT_FALSE(session.jobError(*good).has_value());
}

} // namespace
} // namespace vegeta::sim
