/**
 * @file
 * Result-store and batch-dedupe tests: a memory-only store keeps the
 * first insert, never touches the file system, and -- like batch
 * deduplication -- never changes an answer: results stay
 * bit-identical to the uncached, single-threaded path while each
 * unique job simulates exactly once.  A Session holds one store,
 * keyed by jobKey, and probes it once per unique job.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "expect_identical.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

/** A fresh (empty) directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_result_cache" / name;
    fs::remove_all(dir);
    return dir.string();
}

JobResult
sampleResult(const std::string &tag, double util)
{
    JobResult result;
    result.simulation.workload = tag;
    result.simulation.coreCycles = 42;
    result.simulation.macUtilization = util;
    return result;
}

SimulationRequest
smallRequest(const Session &session, const std::string &engine,
             u32 pattern, bool of)
{
    auto builder = session.job()
                       .gemm(kernels::GemmDims{32, 32, 128})
                       .engine(engine)
                       .pattern(pattern)
                       .outputForwarding(of);
    const auto job = builder.build();
    EXPECT_TRUE(job.has_value()) << builder.error();
    return job ? job->simulation : SimulationRequest{};
}

TEST(CacheKey, DistinguishesEveryRequestField)
{
    const Session session;
    const SimulationRequest base =
        smallRequest(session, "VEGETA-S-16-2", 2, false);

    SimulationRequest other = base;
    EXPECT_EQ(cacheKey(base), cacheKey(other));
    EXPECT_EQ(jobKey(Job::simulate(base)), "sim|" + cacheKey(base));

    other = base;
    other.label = "renamed";
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.gemm.k = 256;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.engine = "VEGETA-D-1-2";
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.patternN = 4;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.outputForwarding = true;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.kernel = KernelVariant::Naive;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.cBlocking = 1;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.core.robEntries = 64;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.core.engineClockDivider = 1;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.core.cache.l1Ways = 4;
    EXPECT_NE(cacheKey(base), cacheKey(other));
}

TEST(MemoryStore, FindInsertAndStats)
{
    DiskResultCache cache;
    EXPECT_FALSE(cache.persistent());
    EXPECT_TRUE(cache.ok());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.find("sim|a").has_value());

    EXPECT_EQ(cache.insert({{"sim|a", sampleResult("w", 0.25)}}), 1u);
    EXPECT_EQ(cache.size(), 1u);
    const auto hit = cache.find("sim|a");
    ASSERT_TRUE(hit.has_value());
    expectIdenticalSim(hit->simulation,
                       sampleResult("w", 0.25).simulation);

    // First insert wins; re-inserting does not count.
    EXPECT_EQ(cache.insert({{"sim|a", sampleResult("other", 0.5)}}),
              0u);
    EXPECT_EQ(cache.find("sim|a")->simulation.workload, "w");

    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.loaded, 0u);
    EXPECT_EQ(stats.simulationEntries, 1u);
    EXPECT_EQ(stats.fileBytes, 0u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(MemoryStore, CreatesNoFile)
{
    // Run every operation of a memory-only store from inside an empty
    // directory: none of them may create a file, here or anywhere
    // else the store could name.
    const fs::path dir = freshDir("memory_only");
    fs::create_directories(dir);
    const fs::path cwd = fs::current_path();
    fs::current_path(dir);
    {
        Session session;
        const auto store = session.enableCache();
        EXPECT_TRUE(store->directory().empty());
        EXPECT_TRUE(store->filePath().empty());
        const SimulationRequest request =
            smallRequest(session, "VEGETA-S-2-2", 2, false);
        session.run(request);
        session.runBatch(std::vector<SimulationRequest>{request}, 2);
        AnalyticalRequest analysis;
        analysis.model = "fig4-vector-vs-matrix";
        session.analyze(analysis);
        EXPECT_EQ(store->size(), 2u);

        DiskResultCache other;
        EXPECT_EQ(other.mergeFrom(*store).added, 2u);
        EXPECT_EQ(other.prune(std::nullopt, 1).dropped, 1u);
        other.clear();
        EXPECT_EQ(other.stats().lastPruneBytes, 0u);
    }
    fs::current_path(cwd);
    EXPECT_TRUE(fs::is_empty(dir));
}

TEST(MemoryStore, CachedRunsAreBitIdentical)
{
    Session uncached;
    Session cached;
    const auto store = cached.enableCache();

    const SimulationRequest request =
        smallRequest(cached, "VEGETA-S-2-2", 2, true);
    const auto first = cached.run(request);
    const auto second = cached.run(request); // store hit
    const auto reference = uncached.run(request);

    expectIdenticalSim(first, reference);
    expectIdenticalSim(second, reference);
    EXPECT_EQ(store->stats().insertions, 1u);
    EXPECT_EQ(store->stats().hits, 1u);
    EXPECT_EQ(cached.simulationsPerformed(), 1u);
}

TEST(MemoryStore, TraceOutBypassesCacheButStaysIdentical)
{
    Session session;
    const auto store = session.enableCache();
    const SimulationRequest request =
        smallRequest(session, "VEGETA-S-2-2", 2, false);

    const auto cached = session.run(request); // populates the store
    cpu::Trace trace;
    const auto with_trace = session.run(request, &trace);
    expectIdenticalSim(cached, with_trace);
    EXPECT_FALSE(trace.empty());
    // The trace run never looked the request up.
    EXPECT_EQ(store->stats().hits, 0u);
    EXPECT_EQ(session.simulationsPerformed(), 2u);
}

TEST(MemoryStore, DuplicateRequestsSimulateOnce)
{
    Session session;
    const auto store = session.enableCache();

    // 3 unique requests, each repeated 3 times, shuffled.
    const SimulationRequest a =
        smallRequest(session, "VEGETA-D-1-2", 4, false);
    const SimulationRequest b =
        smallRequest(session, "VEGETA-S-2-2", 2, false);
    const SimulationRequest c =
        smallRequest(session, "VEGETA-S-2-2", 2, true);
    const std::vector<SimulationRequest> batch{a, b, c, c, a, b,
                                              b, c, a};

    const auto results = session.runBatch(batch, 4);
    ASSERT_EQ(results.size(), batch.size());

    // Each unique request ran exactly once...
    EXPECT_EQ(store->stats().insertions, 3u);
    EXPECT_EQ(store->stats().misses, 3u);

    // ...and duplicate slots carry the identical result.
    const Session reference;
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdenticalSim(results[i], reference.run(batch[i]));
}

TEST(MemoryStore, CacheOnOffAndThreadCountsBitIdentical)
{
    const Session session;
    std::vector<SimulationRequest> batch;
    for (const char *engine :
         {"VEGETA-D-1-2", "VEGETA-S-1-2", "VEGETA-S-16-2"}) {
        for (u32 pattern : {4u, 2u, 1u}) {
            batch.push_back(smallRequest(session, engine, pattern,
                                         false));
            // Repeat a subset so the dedupe path is exercised.
            if (pattern == 2)
                batch.push_back(
                    smallRequest(session, engine, pattern, false));
        }
    }

    const auto reference = session.runBatch(batch, 1);

    Session cached;
    cached.enableCache();
    for (const u32 threads : {1u, 4u}) {
        const auto plain = session.runBatch(batch, threads);
        const auto from_store = cached.runBatch(batch, threads);
        ASSERT_EQ(plain.size(), reference.size());
        ASSERT_EQ(from_store.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            expectIdenticalSim(plain[i], reference[i]);
            expectIdenticalSim(from_store[i], reference[i]);
        }
    }
}

TEST(MemoryStore, GeomeanSpeedupMatchesCachedSession)
{
    // geomeanSpeedup over a session with a warm store must return
    // the exact same ratio as over a cold one with no store.
    const std::vector<std::string> workloads{"BERT-L1"};

    Session cold;
    const double uncached = geomeanSpeedup(
        cold, workloads, 2, "VEGETA-S-16-2", true, "VEGETA-D-1-2", 1);

    Session warm;
    const auto store = warm.enableCache();
    const double first = geomeanSpeedup(
        warm, workloads, 2, "VEGETA-S-16-2", true, "VEGETA-D-1-2", 2);
    const u64 simulations = store->stats().insertions;
    const double second = geomeanSpeedup(
        warm, workloads, 2, "VEGETA-S-16-2", true, "VEGETA-D-1-2", 2);

    EXPECT_EQ(uncached, first);
    EXPECT_EQ(uncached, second);
    // The second call re-simulated nothing.
    EXPECT_EQ(store->stats().insertions, simulations);
}

// --- One store per session -------------------------------------------

TEST(SessionStore, EnableCacheKeepsAnAttachedStore)
{
    const std::string dir = freshDir("enable_keeps");
    Session session;
    EXPECT_EQ(session.cache(), nullptr);
    const auto memory = session.enableCache();
    EXPECT_EQ(session.enableCache(), memory);

    // Attaching a directory replaces the memory-only store; enabling
    // the cache afterwards leaves the persistent one in place.
    const auto disk = session.attachDiskCache(dir);
    ASSERT_TRUE(disk->ok());
    EXPECT_TRUE(disk->persistent());
    EXPECT_EQ(session.enableCache(), disk);
    EXPECT_EQ(session.cache(), disk);

    session.setDiskCache(nullptr);
    EXPECT_EQ(session.cache(), nullptr);
}

TEST(SessionStore, ProbesTheStoreOncePerJob)
{
    const std::string dir = freshDir("probe_once");
    Session session;
    session.enableCache();
    const auto store = session.attachDiskCache(dir);
    ASSERT_TRUE(store->ok());

    std::vector<Job> batch;
    for (const char *engine : {"VEGETA-D-1-2", "VEGETA-S-2-2"})
        for (const u32 pattern : {4u, 2u, 1u})
            batch.push_back(Job::simulate(
                smallRequest(session, engine, pattern, false)));
    const u64 n = batch.size();

    // Cold: one miss and one insert per job, no hit anywhere.
    const auto cold = session.runBatch(batch, 2);
    DiskCacheStats stats = store->stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, n);
    EXPECT_EQ(stats.insertions, n);

    // Warm, same session: one hit per job and nothing else.
    expectIdenticalBatches(session.runBatch(batch, 2), cold);
    stats = store->stats();
    EXPECT_EQ(stats.hits, n);
    EXPECT_EQ(stats.misses, n);
    EXPECT_EQ(stats.insertions, n);

    // Warm, a fresh session on the same directory: the same.
    Session fresh;
    const auto reopened = fresh.attachDiskCache(dir);
    expectIdenticalBatches(fresh.runBatch(batch, 2), cold);
    stats = reopened->stats();
    EXPECT_EQ(stats.hits, n);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(fresh.simulationsPerformed(), 0u);
}

TEST(SessionStore, BatchedAnalysisUsesItsAnalyticalKey)
{
    // runBatch stores an analysis under the key its plan phase built:
    // its jobKey, "ana|" + analyticalKey, so a direct analyze() of
    // the same request is a hit, and the reverse.
    Session session;
    const auto store = session.enableCache();
    AnalyticalRequest first;
    first.model = "fig15-unstructured";
    first.params["degree"] = 0.95;
    AnalyticalRequest second;
    second.model = "fig4-vector-vs-matrix";

    const auto batch = session.runBatch(
        {Job::analyze(first), Job::analyze(first)}, 2);
    EXPECT_EQ(session.analysesPerformed(), 1u);
    const auto stored = store->find(jobKey(Job::analyze(first)));
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->kind, JobKind::Analysis);
    EXPECT_EQ(jobKey(Job::analyze(first)),
              std::string(kAnalysisKeyPrefix) + analyticalKey(first));
    expectIdenticalAnalysis(session.analyze(first), batch[0].analysis);
    EXPECT_EQ(session.analysesPerformed(), 1u);
    expectIdenticalAnalysis(batch[1].analysis, batch[0].analysis);

    session.analyze(second);
    EXPECT_EQ(session.analysesPerformed(), 2u);
    session.runBatch({Job::analyze(second)}, 1);
    EXPECT_EQ(session.analysesPerformed(), 2u);
}

} // namespace
} // namespace vegeta::sim
