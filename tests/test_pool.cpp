/**
 * @file
 * Process-pool executor tests: a pooled batch merges bit-for-bit
 * identical to single-process runBatch at workers in {1, 2, 5}, the
 * pool deals whole stream groups (N one-thread workers replay what N
 * in-process threads do), seeded worker start delays that reorder the
 * pull-based deal never change the bytes, each worker's telemetry is
 * absorbed once however many frames it answered, a warm cache
 * directory (probed and filled by the pool's own process, never by
 * its store-less workers) makes a repeated pooled run perform zero
 * simulations and spawn no worker, duplicate jobs fan out, and
 * worker failures surface as clean per-worker errors.
 *
 * This binary is its own pool worker: main() routes the hidden
 * "worker" argv token to poolWorkerMain before gtest ever runs,
 * exactly like simulate_cli's hidden subcommand -- so the tests exec
 * REAL worker processes.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <set>

#include "common/random.hpp"
#include "expect_identical.hpp"
#include "sim/job_io.hpp"
#include "sim/pool.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"
#include "sim/wire.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_pool" / name;
    fs::remove_all(dir);
    return dir.string();
}

/**
 * A mixed batch small enough to fork repeatedly: trace simulations
 * across engines/patterns (with a duplicate) plus analytical jobs.
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
    sim_job("VEGETA-D-1-2", 4, false);
    sim_job("VEGETA-S-2-2", 2, true);
    {
        auto builder = session.job().model("fig4-vector-vs-matrix");
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    }
    sim_job("VEGETA-S-2-2", 2, true); // duplicate of job 1
    sim_job("VEGETA-S-16-2", 1, false);
    {
        auto builder = session.job()
                           .model("fig15-unstructured")
                           .param("degree", 0.95);
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    }
    sim_job("VEGETA-S-1-2", 2, false);
    return jobs;
}

/** The `sweep --quick` grid: 135 small jobs on 9 shared streams. */
std::vector<Job>
quickGrid(const Session &session)
{
    std::vector<std::string> workloads;
    for (const auto &workload : session.workloads().group("quick"))
        workloads.push_back(workload.name);
    std::vector<Job> jobs;
    for (auto &request : figure13Grid(session, workloads,
                                      session.engines().names()))
        jobs.push_back(Job::simulate(std::move(request)));
    return jobs;
}

/** A telemetry counter so far (0 without telemetry). */
u64
counter(const char *name)
{
    return telemetry::snapshot().counter(name);
}

/** Shared-stream work done in this process (absorbed included). */
struct StreamCounts
{
    u64 groups = counter("session.stream.groups");
    u64 replays = counter("session.stream.replays");
    u64 lanes = counter("session.stream.lanes");

    /** What was counted since @p before. */
    StreamCounts since(const StreamCounts &before) const
    {
        StreamCounts delta = *this;
        delta.groups -= before.groups;
        delta.replays -= before.replays;
        delta.lanes -= before.lanes;
        return delta;
    }
};

TEST(ProcessPool, MergesBitIdenticalToSingleProcess)
{
    const Session session;
    const auto jobs = mixedBatch(session);
    const auto reference = session.runBatch(jobs, 1);

    for (const u32 workers : {1u, 2u, 5u}) {
        PoolOptions options;
        options.workers = workers;
        options.threadsPerWorker = 2;
        options.minPooledJobs = 1; // pin the REAL pool: this test
                                   // is about the pooled path
        const auto pooled = ProcessPool(options).run(session, jobs);
        ASSERT_TRUE(pooled.ok) << pooled.error;
        EXPECT_TRUE(pooled.stats.usedProcessPool);
        EXPECT_EQ(pooled.stats.uniqueJobs, jobs.size() - 1);
        // Workers are capped at the units the plan deals: a worker
        // with no unit to run is never spawned.
        const std::size_t units =
            session.planBatch(jobs, workers * 2).units.size();
        EXPECT_EQ(pooled.stats.workersSpawned,
                  std::min<std::size_t>(workers, units));
        expectIdenticalBatches(pooled.results, reference);
    }
}

TEST(ProcessPool, KeepsStreamGroupsWhole)
{
    // The pool deals runBatch's own plan, whole stream groups pulled
    // largest first: N one-thread workers emit and replay exactly
    // what N in-process threads do -- no stream is emitted twice and
    // no timing class is replayed twice -- and the merge reads the
    // bytes of a one-thread batch.
    const Session session;
    const auto jobs = quickGrid(session);
    const auto reference = Session().runBatch(jobs, 1);
    for (const u32 n : {1u, 2u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(n));
        const StreamCounts before_threads;
        Session().runBatch(jobs, n);
        const StreamCounts threads = StreamCounts().since(
            before_threads);

        PoolOptions options;
        options.workers = n;
        options.threadsPerWorker = 1;
        options.minPooledJobs = 1;
        const StreamCounts before_pool;
        const auto pooled = ProcessPool(options).run(session, jobs);
        const StreamCounts pool = StreamCounts().since(before_pool);
        ASSERT_TRUE(pooled.ok) << pooled.error;
        EXPECT_EQ(pooled.stats.workersSpawned, n);
        EXPECT_EQ(pooled.stats.simulationsPerformed, jobs.size());
        expectIdenticalBatches(pooled.results, reference);
#ifndef VEGETA_NO_TELEMETRY
        EXPECT_GT(threads.groups, 0u);
        EXPECT_EQ(pool.groups, threads.groups);
        EXPECT_EQ(pool.replays, threads.replays);
#else
        (void)threads;
        (void)pool;
#endif
    }
}

TEST(ProcessPool, AbsorbsEachWorkerOnce)
{
    // Two one-thread workers pull 9 stream groups, so each answers
    // several frames, every one carrying its cumulative snapshot.
    // The parent must fold in each worker's latest snapshot once:
    // an absorb per frame would count early frames' lanes again.
    const Session session;
    const auto jobs = quickGrid(session);
    std::set<std::string> unique;
    for (const Job &job : jobs)
        unique.insert(jobKey(job));

    PoolOptions options;
    options.workers = 2;
    options.threadsPerWorker = 1;
    options.minPooledJobs = 1;
    const StreamCounts before;
    const u64 slices = counter("pool.slices");
    const u64 batches = counter("session.batches");
    const auto pooled = ProcessPool(options).run(session, jobs);
    const StreamCounts absorbed = StreamCounts().since(before);
    ASSERT_TRUE(pooled.ok) << pooled.error;
#ifndef VEGETA_NO_TELEMETRY
    EXPECT_EQ(absorbed.lanes, unique.size());
    // One worker runBatch per frame, and more frames than workers.
    EXPECT_EQ(counter("session.batches") - batches,
              counter("pool.slices") - slices);
    EXPECT_GT(counter("pool.slices") - slices, 2u);
#else
    (void)absorbed;
    (void)slices;
    (void)batches;
#endif
}

TEST(ProcessPool, PullOrderNeverChangesTheBytes)
{
    // Seeded start delays make a different worker answer first, so
    // the pull-based deal hands the units out in a different order
    // each time; the merged bytes must not move.  Each wrapped worker
    // claims the next index with an atomic mkdir, sleeps that
    // index's delay, then execs the real worker.
    const Session session;
    const auto jobs = quickGrid(session);
    const auto reference = Session().runBatch(jobs, 1);
    const std::string script =
        "i=0; while ! mkdir \"$0/$i\" 2>/dev/null; do i=$((i+1)); done;"
        " n=0; for d in $DELAYS; do"
        " [ $n = $i ] && sleep $d; n=$((n+1)); done; exec \"$@\"";
    for (const u64 seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        std::string delays;
        for (u32 w = 0; w < 3; ++w) {
            const u64 hundredths = rng.nextBelow(16);
            delays += (w ? " 0." : "0.") +
                      std::string(hundredths < 10 ? "0" : "") +
                      std::to_string(hundredths);
        }
        SCOPED_TRACE("seed " + std::to_string(seed) + ", delays " +
                     delays);
        const std::string claims =
            freshDir("pull_order_" + std::to_string(seed));
        fs::create_directories(claims);

        PoolOptions options;
        options.workers = 3;
        options.threadsPerWorker = 1;
        options.minPooledJobs = 1;
        std::string wrapped = script;
        wrapped.replace(wrapped.find("$DELAYS"), 7, delays);
        options.workerCommand = {"/bin/sh", "-c", wrapped, claims,
                                 currentExecutablePath(), "worker"};
        const auto pooled = ProcessPool(options).run(session, jobs);
        ASSERT_TRUE(pooled.ok) << pooled.error;
        EXPECT_EQ(pooled.stats.workersSpawned, 3u);
        EXPECT_EQ(pooled.stats.simulationsPerformed, jobs.size());
        EXPECT_TRUE(fs::exists(fs::path(claims) / "2"));
        expectIdenticalBatches(pooled.results, reference);
    }
}

TEST(ProcessPool, WarmSharedCacheRunsZeroSimulations)
{
    const std::string cache_dir = freshDir("warm_cache");
    const Session session;
    const auto jobs = mixedBatch(session);

    PoolOptions options;
    options.workers = 2;
    options.cacheDir = cache_dir;
    options.minPooledJobs = 1; // exercise real multi-process sharing

    // Cold: every unique trace job simulates somewhere in the pool,
    // every unique analysis evaluates, and the shared dir fills up.
    const auto cold = ProcessPool(options).run(session, jobs);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.stats.simulationsPerformed, 4u);
    EXPECT_EQ(cold.stats.analysesPerformed, 2u);

    // Warm, with a different worker count: zero replays, zero
    // backend evaluations, bit-identical merge, and -- every job a
    // hit in the pool's own probe -- no worker spawned.
    options.workers = 5;
    const auto warm = ProcessPool(options).run(session, jobs);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.stats.simulationsPerformed, 0u);
    EXPECT_EQ(warm.stats.analysesPerformed, 0u);
    EXPECT_EQ(warm.stats.workersSpawned, 0u);
    expectIdenticalBatches(warm.results, cold.results);
}

TEST(ProcessPool, PlannerFallsBackInProcessBelowCrossover)
{
    // 6 unique jobs is far below the measured fork/exec crossover:
    // the default planner must run the batch in-process -- same
    // results, zero worker processes.
    const Session session;
    const auto jobs = mixedBatch(session);
    const auto reference = session.runBatch(jobs, 1);

    PoolOptions options;
    options.workers = 4; // ignored by the fallback
    ASSERT_LT(jobs.size(), defaultPoolCrossoverJobs());
    const auto planned = ProcessPool(options).run(session, jobs);
    ASSERT_TRUE(planned.ok) << planned.error;
    EXPECT_FALSE(planned.stats.usedProcessPool);
    EXPECT_EQ(planned.stats.workersSpawned, 0u);
    EXPECT_EQ(planned.stats.uniqueJobs, jobs.size() - 1);
    EXPECT_EQ(planned.stats.simulationsPerformed, 4u);
    EXPECT_EQ(planned.stats.analysesPerformed, 2u);
    expectIdenticalBatches(planned.results, reference);
}

TEST(ProcessPool, PlannerFallbackSharesTheDiskCacheBothWays)
{
    // A cache written by the in-process fallback warms a later true
    // pooled run, and vice versa: the planner changes WHERE the batch
    // executes, never what the shared cache contains.
    const std::string cache_dir = freshDir("planner_cache");
    const Session session;
    const auto jobs = mixedBatch(session);

    PoolOptions fallback;
    fallback.workers = 2;
    fallback.cacheDir = cache_dir;
    const auto cold = ProcessPool(fallback).run(session, jobs);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_FALSE(cold.stats.usedProcessPool);
    EXPECT_EQ(cold.stats.simulationsPerformed, 4u);

    PoolOptions pooled = fallback;
    pooled.minPooledJobs = 1;
    const auto warm = ProcessPool(pooled).run(session, jobs);
    ASSERT_TRUE(warm.ok) << warm.error;
    ASSERT_TRUE(warm.stats.usedProcessPool);
    EXPECT_EQ(warm.stats.simulationsPerformed, 0u);
    EXPECT_EQ(warm.stats.analysesPerformed, 0u);
    expectIdenticalBatches(warm.results, cold.results);
}

TEST(ProcessPool, ExplicitMinPooledJobsThresholdRespected)
{
    const Session session;
    const auto jobs = mixedBatch(session); // 6 unique
    PoolOptions options;
    options.workers = 2;

    options.minPooledJobs = 7; // just above the unique count
    auto run = ProcessPool(options).run(session, jobs);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_FALSE(run.stats.usedProcessPool);

    options.minPooledJobs = 6; // exactly the unique count: pool
    run = ProcessPool(options).run(session, jobs);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_TRUE(run.stats.usedProcessPool);
    EXPECT_EQ(run.stats.workersSpawned, 2u);
}

TEST(ProcessPool, EmptyBatchSpawnsNothing)
{
    const Session session;
    PoolOptions options;
    options.workers = 4;
    const auto pooled = ProcessPool(options).run(session, {});
    ASSERT_TRUE(pooled.ok) << pooled.error;
    EXPECT_TRUE(pooled.results.empty());
    EXPECT_EQ(pooled.stats.workersSpawned, 0u);
}

TEST(ProcessPool, RejectsInvalidJobsBeforeSpawning)
{
    const Session session;
    Job bad;
    bad.kind = JobKind::Simulation;
    bad.simulation.engine = "NOPE-9000";
    bad.simulation.gemm = {32, 32, 64};
    PoolOptions options;
    options.workers = 2;
    const auto pooled = ProcessPool(options).run(session, {bad});
    EXPECT_FALSE(pooled.ok);
    EXPECT_NE(pooled.error.find("unknown engine"), std::string::npos);
    EXPECT_EQ(pooled.stats.workersSpawned, 0u);
}

TEST(ProcessPool, FailedWorkerSurfacesACleanError)
{
    const Session session;
    const auto jobs = mixedBatch(session);
    PoolOptions options;
    options.workers = 2;
    options.minPooledJobs = 1; // force the pool so the fake worker runs
    // A "worker" that ignores its batch and exits non-zero.
    options.workerCommand = {"/bin/false"};
    const auto pooled = ProcessPool(options).run(session, jobs);
    EXPECT_FALSE(pooled.ok);
    EXPECT_NE(pooled.error.find("worker"), std::string::npos);
    EXPECT_TRUE(pooled.results.empty());
}

TEST(ProcessPool, ZeroWorkersIsAnError)
{
    const Session session;
    const auto jobs = mixedBatch(session);
    PoolOptions options;
    options.workers = 0;
    const auto pooled = ProcessPool(options).run(session, jobs);
    EXPECT_FALSE(pooled.ok);
}

/** This binary exec'd as one raw worker, fed through two pipes. */
struct RawWorker
{
    pid_t pid = -1;
    int feed = -1;  ///< the worker's stdin
    int reply = -1; ///< the worker's stdout

    RawWorker()
    {
        int in[2], out[2];
        EXPECT_EQ(pipe2(in, O_CLOEXEC), 0);
        EXPECT_EQ(pipe2(out, O_CLOEXEC), 0);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, in[0], 0);
        posix_spawn_file_actions_adddup2(&actions, out[1], 1);
        std::string self = currentExecutablePath();
        std::string token = "worker";
        char *argv[] = {self.data(), token.data(), nullptr};
        EXPECT_EQ(posix_spawn(&pid, argv[0], &actions, nullptr, argv,
                              environ),
                  0);
        posix_spawn_file_actions_destroy(&actions);
        close(in[0]);
        close(out[1]);
        feed = in[1];
        reply = out[0];
    }

    RawWorker(const RawWorker &) = delete;
    RawWorker &operator=(const RawWorker &) = delete;

    ~RawWorker()
    {
        if (pid > 0)
            finish();
        close(reply);
    }

    /** Close the feed (EOF) and return the worker's exit status. */
    int finish()
    {
        close(feed);
        int status = -1;
        waitpid(pid, &status, 0);
        pid = -1;
        return status;
    }
};

TEST(PoolWorker, CorruptBatchFrameIsAnsweredWithOneError)
{
    const Session session;
    const auto jobs = mixedBatch(session);
    RawWorker worker;
    std::string error;

    // A well-framed batch whose payload is not a job batch: the
    // worker answers exactly one error frame and keeps serving.
    ASSERT_TRUE(wire::writeFrame(worker.feed, wire::FrameType::Batch,
                                 "vegeta-job-file v1\nnot a record\n",
                                 &error))
        << error;
    wire::Frame answer;
    ASSERT_TRUE(wire::readFrame(worker.reply, &answer, 30'000, &error))
        << error;
    EXPECT_EQ(answer.type, wire::FrameType::Error);
    EXPECT_NE(answer.payload.find("corrupt record"), std::string::npos)
        << answer.payload;

    // The next valid batch is served in full, bit-identical.
    ASSERT_TRUE(wire::writeFrame(worker.feed, wire::FrameType::Batch,
                                 encodeJobBatch(jobs), &error))
        << error;
    ASSERT_TRUE(wire::readFrame(worker.reply, &answer, 30'000, &error))
        << error;
    ASSERT_EQ(answer.type, wire::FrameType::Results) << answer.payload;
    const auto output = decodeWorkerOutput(answer.payload, &error);
    ASSERT_TRUE(output.has_value()) << error;
    ASSERT_EQ(output->results.size(), jobs.size());
    std::vector<JobResult> results;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(output->results[i].first, jobKey(jobs[i]));
        results.push_back(output->results[i].second);
    }
    expectIdenticalBatches(results, session.runBatch(jobs, 1));

    // EOF on the feed is a clean shutdown.
    const int status = worker.finish();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << status;
}

TEST(PoolWorker, RejectsBadArguments)
{
    EXPECT_NE(poolWorkerMain({"--jobs"}), 0);
    EXPECT_NE(poolWorkerMain({"--frobnicate"}), 0);
    EXPECT_NE(poolWorkerMain({"--threads"}), 0);
    EXPECT_NE(poolWorkerMain({"--cache-dir"}), 0);
    // Workers are store-less: --cache-dir is an unknown option.
    EXPECT_NE(poolWorkerMain({"--cache-dir", "dir"}), 0);
    EXPECT_NE(poolWorkerMain({"--threads", "abc"}), 0);
}

} // namespace
} // namespace vegeta::sim

int
main(int argc, char **argv)
{
    // The hidden pool-worker re-entry, exactly like simulate_cli's
    // hidden `worker` subcommand: the ProcessPool tests exec this
    // binary back into itself with "worker" as the first argument.
    if (argc > 1 && std::string(argv[1]) == "worker")
        return vegeta::sim::poolWorkerMain(
            std::vector<std::string>(argv + 2, argv + argc));

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
