/**
 * @file
 * The two workloads' end-to-end phases.
 *
 * An untraced run measures until --seconds have passed and reports
 * the end-to-end metrics.  A traced run alternates untraced and
 * traced repetitions (their jobs/s ratio is the tracing overhead) and
 * then hands the workload's inputs to the per-layer ladder.  In both,
 * the first repetition only warms up (page cache, allocator, the
 * pool's exec of this binary) and is not counted.
 */

#include <iostream>
#include <memory>
#include <set>

#include "bench.hpp"
#include "sim/pool.hpp"
#include "sim/telemetry.hpp"

namespace perfbench {

using namespace vegeta;
namespace tm = vegeta::telemetry;

namespace {

/** Counted repetitions per arm in a traced run's end-to-end phase. */
constexpr int kTracedPairs = 2;
/**
 * Set-ups timed on each CPU before every sweep.  setup_s is the median
 * of all of them.  A process stays on one vCPU, and on a shared host
 * one vCPU can run the same set-up 1.5x slower than another for the
 * whole run, so each sweep samples every CPU in turn: set-up time then
 * reads the same in every run instead of depending on where it landed.
 */
constexpr int kSetupsPerCpu = 8;

/** Repetition 0 warms up; a traced run then alternates arms. */
bool
countedRep(int rep)
{
    return rep > 0;
}

bool
tracedRep(const Options &opts, int rep)
{
    return opts.trace && rep % 2 == 1;
}

bool
moreReps(const Options &opts, int rep, double elapsed)
{
    if (opts.trace)
        return rep <= 2 * kTracedPairs;
    return rep <= 1 || elapsed < opts.seconds;
}

/** Median jobs/s of the counted untraced and traced repetitions. */
void
splitRates(const Options &opts, const std::vector<double> &rates,
           EndToEnd &e2e)
{
    std::vector<double> plain, traced;
    for (std::size_t i = 0; i < rates.size(); ++i)
        if (countedRep(int(i)))
            (tracedRep(opts, int(i)) ? traced : plain)
                .push_back(rates[i]);
    e2e.jobsPerS = median(plain);
    e2e.tracedJobsPerS = median(traced);
}

LadderInput
gridLadder(const Session &session, const ShuffledGrid &grid)
{
    LadderInput in;
    in.replayJobs = grid.jobs;
    for (const auto &job : grid.jobs)
        in.analysisJobs.push_back(prefilterTwin(session, job));
    for (std::size_t i = 0; i < grid.jobs.size();
         i += kServiceBatchJobs) {
        const auto end =
            std::min(grid.jobs.size(), i + kServiceBatchJobs);
        in.serverBatches.emplace_back(grid.jobs.begin() + long(i),
                                      grid.jobs.begin() + long(end));
    }
    return in;
}

/**
 * Cold sweeps of the seed-shuffled grid, set up afresh each time.
 * @p set_up builds a state with a `session` and stores in its argument
 * the time of the program's own set-up calls alone; @p run executes the
 * state's `grid` (checking what only it can check) and returns the
 * results in submission order.
 */
template <typename SetUp, typename Run>
EndToEnd
coldSweeps(const Options &opts, Report &report, const char *span_name,
           SetUp set_up, Run run)
{
    EndToEnd e2e;
    std::vector<double> setups, rates, uops_per_s, wall_ms;
    const std::vector<int> cpus = allowedCpus();
    const double start = nowS();
    for (int rep = 0; moreReps(opts, rep, nowS() - start); ++rep) {
        double setup_s = 0;
        for (const int cpu : cpus) {
            pinThread({cpu});
            for (int i = 0; i < kSetupsPerCpu; ++i) {
                set_up(setup_s);
                setups.push_back(setup_s);
            }
        }
        // The sweep and every thread or worker it starts inherit this.
        report.check(pinThread(cpus), 1, "restore the CPU affinity");
        auto state = set_up(setup_s);
        state.grid = shuffledGrid(*state.session, opts.seed);
        tm::setTraceEnabled(tracedRep(opts, rep));
        const std::size_t jobs = state.grid.jobs.size();
        const double cpu0 = cpuSelfS() + cpuChildrenS();
        const double t0 = nowS();
        std::vector<JobResult> results;
        {
            tm::Span span(span_name, jobs);
            results = run(state, report);
        }
        const double wall = nowS() - t0;
        tm::setTraceEnabled(false);
        e2e.cpuS += cpuSelfS() + cpuChildrenS() - cpu0;
        e2e.jobs += jobs;

        u64 uops = 0;
        for (const auto &r : results)
            uops += r.simulation.instructions;
        rates.push_back(double(jobs) / wall);
        if (countedRep(rep) && !tracedRep(opts, rep)) {
            uops_per_s.push_back(double(uops) / wall);
            wall_ms.push_back(wall * 1e3);
        }
        judgeTable4(opts, inGridOrder(state.grid, results), report);
        if (rep == 0) {
            e2e.ladder = gridLadder(*state.session, state.grid);
            std::set<std::string> keys;
            for (const auto &job : state.grid.jobs)
                keys.insert(sim::jobKey(job));
            e2e.repeatRatio = 1.0 - double(keys.size()) / double(jobs);
        }
    }
    splitRates(opts, rates, e2e);
    std::cerr << "perfbench: " << wall_ms.size() << " timed sweeps of "
              << e2e.ladder.replayJobs.size() << " jobs, ms:";
    for (const double ms : wall_ms)
        std::cerr << " " << long(ms);
    std::cerr << "\n";
    if (!opts.trace) {
        report.add("setup_s", median(setups), "s");
        report.add("jobs_per_s", e2e.jobsPerS, "1/s");
        report.add("sim_uops_per_s", median(uops_per_s), "1/s");
        report.add("batch_p50_ms", median(wall_ms), "ms");
        report.add("batch_p90_ms", percentile(wall_ms, 0.9), "ms");
        report.add("peak_rss_mb", peakRssMb(), "MB");
    }
    return e2e;
}

} // namespace

EndToEnd
runTable4Sweep(const Options &opts, Report &report)
{
    struct State
    {
        std::unique_ptr<Session> session;
        std::shared_ptr<sim::DiskResultCache> disk;
        ShuffledGrid grid;
    };
    auto set_up = [](double &setup_s) {
        State s;
        const std::string dir = freshDir("sweep-cache");
        const double t0 = nowS();
        s.session = std::make_unique<Session>();
        s.session->enableCache();
        s.disk = s.session->attachDiskCache(dir);
        setup_s = nowS() - t0;
        return s;
    };
    auto run = [](State &s, Report &rep) {
        auto results = s.session->runBatch(s.grid.jobs, benchThreads());
        const auto stats = s.disk->stats();
        rep.check(s.disk->ok() && stats.hits == 0 &&
                      stats.insertions == s.grid.jobs.size(),
                  1, "cold sweep cache traffic");
        return results;
    };
    EndToEnd e2e =
        coldSweeps(opts, report, "bench.session", set_up, run);
    removeDir("sweep-cache");
    return e2e;
}

EndToEnd
runTable4Pooled(const Options &opts, Report &report)
{
    struct State
    {
        std::unique_ptr<Session> session;
        std::unique_ptr<sim::ProcessPool> pool;
        ShuffledGrid grid;
    };
    auto set_up = [](double &setup_s) {
        State s;
        sim::PoolOptions options;
        options.workers = kWorkers;
        options.threadsPerWorker = 1;
        options.minPooledJobs = 1;
        options.cacheDir = freshDir("pool-cache");
        options.workDir = "pool-work";
        const double t0 = nowS();
        s.session = std::make_unique<Session>();
        s.pool = std::make_unique<sim::ProcessPool>(std::move(options));
        setup_s = nowS() - t0;
        return s;
    };
    auto run = [](State &s, Report &rep) {
        sim::PoolRun pooled = s.pool->run(*s.session, s.grid.jobs);
        rep.check(pooled.ok && pooled.stats.usedProcessPool &&
                      pooled.stats.workersSpawned == kWorkers &&
                      pooled.stats.simulationsPerformed ==
                          s.grid.jobs.size(),
                  1, "pooled sweep ran cold on every worker: " +
                         pooled.error);
        return std::move(pooled.results);
    };
    EndToEnd e2e = coldSweeps(opts, report, "bench.pool", set_up, run);
    removeDir("pool-cache");
    removeDir("pool-work");
    return e2e;
}

} // namespace perfbench
