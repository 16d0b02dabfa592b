/**
 * @file
 * The repository benchmark: two seeded workloads measured end to
 * end (tracing disarmed) and, in a separate traced run, a per-layer
 * ladder of timed calls into each module's public functions.
 *
 * Everything here observes the simulator through its public API; the
 * spans recorded in traced runs are opened only from these files.
 * See ../README.md for the workloads, the metric definitions and the
 * map from each layer metric to the end-to-end metric it should move.
 */

#ifndef VEGETA_PERFBENCH_BENCH_HPP
#define VEGETA_PERFBENCH_BENCH_HPP

#include <map>
#include <string>
#include <vector>

#include "sim/job.hpp"
#include "sim/session.hpp"

namespace perfbench {

using vegeta::u32;
using vegeta::u64;
using vegeta::sim::Job;
using vegeta::sim::JobResult;
using vegeta::sim::Session;

/** Jobs per client RPC in the service rung of the ladder. */
constexpr std::size_t kServiceBatchJobs = 16;
/** Worker processes of the service and of the process pool. */
constexpr u32 kWorkers = 2;
/** Closed-loop client connections of the service rung. */
constexpr u32 kClients = 2;

/** Command-line settings of one benchmark run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string referenceFile; ///< expected table4 result digest
    std::string traceOut;      ///< Chrome trace path (traced runs)
};

/** What one run reports: metrics plus the correctness tally. */
struct Report
{
    std::map<std::string, std::pair<double, std::string>> metrics;
    u64 attempted = 0;
    u64 failed = 0;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Count @p n checked operations, failed unless @p ok. */
    void check(bool ok, u64 n, const std::string &what);
};

/** In-process threads: one core left free, at most three. */
u32 benchThreads();

double nowS();
double median(std::vector<double> values);
/** Nearest-rank percentile, @p q in (0, 1]. */
double percentile(std::vector<double> values, double q);
/** User + system CPU seconds of this process (self) and of its
 *  reaped children. */
double cpuSelfS();
double cpuChildrenS();
/** Largest peak RSS of this process and its reaped children, MB. */
double peakRssMb();
/** The CPUs this process may run on (empty if unknown). */
std::vector<int> allowedCpus();
/** Restrict the calling thread to @p cpus; false if that failed. */
bool pinThread(const std::vector<int> &cpus);

/** Canonical bytes of results in order (the job_io result codec,
 *  doubles as raw bit patterns). */
std::string resultBytes(const std::vector<JobResult> &results);
/** FNV-1a of a string, as 16 hex digits. */
std::string digestHex(const std::string &bytes);

/** A fresh (emptied) directory under the run directory. */
std::string freshDir(const std::string &name);
void removeDir(const std::string &path);
/** Copy a warmed cache directory's backing file into a fresh dir. */
std::string copyCacheDir(const std::string &from,
                         const std::string &name);

/** The Figure 13 grid over the twelve Table IV layers, grid order. */
std::vector<Job> table4Grid(const Session &session);

/** The grid in a seed-shuffled submission order. */
struct ShuffledGrid
{
    std::vector<Job> jobs;
    std::vector<u32> gridIndex; ///< jobs[i] is grid[gridIndex[i]]
};
ShuffledGrid shuffledGrid(const Session &session, u64 seed);

/** Results of a shuffled submission, put back into grid order. */
std::vector<JobResult> inGridOrder(const ShuffledGrid &grid,
                                   const std::vector<JobResult> &res);

/** The tuner's analytical prefilter job for a grid simulation job. */
Job prefilterTwin(const Session &session, const Job &simulation);

/** The inputs the per-layer ladder measures, all from the grid. */
struct LadderInput
{
    /** Simulation jobs the workload replays, in submission order. */
    std::vector<Job> replayJobs;
    /** The tuner's prefilter twin of every replayed job. */
    std::vector<Job> analysisJobs;
    /** The replayed jobs cut into 16-job client batches. */
    std::vector<std::vector<Job>> serverBatches;
};

/** What a workload's end-to-end phase hands to the ladder. */
struct EndToEnd
{
    double jobsPerS = 0;          ///< untraced median
    double tracedJobsPerS = 0;    ///< traced median (traced runs)
    double cpuS = 0;              ///< self + children CPU seconds
    u64 jobs = 0;                 ///< jobs the CPU time covers
    double repeatRatio = 0;       ///< measured input property
    LadderInput ladder;
};

EndToEnd runTable4Sweep(const Options &opts, Report &report);
EndToEnd runTable4Pooled(const Options &opts, Report &report);

/** Per-layer metrics of a traced run (adds to @p report). */
void runLadder(const Options &opts, const EndToEnd &e2e,
               Report &report);

/** The workload-independent check: the reference digest of the
 *  grid plus the paper's geomean speed-ups (stderr). */
void judgeTable4(const Options &opts,
                 const std::vector<JobResult> &grid_results,
                 Report &report);

} // namespace perfbench

#endif // VEGETA_PERFBENCH_BENCH_HPP
