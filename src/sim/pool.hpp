/**
 * @file
 * The out-of-process executor: exec'd pipe workers, shared by the
 * process pool and the simulation service.
 *
 * Session::runBatch parallelizes over threads inside one process; a
 * WorkerSet spreads one job batch over N worker *processes*, the
 * scaling regime where thread-level parallelism stops paying (per-core
 * scaling cliffs and shared-allocator/LLC contention -- "When More
 * Cores Hurts") and where the streaming replayer's flat per-process
 * memory makes workers cheap.  It has two callers:
 *
 *   - ProcessPool (`sweep --workers N`) spawns an ephemeral WorkerSet
 *     for one run() and reaps it when the batch is merged;
 *   - SimServer (`serve --service-workers N`) holds one WorkerSet for
 *     its lifetime and feeds it every dispatched batch.
 *
 * The contract mirrors runBatch exactly: merged results -- and the
 * result store's file -- are bit-for-bit identical to a
 * single-process run for ANY worker count and any completion order.
 * That falls out of the design:
 *
 *   - the process that owns the batch owns its store: it plans the
 *     batch with Session::planBatch -- runBatch's own plan phase,
 *     whose probe is the store's one read -- and stores the misses
 *     with Session::commit, the store's one write; workers run
 *     store-less, as pure compute;
 *   - the pool deals exactly the units runBatch would run: whole
 *     stream groups (split at timing-class boundaries only above an
 *     executor's fair share of workers x threads), largest first,
 *     and an all-hit batch deals nothing;
 *   - the deal is pull-based: each worker is sent one `batch` frame
 *     of up to `threads` units (sim/job_io records), and whichever
 *     worker answers first is sent the next frame, so no stream is
 *     emitted twice and no timing class is replayed twice however
 *     the units land;
 *   - every `results` frame comes back keyed by jobKey, with doubles
 *     as raw bit patterns, and is merged by job index -- the bytes
 *     are a pure function of the batch, never of timing.
 *
 * Workers are fork/exec of a worker command -- by default this
 * process's own binary re-entering through a hidden `worker` argv
 * token (simulate_cli wires this up as the hidden `simulate_cli
 * worker` subcommand; test and bench binaries dispatch to
 * poolWorkerMain from their own main()).  A worker reads `batch`
 * frames on its stdin and answers exactly one `results` or `error`
 * frame per frame on its stdout until EOF.  Every descriptor the
 * library opens is close-on-exec, so a worker holds its own two pipe
 * ends and nothing else: no sibling's pipes, no listen socket.
 * Worker failures -- a dead worker, a corrupt frame, missing keys --
 * surface as one clean per-worker error, never as wrong or silently
 * missing results.
 */

#ifndef VEGETA_SIM_POOL_HPP
#define VEGETA_SIM_POOL_HPP

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/job.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

/** What one worker answered over a batch's frames. */
struct WorkerReply
{
    u32 worker = 0;

    /** Unique jobs it answered, summed over its frames. */
    u64 jobs = 0;

    /** Its latest cumulative telemetry snapshot (every frame carries
     *  the whole process's totals, so only the last one counts). */
    std::vector<telemetry::MetricRecord> metrics;
};

/** Outcome of one WorkerSet::run. */
struct WorkerBatch
{
    bool ok = false;

    /** One-line reason when !ok ("" otherwise). */
    std::string error;

    /** Work the workers actually performed (summed). */
    u64 simulationsPerformed = 0;
    u64 analysesPerformed = 0;

    /** One entry per worker that answered, in order of its first
     *  answer. */
    std::vector<WorkerReply> replies;
};

/** N exec'd workers, each fed sim/wire frames over two pipes. */
class WorkerSet
{
  public:
    /**
     * Spawn @p workers workers running @p command (empty = this
     * executable plus the hidden "worker" token) with `--threads T`
     * (0 divides the machine: max(1, hardware_concurrency /
     * workers)).  Null with a one-line reason on failure; anything
     * already spawned is reaped first.
     */
    static std::unique_ptr<WorkerSet>
    spawn(u32 workers, u32 threads, std::vector<std::string> command,
          std::string *error);

    /** Closes every feed pipe (workers exit on EOF) and reaps. */
    ~WorkerSet();

    WorkerSet(const WorkerSet &) = delete;
    WorkerSet &operator=(const WorkerSet &) = delete;

    u32 size() const { return static_cast<u32>(workers_.size()); }

    /** runBatch threads inside each worker (resolved at spawn). */
    u32 threads() const { return threads_; }

    /**
     * Deal @p plan's units -- Session::planBatch(jobs, size() *
     * threads(), ...) -- over the workers and merge the `results`
     * frames by job index into @p results (a unit's jobs only).
     * Pull-based: each worker is sent a frame of up to threads()
     * units (never more than an even share of what is left), and
     * each answer read is followed by the worker's next frame until
     * the plan runs out.  At the first failure no further frame is
     * sent, but every worker that was sent a frame has its answer
     * read back, so each pipe stays one frame in, one frame out.
     * Not thread-safe: one run at a time.
     */
    WorkerBatch run(const std::vector<Job> &jobs, const BatchPlan &plan,
                    std::vector<JobResult> &results);

  private:
    struct Worker
    {
        pid_t pid = -1;
        int feedFd = -1;  ///< parent writes batch frames here
        int replyFd = -1; ///< parent reads answer frames here
    };

    WorkerSet() = default;

    std::vector<Worker> workers_;
    u32 threads_ = 1;
};

/** How a ProcessPool runs one batch. */
struct PoolOptions
{
    /** Worker processes to spawn (capped at the plan's unit
     *  count). */
    u32 workers = 2;

    /** Persistent result-store directory, opened by run() in the
     *  calling process ("" = no store). */
    std::string cacheDir;

    /**
     * runBatch threads inside each worker.  0 divides the machine:
     * each worker gets max(1, hardware_concurrency / workers)
     * threads, so the pool's default never oversubscribes the CPU
     * workers-fold.
     */
    u32 threadsPerWorker = 0;

    /**
     * argv prefix of the worker command.  Empty picks the default:
     * this process's own executable plus the hidden "worker" token,
     * which is correct for any binary whose main() routes that token
     * to poolWorkerMain (simulate_cli, the pool tests, the bench).
     */
    std::vector<std::string> workerCommand;

    /**
     * Unused.  Workers exchange frames over pipes and a pool run
     * writes no files; the field only keeps existing callers that
     * still assign it compiling.
     */
    std::string workDir;

    /**
     * Batch-size planner: batches with fewer UNIQUE jobs than this
     * run their units in-process instead of paying worker spawn and
     * frame overhead that the committed trajectory shows losing on
     * small batches.  0 picks the measured default
     * crossover (defaultPoolCrossoverJobs()); 1 means "always use
     * the process pool" -- what an explicit user demand for workers
     * should pass.  Either path returns bit-identical results.
     */
    u32 minPooledJobs = 0;
};

/** What one pooled batch did (aggregated across workers). */
struct PoolStats
{
    u32 workersSpawned = 0;
    u64 uniqueJobs = 0;

    /** False when the batch-size planner ran the batch in-process
     *  instead of spreading it over worker processes. */
    bool usedProcessPool = true;

    /** Core-model simulations actually performed (cache hits and
     *  dedupe excluded) -- zero on a warm store. */
    u64 simulationsPerformed = 0;

    /** Analytical backends actually evaluated. */
    u64 analysesPerformed = 0;
};

/** Outcome of one pooled batch. */
struct PoolRun
{
    bool ok = false;

    /** `results[i]` corresponds to `jobs[i]`; empty when !ok. */
    std::vector<JobResult> results;

    /** One-line reason when !ok ("" otherwise). */
    std::string error;

    PoolStats stats;
};

/** Runs job batches over an ephemeral WorkerSet. */
class ProcessPool
{
  public:
    /** Stores the options; spawns nothing until run(). */
    explicit ProcessPool(PoolOptions options);

    /**
     * Run @p jobs to completion across the pool: probe the store
     * (options().cacheDir), deal the misses to fresh workers, and
     * commit their results, all in this process.  The batch is
     * planned over @p session's registries (its own store is not
     * used); workers build a store-less Session over the builtin
     * registries, so jobs must not depend on names registered only
     * in a custom parent session.
     */
    PoolRun run(const Session &session,
                const std::vector<Job> &jobs) const;

    const PoolOptions &options() const { return options_; }

  private:
    PoolOptions options_;
};

/**
 * The worker half: parse `[--threads N]`, then on a fresh,
 * store-less builtin Session answer every `batch` frame read from
 * stdin with exactly one `results` (or `error`) frame on stdout,
 * until EOF.
 * Returns a process exit code (0 on a clean EOF); any binary that may
 * host workers routes its hidden "worker" argv token here.
 */
int poolWorkerMain(const std::vector<std::string> &args);

/** This process's executable path (/proc/self/exe; "" on failure). */
std::string currentExecutablePath();

/**
 * The built-in planner crossover: below this many unique jobs a
 * pooled batch is cheaper to run in-process than to spread over
 * exec'd workers (PoolOptions::minPooledJobs == 0 uses this).
 * The service bench records the value alongside its timings so a
 * future re-measurement has the old figure next to the new one.
 */
u32 defaultPoolCrossoverJobs();

} // namespace vegeta::sim

#endif // VEGETA_SIM_POOL_HPP
