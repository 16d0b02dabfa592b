/**
 * @file
 * The Session: the one public entry point for running the VEGETA
 * model.
 *
 * A Session owns the engine, workload, and analytical-model
 * registries and an optional result store (sim/disk_cache.hpp), and
 * turns validated work descriptions into results.  The store is in
 * one of three states: none, memory-only, or persistent under a
 * directory.  The Session speaks two levels of API:
 *
 *  - the typed pair level (SimulationRequest -> SimulationResult,
 *    AnalyticalRequest -> AnalyticalResult), and
 *  - the polymorphic Job level: a Job is a tagged variant of the two,
 *    runBatch() executes mixed job vectors on a worker pool with
 *    canonical-key dedupe, and the output is bit-for-bit identical
 *    for any thread count, in every store state.
 *
 * Everything above this layer (CLI, benches, sweeps) speaks only jobs
 * or request/result pairs; nothing above it wires engines, workloads,
 * or kernels by hand.
 */

#ifndef VEGETA_SIM_SESSION_HPP
#define VEGETA_SIM_SESSION_HPP

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "sim/disk_cache.hpp"
#include "sim/job.hpp"
#include "sim/request.hpp"
#include "sim/result.hpp"

namespace vegeta::sim {

/**
 * One unit of a batch plan: an analysis job, or a chunk of one
 * stream group's timing classes.
 */
struct PlanUnit
{
    /** Job indices, one class per replayed lane (each class in
     *  batch order); an analysis unit is {{i}}. */
    std::vector<std::vector<std::size_t>> classes;

    /** The stream's padded tiles x (1 + classes): one emission plus
     *  one replay per lane (0 for an analysis). */
    u64 cost = 0;

    bool analysis = false;
};

/** How a job batch runs: the output of Session::planBatch. */
struct BatchPlan
{
    /** keys[i]: jobs[i]'s jobKey, also its key in the store. */
    std::vector<std::string> keys;

    /** source[i]: the first job whose key equals jobs[i]'s. */
    std::vector<std::size_t> source;

    /** The first job of every key, in batch order. */
    std::vector<std::size_t> unique;

    /** The unique jobs the store probe did not answer, in batch
     *  order: the jobs the units run and the commit stores. */
    std::vector<std::size_t> misses;

    /** The work left after the probe: analyses first (in batch
     *  order), then the stream chunks largest first. */
    std::vector<PlanUnit> units;
};

/** Facade over kernel generation + the trace-driven CPU model. */
class Session
{
  public:
    /** A session over the paper's builtin design/workload space. */
    Session();

    Session(EngineRegistry engines, WorkloadRegistry workloads);

    Session(EngineRegistry engines, WorkloadRegistry workloads,
            AnalyticalRegistry analytics);

    const EngineRegistry &engines() const { return engines_; }
    const WorkloadRegistry &workloads() const { return workloads_; }
    const AnalyticalRegistry &analytics() const { return analytics_; }

    /** A job builder bound to this session's registries. */
    JobBuilder job() const;

    /**
     * Attach a memory-only result store if none is attached (an
     * attached store, persistent or not, is left alone) and return
     * the attached store.  Caching never changes an answer -- equal
     * keys imply bit-identical results -- it only skips re-running
     * work already seen.
     */
    std::shared_ptr<DiskResultCache> enableCache();

    /**
     * Replace the store with a persistent one under @p directory
     * (created as needed).  Results survive the process: a second
     * Session attached to the same directory replays nothing the
     * first one already simulated.  Returns the store so callers can
     * read stats(); check ok() on it if persistence matters.
     */
    std::shared_ptr<DiskResultCache>
    attachDiskCache(const std::string &directory);

    /** Replace the store with a (possibly shared) one, or nullptr.
     *  A store may be shared between sessions with identical
     *  registries. */
    void setDiskCache(std::shared_ptr<DiskResultCache> cache);

    /** The attached result store (nullptr when caching is off). */
    const std::shared_ptr<DiskResultCache> &cache() const
    {
        return cache_;
    }

    /**
     * Run one request end to end: generate the kernel trace for the
     * engine's effective N and simulate it on the core model.
     * The request must name a registered engine (builders guarantee
     * this); unknown names abort via VEGETA_ASSERT.  When
     * @p trace_out is non-null the generated trace is copied into it
     * (for saving to disk) without a second generation pass.
     */
    SimulationResult run(const SimulationRequest &request,
                         cpu::Trace *trace_out = nullptr) const;

    /**
     * Why @p trace cannot replay on the request's engine (a trace
     * generated for a sparse executed-N contains TILE_SPMM ops a
     * dense engine has no datapath for), or nullopt if it can.
     */
    std::optional<std::string>
    replayError(const cpu::Trace &trace,
                const SimulationRequest &request) const;

    /**
     * Replay a pre-recorded trace under a request's engine and core
     * configuration (the kernel variant and GEMM dims of the request
     * are ignored; the result's kernel field reads "replay").  The
     * trace must be replayable (see replayError).
     */
    SimulationResult replay(const cpu::Trace &trace,
                            const SimulationRequest &request) const;

    /**
     * Why an analytical request cannot run (unknown model, engine, or
     * workload name), or nullopt if it is valid.
     */
    std::optional<std::string>
    analyzeError(const AnalyticalRequest &request) const;

    /**
     * Evaluate one registered analytical model.  The request must be
     * valid (see analyzeError); invalid names abort via VEGETA_ASSERT,
     * matching run()'s contract.
     */
    AnalyticalResult analyze(const AnalyticalRequest &request) const;

    /** Why @p job cannot run, or nullopt if it is valid. */
    std::optional<std::string> jobError(const Job &job) const;

    /** Run one job of either kind (must be valid, see jobError). */
    JobResult run(const Job &job) const;

    /**
     * Run every job on a pool of @p threads workers (0 picks the
     * hardware concurrency); `results[i]` corresponds to `jobs[i]`.
     * Three phases: planBatch (with the store probe), runUnits, and
     * commit.  Jobs that repeat within the batch (equal canonical job
     * keys) run once and fan their result out to every duplicate
     * slot.
     *
     * Simulation jobs that miss the store group by the uop stream
     * they replay (padded GEMM, executed N, kernel variant and
     * blocking, CacheConfig): each group is one task that emits and
     * cache-probes its stream once and replays it on a shared-stream
     * LaneReplayer (cpu/lane_replayer.hpp) with one lane per timing
     * class -- the jobs whose lanes are of equal timing
     * (LaneReplayer::sameTiming) -- and fans each lane's result out
     * to every job of its class.
     *
     * Deterministic: the batch output is bit-for-bit identical for
     * any thread count and any grouping (each lane is bit-identical
     * to a single-stream replay), in every result-store state.
     * When @p keys is non-null it receives the plan's jobKeys.
     */
    std::vector<JobResult>
    runBatch(const std::vector<Job> &jobs, u32 threads = 0,
             std::vector<std::string> *keys = nullptr) const;

    /**
     * runBatch's plan phase, for @p threads executors (0 picks the
     * hardware concurrency): dedupe by jobKey; when @p results is
     * non-null (sized like @p jobs), probe the store once for every
     * unique job -- a hit lands in (*results)[i] and needs no unit;
     * group the remaining simulation jobs by uop stream and, within
     * a stream, by timing class; split a group into near-equal
     * chunks of whole classes only while a chunk would exceed an
     * executor's fair share of the total cost; and order the units
     * largest first.  This probe is the store's one read.  A
     * WorkerSet deals the same plan to store-less workers, so a pool
     * runs exactly the units runBatch would.
     */
    BatchPlan
    planBatch(const std::vector<Job> &jobs, u32 threads,
              std::vector<JobResult> *results = nullptr) const;

    /**
     * runBatch's run phase: execute @p plan's units on @p threads
     * threads (0 picks the hardware concurrency), each unit writing
     * results[i] for its jobs.  Touches no store.
     */
    void runUnits(const std::vector<Job> &jobs, const BatchPlan &plan,
                  u32 threads, std::vector<JobResult> &results) const;

    /**
     * runBatch's commit phase, the store's one write: one insert of
     * every miss of @p plan under its jobKey, in batch order, then copy
     * each unique job's result to its duplicates.  The store's
     * record order is therefore a function of the batch alone, never
     * of the executor or its timing.
     */
    void commit(const BatchPlan &plan,
                std::vector<JobResult> &results) const;

    /** Trace-only convenience overload of runBatch. */
    std::vector<SimulationResult>
    runBatch(const std::vector<SimulationRequest> &requests,
             u32 threads = 0) const;

    /**
     * Core-model simulations this session actually performed (store
     * hits and batch dedupe excluded).  A warm persistent store makes
     * a repeated sweep keep this at zero.
     */
    u64 simulationsPerformed() const
    {
        return simulations_.load(std::memory_order_relaxed);
    }

    /**
     * Analytical backends this session actually evaluated (store
     * hits and batch dedupe excluded).
     */
    u64 analysesPerformed() const
    {
        return analyses_.load(std::memory_order_relaxed);
    }

  private:
    static cpu::CoreConfig coreFor(const SimulationRequest &request,
                                   const engine::EngineConfig &engine);

    static SimulationResult
    fromSimResult(const cpu::SimResult &sim,
                  const engine::EngineConfig &engine,
                  const SimulationRequest &request,
                  const char *kernel_label, u32 executed_n,
                  u64 tile_computes);

    SimulationResult measure(const cpu::Trace &trace,
                             const engine::EngineConfig &engine,
                             const SimulationRequest &request,
                             const char *kernel_label,
                             u32 executed_n, u64 tile_computes) const;

    SimulationResult runUncached(const SimulationRequest &request,
                                 cpu::Trace *trace_out) const;

    /** Evaluate an analytical backend (no store). */
    AnalyticalResult evaluate(const AnalyticalRequest &request) const;

    /**
     * A batch of one: probe (skipped when @p trace_out wants the
     * trace, which a hit cannot hand back), run a miss, commit.
     */
    JobResult runOne(const Job &job, cpu::Trace *trace_out) const;

    /** The lane that replays @p request: core after coreFor, and
     *  its registered engine. */
    cpu::LaneReplayer::LaneSpec
    laneSpec(const SimulationRequest &request) const;

    /**
     * Replay the simulation jobs in @p classes (indices into @p jobs,
     * all of one uop stream, each class of one lane timing) as one
     * shared-stream group: the kernel emits the stream once into a
     * LaneReplayer with a lane per class, and each member's result
     * is built from its class's lane with its own request.
     * results[i] is bit-identical to run(jobs[i]).
     */
    void
    runStream(const std::vector<Job> &jobs,
              const std::vector<std::vector<std::size_t>> &classes,
              std::vector<JobResult> &results) const;

    EngineRegistry engines_;
    WorkloadRegistry workloads_;
    AnalyticalRegistry analytics_;
    std::shared_ptr<DiskResultCache> cache_;
    mutable std::atomic<u64> simulations_{0};
    mutable std::atomic<u64> analyses_{0};
};

/**
 * The Figure 13 grid over this session's registries: for each
 * workload x pattern x engine, one no-OF request, plus an OF request
 * for sparse engines (matching the paper's evaluated variants).
 * Row-major in (workload, pattern, engine) order.
 */
std::vector<SimulationRequest>
figure13Grid(const Session &session,
             const std::vector<std::string> &workload_names,
             const std::vector<std::string> &engine_names,
             const std::vector<u32> &patterns = {4, 2, 1});

/**
 * Geometric-mean speed-up of `engine_name` (with optional OF) over
 * `baseline_name` across the named workloads at one layer pattern --
 * the abstract's 1.09x / 2.20x / 3.74x numbers when the baseline is
 * the RASA-DM dense engine.  Both sides of every ratio run through
 * one (parallel, deduplicated) session batch.
 */
double geomeanSpeedup(const Session &session,
                      const std::vector<std::string> &workload_names,
                      u32 layer_n, const std::string &engine_name,
                      bool output_forwarding,
                      const std::string &baseline_name =
                          "VEGETA-D-1-2",
                      u32 threads = 0);

} // namespace vegeta::sim

#endif // VEGETA_SIM_SESSION_HPP
