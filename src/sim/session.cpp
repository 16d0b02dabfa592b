#include "sim/session.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "cpu/lane_replayer.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

namespace {

/** The kernel options Session hands the generator for @p request. */
kernels::KernelOptions
kernelOptions(const SimulationRequest &request)
{
    kernels::KernelOptions opts;
    opts.optimized = request.kernel == KernelVariant::Optimized;
    opts.cBlocking = request.cBlocking;
    opts.traceOnly = true;
    return opts;
}

/**
 * What makes two simulation jobs replay one uop stream: the padded
 * GEMM the generator tiles, the executed N, the kernel variant and
 * blocking, and the L1 the shared probe strip runs on.  Every other
 * core and engine field (output forwarding included) is lane timing
 * state.
 */
using StreamKey = std::array<u64, 11>;

StreamKey
streamKey(const SimulationRequest &request, u32 executed_n)
{
    const kernels::GemmDims padded =
        kernels::padProblem(request.gemm, executed_n);
    const cpu::CacheConfig &cache = request.core.cache;
    return {padded.m,
            padded.n,
            padded.k,
            executed_n,
            request.kernel == KernelVariant::Optimized,
            request.cBlocking,
            cache.lineBytes,
            cache.l1Sets,
            cache.l1Ways,
            cache.l1Latency,
            cache.l2Latency};
}

/** Padded tile count of a stream: its replay cost per lane. */
u64
streamTiles(const StreamKey &key)
{
    const u64 tk = kernels::kTileForN(static_cast<u32>(key[3]));
    return (key[0] / 16) * (key[1] / 16) * (key[2] / tk);
}

/** The cache misses of one stream, partitioned by lane timing. */
struct StreamGroup
{
    u64 tiles = 0; ///< padded tile count: replay cost per lane
    /** Each class's first job's lane, in order of appearance. */
    std::vector<cpu::LaneReplayer::LaneSpec> leads;
    std::vector<std::vector<std::size_t>> classes;
};

/** @p threads, or the hardware concurrency when it is 0. */
u32
resolveThreads(u32 threads)
{
    if (threads != 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<u32>(hw);
}

/** One store probe's outcome: session.cache.hit or .miss. */
void
countProbe(bool hit)
{
    static const telemetry::MetricId hit_id =
        telemetry::counterId("session.cache.hit");
    static const telemetry::MetricId miss_id =
        telemetry::counterId("session.cache.miss");
    telemetry::add(hit ? hit_id : miss_id, 1);
}

} // namespace

Session::Session()
    : Session(EngineRegistry::builtin(), WorkloadRegistry::builtin())
{
}

Session::Session(EngineRegistry engines, WorkloadRegistry workloads)
    : Session(std::move(engines), std::move(workloads),
              AnalyticalRegistry::builtin())
{
}

Session::Session(EngineRegistry engines, WorkloadRegistry workloads,
                 AnalyticalRegistry analytics)
    : engines_(std::move(engines)), workloads_(std::move(workloads)),
      analytics_(std::move(analytics))
{
}

JobBuilder
Session::job() const
{
    return JobBuilder(engines_, workloads_, analytics_);
}

std::shared_ptr<DiskResultCache>
Session::enableCache()
{
    if (!cache_)
        cache_ = std::make_shared<DiskResultCache>();
    return cache_;
}

std::shared_ptr<DiskResultCache>
Session::attachDiskCache(const std::string &directory)
{
    cache_ = std::make_shared<DiskResultCache>(directory);
    return cache_;
}

void
Session::setDiskCache(std::shared_ptr<DiskResultCache> cache)
{
    cache_ = std::move(cache);
}

SimulationResult
Session::run(const SimulationRequest &request,
             cpu::Trace *trace_out) const
{
    return runOne(Job::simulate(request), trace_out).simulation;
}

JobResult
Session::runOne(const Job &job, cpu::Trace *trace_out) const
{
    std::vector<JobResult> results(1);
    auto compute = [&]() {
        results[0].kind = job.kind;
        if (job.kind == JobKind::Analysis)
            results[0].analysis = evaluate(job.analysis);
        else
            results[0].simulation =
                runUncached(job.simulation, trace_out);
    };
    if (!cache_) {
        telemetry::Span span("session.job");
        compute();
        return std::move(results[0]);
    }
    // Callers wanting the generated trace always pay the generation
    // pass -- a store hit has no trace to hand back -- but their
    // result still warms the store for later trace-less runs.
    const std::vector<Job> jobs{job};
    const BatchPlan plan =
        planBatch(jobs, 1, trace_out ? nullptr : &results);
    if (!plan.misses.empty())
        compute();
    commit(plan, results);
    return std::move(results[0]);
}

SimulationResult
Session::runUncached(const SimulationRequest &request,
                     cpu::Trace *trace_out) const
{
    const auto engine = engines_.find(request.engine);
    VEGETA_ASSERT(engine.has_value(), "unregistered engine ",
                  request.engine);
    simulations_.fetch_add(1, std::memory_order_relaxed);
    static const telemetry::MetricId sims_id =
        telemetry::counterId("session.simulations");
    telemetry::add(sims_id, 1);

    const u32 executed_n = engine->effectiveN(request.patternN);
    const kernels::KernelOptions opts = kernelOptions(request);

    if (trace_out) {
        // The caller wants the trace itself (to save or replay), so
        // this path has to materialize it anyway -- but only once:
        // move it out instead of copying a potentially huge vector.
        kernels::KernelRun kernel_run =
            kernels::runSpmmKernel(request.gemm, executed_n, opts);
        *trace_out = std::move(kernel_run.trace);
        return measure(*trace_out, *engine, request,
                       kernelVariantName(request.kernel), executed_n,
                       kernel_run.tileComputes);
    }

    // Streaming replay: the kernel generator emits uops straight into
    // the scheduler, so peak memory is independent of trace length.
    cpu::TraceCpu cpu_model(coreFor(request, *engine), *engine);
    const kernels::KernelStats stats =
        kernels::streamSpmmKernel(request.gemm, executed_n, opts,
                                  cpu_model);
    return fromSimResult(cpu_model.finish(), *engine, request,
                         kernelVariantName(request.kernel), executed_n,
                         stats.tileComputes);
}

std::optional<std::string>
Session::replayError(const cpu::Trace &trace,
                     const SimulationRequest &request) const
{
    const auto engine = engines_.find(request.engine);
    if (!engine)
        return "unregistered engine: " + request.engine;
    for (const auto &op : trace) {
        if (op.kind == cpu::UopKind::TileCompute &&
            !engine->supportsOpcode(op.tile.op))
            return engine->name + " cannot execute " +
                   std::string(isa::opcodeName(op.tile.op));
    }
    return std::nullopt;
}

SimulationResult
Session::replay(const cpu::Trace &trace,
                const SimulationRequest &request) const
{
    const auto engine = engines_.find(request.engine);
    VEGETA_ASSERT(engine.has_value(), "unregistered engine ",
                  request.engine);
    simulations_.fetch_add(1, std::memory_order_relaxed);
    return measure(trace, *engine, request, "replay",
                   engine->effectiveN(request.patternN),
                   /*tile_computes=*/0);
}

std::optional<std::string>
Session::analyzeError(const AnalyticalRequest &request) const
{
    if (!analytics_.contains(request.model))
        return "unknown analytical model: " + request.model;
    for (const auto &name : request.engines)
        if (!engines_.contains(name))
            return "unknown engine: " + name;
    for (const auto &name : request.workloads)
        if (!workloads_.contains(name))
            return "unknown workload: " + name;
    return std::nullopt;
}

AnalyticalResult
Session::analyze(const AnalyticalRequest &request) const
{
    return runOne(Job::analyze(request), nullptr).analysis;
}

AnalyticalResult
Session::evaluate(const AnalyticalRequest &request) const
{
    const auto error = analyzeError(request);
    VEGETA_ASSERT(!error.has_value(), "bad analytical request: ",
                  error.value_or(""));
    static const telemetry::MetricId analyses_id =
        telemetry::counterId("session.analyses");
    analyses_.fetch_add(1, std::memory_order_relaxed);
    telemetry::add(analyses_id, 1);
    return (*analytics_.find(request.model))(*this, request);
}

std::optional<std::string>
Session::jobError(const Job &job) const
{
    if (job.kind == JobKind::Analysis)
        return analyzeError(job.analysis);
    if (!engines_.contains(job.simulation.engine))
        return "unknown engine: " + job.simulation.engine;
    if (job.simulation.gemm.m == 0 || job.simulation.gemm.n == 0 ||
        job.simulation.gemm.k == 0)
        return std::string("GEMM dimensions must be non-zero");
    return std::nullopt;
}

JobResult
Session::run(const Job &job) const
{
    return runOne(job, nullptr);
}

cpu::LaneReplayer::LaneSpec
Session::laneSpec(const SimulationRequest &request) const
{
    const auto engine = engines_.find(request.engine);
    VEGETA_ASSERT(engine.has_value(), "unregistered engine ",
                  request.engine);
    return {coreFor(request, *engine), *engine};
}

void
Session::runStream(const std::vector<Job> &jobs,
                   const std::vector<std::vector<std::size_t>> &classes,
                   std::vector<JobResult> &results) const
{
    // Per group only, never per uop.
    static const telemetry::MetricId groups_id =
        telemetry::counterId("session.stream.groups");
    static const telemetry::MetricId lanes_id =
        telemetry::counterId("session.stream.lanes");
    static const telemetry::MetricId replays_id =
        telemetry::counterId("session.stream.replays");
    static const telemetry::MetricId sims_id =
        telemetry::counterId("session.simulations");
    std::size_t members = 0;
    for (const auto &timing_class : classes)
        members += timing_class.size();
    telemetry::Span span("session.stream", members);
    telemetry::add(groups_id, 1);
    telemetry::add(lanes_id, members);
    telemetry::add(replays_id, classes.size());

    // One lane per timing class, configured by its first member.
    std::vector<cpu::LaneReplayer::LaneSpec> specs;
    specs.reserve(classes.size());
    for (const auto &timing_class : classes)
        specs.push_back(
            laneSpec(jobs[timing_class.front()].simulation));

    // Every job shares the stream key, so the lead's GEMM, executed
    // N and kernel options generate every lane's uop stream.
    const SimulationRequest &lead =
        jobs[classes.front().front()].simulation;
    const u32 executed_n = specs.front().engine.effectiveN(
        lead.patternN);
    cpu::LaneReplayer replayer(specs);
    const kernels::KernelStats stats = kernels::streamSpmmKernel(
        lead.gemm, executed_n, kernelOptions(lead), replayer.sink());
    const u32 issued = replayer.tileOpcodes();
    const std::vector<cpu::SimResult> sims = replayer.finish();

    simulations_.fetch_add(members, std::memory_order_relaxed);
    telemetry::add(sims_id, members);
    for (std::size_t c = 0; c < classes.size(); ++c) {
        for (const std::size_t i : classes[c]) {
            const SimulationRequest &request = jobs[i].simulation;
            const auto engine = engines_.find(request.engine);
            // Only the class lead's own pipeline checked the opcodes
            // it executed; every member must be able to run them.
            for (u32 ops = issued; ops != 0; ops &= ops - 1) {
                const auto op =
                    static_cast<isa::Opcode>(std::countr_zero(ops));
                VEGETA_ASSERT(engine->supportsOpcode(op), engine->name,
                              " cannot execute ", isa::opcodeName(op));
            }
            results[i].kind = JobKind::Simulation;
            results[i].simulation = fromSimResult(
                sims[c], *engine, request,
                kernelVariantName(request.kernel), executed_n,
                stats.tileComputes);
        }
    }
}

BatchPlan
Session::planBatch(const std::vector<Job> &jobs, u32 threads,
                   std::vector<JobResult> *results) const
{
    telemetry::Span plan_span("session.batch.plan", jobs.size());
    threads = resolveThreads(threads);
    BatchPlan plan;
    plan.keys.resize(jobs.size());
    plan.source.resize(jobs.size());

    // Dedupe: jobs with equal canonical keys are guaranteed to
    // produce bit-identical results, so only the first occurrence
    // runs and duplicates copy its slot afterwards.
    {
        std::unordered_map<std::string_view, std::size_t> first;
        first.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            plan.keys[i] = jobKey(jobs[i]);
            const auto [it, inserted] = first.emplace(plan.keys[i], i);
            plan.source[i] = it->second;
            if (inserted)
                plan.unique.push_back(i);
        }
    }

    // Every unique job probes the store here (one "session.job" span
    // each, so a trace's span count equals the batch's unique job
    // count).  A missed analysis runs alone; missed simulations group
    // by the uop stream they replay.
    std::map<StreamKey, std::size_t> group_of;
    std::vector<StreamGroup> groups;
    for (const std::size_t i : plan.unique) {
        if (results) {
            telemetry::Span span("session.job");
            if (cache_) {
                auto hit = cache_->find(plan.keys[i]);
                countProbe(hit.has_value());
                if (hit) {
                    (*results)[i] = std::move(*hit);
                    continue;
                }
            }
        }
        plan.misses.push_back(i);
        if (jobs[i].kind == JobKind::Analysis) {
            plan.units.push_back({{{i}}, 0, true});
            continue;
        }
        const SimulationRequest &request = jobs[i].simulation;
        cpu::LaneReplayer::LaneSpec spec = laneSpec(request);
        const StreamKey stream = streamKey(
            request, spec.engine.effectiveN(request.patternN));
        const auto [it, inserted] =
            group_of.emplace(stream, groups.size());
        if (inserted)
            groups.push_back({streamTiles(stream), {}, {}});
        // Within the stream, jobs of one lane timing share a class:
        // one lane replays it for all of them.
        StreamGroup &group = groups[it->second];
        std::size_t c = 0;
        while (c < group.leads.size() &&
               !cpu::LaneReplayer::sameTiming(group.leads[c], spec))
            ++c;
        if (c == group.leads.size()) {
            group.leads.push_back(std::move(spec));
            group.classes.emplace_back();
        }
        group.classes[c].push_back(i);
    }

    // A group costs one emission and cache probe plus one timing
    // replay per class, each proportional to the stream's padded
    // tile count.  A group splits into near-equal chunks of whole
    // classes (at most one per executor) only while a chunk would
    // exceed an executor's fair share of the batch, so grouping never
    // costs parallelism.
    u64 total = 0;
    for (const StreamGroup &group : groups)
        total += group.tiles * (1 + group.classes.size());
    const u64 share = total / threads;
    for (StreamGroup &group : groups) {
        const std::size_t n = group.classes.size();
        const std::size_t max_parts = std::min<std::size_t>(n, threads);
        std::size_t parts = 1;
        while (parts < max_parts &&
               group.tiles * (1 + (n + parts - 1) / parts) > share)
            ++parts;
        for (std::size_t p = 0; p < parts; ++p) {
            PlanUnit chunk;
            chunk.classes.assign(
                std::make_move_iterator(
                    group.classes.begin() +
                    static_cast<std::ptrdiff_t>(n * p / parts)),
                std::make_move_iterator(
                    group.classes.begin() +
                    static_cast<std::ptrdiff_t>(n * (p + 1) / parts)));
            chunk.cost = group.tiles * (1 + chunk.classes.size());
            plan.units.push_back(std::move(chunk));
        }
    }
    // Largest first (analysis jobs keep the front in batch order):
    // the long streams start while short ones fill in behind them.
    std::stable_sort(plan.units.begin(), plan.units.end(),
                     [](const PlanUnit &a, const PlanUnit &b) {
                         if (a.analysis != b.analysis)
                             return a.analysis;
                         return a.cost > b.cost;
                     });
    return plan;
}

std::vector<JobResult>
Session::runBatch(const std::vector<Job> &jobs, u32 threads,
                  std::vector<std::string> *keys) const
{
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty())
        return results;

    static const telemetry::MetricId batches_id =
        telemetry::counterId("session.batches");
    static const telemetry::MetricId jobs_id =
        telemetry::counterId("session.batch.jobs");
    static const telemetry::MetricId unique_id =
        telemetry::counterId("session.batch.unique");
    static const telemetry::MetricId batch_timer =
        telemetry::timerId("session.batch");
    telemetry::add(batches_id, 1);
    telemetry::add(jobs_id, jobs.size());
    telemetry::ScopedTimer batch_scope(batch_timer);

    threads = resolveThreads(threads);
    // The output is identical to running every job on its own -- for
    // any thread count and plan, store on or off.
    BatchPlan plan = planBatch(jobs, threads, &results);
    telemetry::add(unique_id, plan.unique.size());
    runUnits(jobs, plan, threads, results);
    commit(plan, results);
    if (keys)
        *keys = std::move(plan.keys);
    return results;
}

void
Session::runUnits(const std::vector<Job> &jobs, const BatchPlan &plan,
                  u32 threads, std::vector<JobResult> &results) const
{
    auto runUnit = [&](const PlanUnit &unit) {
        if (!unit.analysis) {
            runStream(jobs, unit.classes, results);
            return;
        }
        const std::size_t i = unit.classes[0][0];
        results[i].kind = JobKind::Analysis;
        results[i].analysis = evaluate(jobs[i].analysis);
    };

    const std::vector<PlanUnit> &units = plan.units;
    const u32 workers = std::min<u32>(resolveThreads(threads),
                                      static_cast<u32>(units.size()));
    if (workers <= 1) {
        for (const PlanUnit &unit : units)
            runUnit(unit);
        return;
    }
    // Work-stealing by atomic index: each worker claims the next
    // unclaimed unit and writes into its slots, so the result vector
    // is independent of scheduling.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t u =
                next.fetch_add(1, std::memory_order_relaxed);
            if (u >= units.size())
                return;
            runUnit(units[u]);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (u32 t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto &thread : pool)
        thread.join();
}

void
Session::commit(const BatchPlan &plan,
                std::vector<JobResult> &results) const
{
    if (cache_) {
        telemetry::Span span("session.batch.commit",
                             plan.misses.size());
        JobRecords records;
        records.reserve(plan.misses.size());
        for (const std::size_t i : plan.misses)
            records.emplace_back(plan.keys[i], results[i]);
        cache_->insert(std::move(records));
    }
    for (std::size_t i = 0; i < results.size(); ++i)
        if (plan.source[i] != i)
            results[i] = results[plan.source[i]];
}

std::vector<SimulationResult>
Session::runBatch(const std::vector<SimulationRequest> &requests,
                  u32 threads) const
{
    std::vector<Job> jobs;
    jobs.reserve(requests.size());
    for (const auto &request : requests)
        jobs.push_back(Job::simulate(request));
    auto job_results = runBatch(jobs, threads);
    std::vector<SimulationResult> results;
    results.reserve(job_results.size());
    for (auto &r : job_results)
        results.push_back(std::move(r.simulation));
    return results;
}

cpu::CoreConfig
Session::coreFor(const SimulationRequest &request,
                 const engine::EngineConfig &engine)
{
    cpu::CoreConfig core = request.core;
    core.outputForwarding = request.outputForwarding && engine.sparse;
    return core;
}

SimulationResult
Session::measure(const cpu::Trace &trace,
                 const engine::EngineConfig &engine,
                 const SimulationRequest &request,
                 const char *kernel_label, u32 executed_n,
                 u64 tile_computes) const
{
    cpu::TraceCpu cpu_model(coreFor(request, engine), engine);
    return fromSimResult(cpu_model.run(trace), engine, request,
                         kernel_label, executed_n, tile_computes);
}

SimulationResult
Session::fromSimResult(const cpu::SimResult &sim,
                       const engine::EngineConfig &engine,
                       const SimulationRequest &request,
                       const char *kernel_label, u32 executed_n,
                       u64 tile_computes)
{
    SimulationResult result;
    result.workload = request.label;
    result.engine = engine.name;
    result.layerN = request.patternN;
    result.executedN = executed_n;
    result.outputForwarding =
        request.outputForwarding && engine.sparse;
    result.kernel = kernel_label;
    result.coreCycles = sim.totalCycles;
    result.instructions = sim.retiredOps;
    result.engineInstructions = sim.engineInstructions;
    result.tileComputes = tile_computes;
    result.macUtilization = sim.macUtilization;
    result.cacheHits = sim.cacheHits;
    result.cacheMisses = sim.cacheMisses;
    return result;
}

std::vector<SimulationRequest>
figure13Grid(const Session &session,
             const std::vector<std::string> &workload_names,
             const std::vector<std::string> &engine_names,
             const std::vector<u32> &patterns)
{
    std::vector<SimulationRequest> grid;
    for (const auto &workload : workload_names) {
        for (const u32 pattern : patterns) {
            for (const auto &engine : engine_names) {
                const auto config = session.engines().find(engine);
                VEGETA_ASSERT(config.has_value(),
                              "unregistered engine ", engine);
                auto base = session.job()
                                .workload(workload)
                                .engine(engine)
                                .pattern(pattern);
                auto no_of = base;
                const auto job = no_of.outputForwarding(false).build();
                VEGETA_ASSERT(job.has_value(), "bad grid request: ",
                              no_of.error());
                grid.push_back(job->simulation);
                if (config->sparse) {
                    const auto of_job =
                        base.outputForwarding(true).build();
                    VEGETA_ASSERT(of_job.has_value(),
                                  "bad grid request: ", base.error());
                    grid.push_back(of_job->simulation);
                }
            }
        }
    }
    return grid;
}

double
geomeanSpeedup(const Session &session,
               const std::vector<std::string> &workload_names,
               u32 layer_n, const std::string &engine_name,
               bool output_forwarding,
               const std::string &baseline_name, u32 threads)
{
    VEGETA_ASSERT(!workload_names.empty(),
                  "geomeanSpeedup over no workloads");

    // Baseline requests first, then the engine under test, so
    // results[i] / results[i + n] pair up per workload.
    std::vector<SimulationRequest> requests;
    requests.reserve(workload_names.size() * 2);
    for (const bool test : {false, true}) {
        for (const auto &workload : workload_names) {
            auto builder =
                session.job()
                    .workload(workload)
                    .engine(test ? engine_name : baseline_name)
                    .pattern(layer_n)
                    .outputForwarding(test && output_forwarding);
            const auto job = builder.build();
            VEGETA_ASSERT(job.has_value(), "bad speedup request: ",
                          builder.error());
            requests.push_back(job->simulation);
        }
    }

    const auto results = session.runBatch(requests, threads);
    const std::size_t n = workload_names.size();
    std::vector<double> speedups;
    speedups.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        VEGETA_ASSERT(results[i + n].coreCycles > 0,
                      "zero-cycle simulation");
        speedups.push_back(
            static_cast<double>(results[i].coreCycles) /
            static_cast<double>(results[i + n].coreCycles));
    }
    return geomean(speedups);
}

} // namespace vegeta::sim
