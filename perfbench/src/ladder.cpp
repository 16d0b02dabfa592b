/**
 * @file
 * The per-layer ladder of a traced run: each rung times calls into one
 * module's public functions on the workload's own inputs, under a
 * span named after the layer, and checks what the call returned.
 *
 * Rungs, in order: sim.session (1- and N-thread runBatch), kernels
 * (streaming emission into a counting sink), cpu (TraceCpu replay of
 * materialized traces), sim.cache / sim.disk_cache (the grid through
 * both caches, then all-hit), sim.job_io / sim.wire (the batch and
 * worker-output codecs and frames of the 16-job client batches),
 * sim.analytical (the grid's prefilter twins), sim.server / sim.client
 * (a 2-worker service fed by 2 clients) and sim.pool (cold and
 * all-hit ProcessPool runs).
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "cpu/trace_cpu.hpp"
#include "cpu/trace_sink.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/client.hpp"
#include "sim/job_io.hpp"
#include "sim/pool.hpp"
#include "sim/server.hpp"
#include "sim/telemetry.hpp"
#include "sim/wire.hpp"

namespace perfbench {

using namespace vegeta;
namespace tm = vegeta::telemetry;

namespace {

/** Counts the uops a kernel emits and nothing else. */
class CountingSink final : public cpu::TraceSink
{
  public:
    void emit(const cpu::TraceOp &) override { ++uops; }
    u64 uops = 0;
};

/** Longest "session.job" span recorded between two nowNs() stamps,
 *  read back from the Chrome trace, in seconds. */
double
longestJobSpanS(u64 from_ns, u64 to_ns)
{
    std::ostringstream os;
    tm::writeTraceJson(os);
    std::istringstream lines(os.str());
    double longest_us = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.find("\"name\": \"session.job\"") == std::string::npos)
            continue;
        const auto ts = line.find("\"ts\": ");
        const auto dur = line.find("\"dur\": ");
        if (ts == std::string::npos || dur == std::string::npos)
            continue;
        const double start_us = std::atof(line.c_str() + ts + 6);
        if (start_us * 1e3 < double(from_ns) ||
            start_us * 1e3 > double(to_ns))
            continue;
        longest_us =
            std::max(longest_us, std::atof(line.c_str() + dur + 7));
    }
    return longest_us / 1e6;
}

/** The p50 of one latency section of the service's stats JSON, or
 *  -1 when the document lacks it. */
double
statsNumber(const std::string &doc, const std::string &section)
{
    const auto at = doc.find("\"" + section + "\": {\"p50\": ");
    if (at == std::string::npos)
        return -1.0;
    return std::atof(doc.c_str() + at + section.size() + 12);
}

struct KernelSetup
{
    engine::EngineConfig engine;
    u32 executedN = 4;
    kernels::KernelOptions options;
    cpu::CoreConfig core;
};

/** What Session::run hands the kernel generator and the core model
 *  for a simulation job. */
KernelSetup
kernelSetup(const Session &session, const Job &job)
{
    const sim::SimulationRequest &r = job.simulation;
    KernelSetup k;
    k.engine = *session.engines().find(r.engine);
    k.executedN = k.engine.effectiveN(r.patternN);
    k.options.optimized = r.kernel == sim::KernelVariant::Optimized;
    k.options.cBlocking = r.cBlocking;
    k.options.traceOnly = true;
    k.core = r.core;
    k.core.outputForwarding = r.outputForwarding && k.engine.sparse;
    return k;
}

std::size_t
jobCount(const std::vector<std::vector<Job>> &batches)
{
    std::size_t n = 0;
    for (const auto &b : batches)
        n += b.size();
    return n;
}

/** Times of the reference batch, shared by later rungs. */
struct SessionRung
{
    std::vector<JobResult> reference; ///< 1-thread results
    double batch1tS = 0;
};

SessionRung
sessionRung(const Session &plain, const std::vector<Job> &replay,
            const EndToEnd &e2e, Report &report)
{
    const u32 threads = benchThreads();
    SessionRung out;
    const u64 span0 = tm::nowNs();
    double t0 = nowS();
    {
        tm::Span span("bench.session", replay.size());
        out.reference = plain.runBatch(replay, 1);
    }
    out.batch1tS = nowS() - t0;
    const double longest_s = longestJobSpanS(span0, tm::nowNs());
    t0 = nowS();
    std::vector<JobResult> threaded;
    {
        tm::Span span("bench.session", replay.size());
        threaded = Session().runBatch(replay, threads);
    }
    const double batch_nt_s = nowS() - t0;
    report.check(resultBytes(threaded) == resultBytes(out.reference),
                 replay.size(), "N-thread batch differs from 1-thread");
    report.add("session.batch_1t_s", out.batch1tS, "s");
    report.add("session.longest_job_s", longest_s, "s");
    report.add("session.parallel_efficiency",
               out.batch1tS / (threads * batch_nt_s), "ratio");
    report.add("session.cpu_s_per_job", e2e.cpuS / double(e2e.jobs),
               "s");
    return out;
}

/** kernels and cpu: emission and replay of every replayed job, timed
 *  apart.  Returns emit_s + replay_s. */
double
kernelAndCpuRungs(const Session &plain, const std::vector<Job> &replay,
                  const std::vector<JobResult> &reference,
                  Report &report)
{
    double emit_s = 0, replay_s = 0;
    u64 uops = 0;
    bool emit_ok = true, replay_ok = true;
    for (std::size_t i = 0; i < replay.size(); ++i) {
        const KernelSetup k = kernelSetup(plain, replay[i]);
        const auto &gemm = replay[i].simulation.gemm;
        const auto &want = reference[i].simulation;
        CountingSink counter;
        double t0 = nowS();
        {
            tm::Span span("bench.kernels");
            kernels::streamSpmmKernel(gemm, k.executedN, k.options,
                                      counter);
        }
        emit_s += nowS() - t0;
        uops += counter.uops;
        emit_ok &= counter.uops == want.instructions;

        cpu::TraceCollector collector;
        kernels::streamSpmmKernel(gemm, k.executedN, k.options,
                                  collector);
        cpu::TraceCpu core(k.core, k.engine);
        t0 = nowS();
        cpu::SimResult sim;
        {
            tm::Span span("bench.cpu", collector.trace().size());
            sim = core.run(collector.trace());
        }
        replay_s += nowS() - t0;
        replay_ok &= sim.totalCycles == want.coreCycles &&
                     sim.retiredOps == want.instructions;
    }
    report.check(emit_ok, replay.size(), "emitted uop counts");
    report.check(replay_ok, replay.size(), "replayed cycles");
    report.add("kernels.emit_s", emit_s, "s");
    report.add("kernels.uops", double(uops), "count");
    report.add("cpu.replay_s", replay_s, "s");
    report.add("cpu.replay_uops_per_s", double(uops) / replay_s,
               "1/s");
    return emit_s + replay_s;
}

/**
 * sim.cache and sim.disk_cache: the grid once into an empty cache
 * directory, then all-hit on fresh sessions reopening the now warm
 * directory.  Returns that directory.
 */
std::string
cacheRung(const LadderInput &in, const EndToEnd &e2e, Report &report)
{
    const std::string dir = freshDir("ladder-cache");
    const std::vector<Job> &jobs = in.replayJobs;
    std::string first_pass;
    {
        Session session;
        session.enableCache();
        const auto disk = session.attachDiskCache(dir);
        {
            tm::Span span("bench.cache", jobs.size());
            first_pass =
                resultBytes(session.runBatch(jobs, benchThreads()));
        }
        const auto stats = disk->stats();
        report.add("disk_cache.hit_ratio", stats.hitRate(), "ratio");
        report.add("disk_cache.insertions", double(stats.insertions),
                   "count");
    }
    std::vector<double> open_s, hit_s;
    for (int rep = 0; rep < 5; ++rep) {
        double t0 = nowS();
        std::shared_ptr<sim::DiskResultCache> disk;
        {
            tm::Span span("bench.disk_cache");
            disk = std::make_shared<sim::DiskResultCache>(dir);
        }
        open_s.push_back(nowS() - t0);
        report.check(disk->ok(), 1, "reopen the warm cache");
        Session session;
        session.enableCache();
        session.setDiskCache(disk);
        t0 = nowS();
        std::vector<JobResult> results;
        {
            tm::Span span("bench.cache", jobs.size());
            results = session.runBatch(jobs, benchThreads());
        }
        hit_s.push_back(nowS() - t0);
        report.check(resultBytes(results) == first_pass &&
                         session.simulationsPerformed() == 0 &&
                         session.analysesPerformed() == 0,
                     jobs.size(), "all-hit pass");
    }
    report.add("disk_cache.open_s", median(open_s), "s");
    report.add("cache.hit_s_per_job",
               median(hit_s) / double(jobs.size()), "s");
    report.add("cache.repeat_ratio", e2e.repeatRatio, "ratio");
    return dir;
}

/**
 * sim.job_io and sim.wire: one encode and one decode of each client
 * batch and of its results (the unique-key output a worker ships
 * back), repeated for at least 0.2 s.
 */
void
codecRung(const std::vector<std::vector<Job>> &batches,
          const std::string &warm_dir, Report &report)
{
    std::vector<sim::WorkerOutput> outputs;
    Session warm;
    warm.enableCache();
    warm.attachDiskCache(warm_dir);
    for (const auto &batch : batches) {
        const auto results = warm.runBatch(batch, 1);
        std::map<std::string, std::size_t> unique;
        for (std::size_t i = 0; i < batch.size(); ++i)
            unique.emplace(sim::jobKey(batch[i]), i);
        sim::WorkerOutput output;
        for (const auto &[key, index] : unique)
            output.results.emplace_back(key, results[index]);
        outputs.push_back(std::move(output));
    }
    double encode_s = 0, decode_s = 0, wire_bytes = 0;
    std::size_t codec_jobs = 0;
    bool codec_ok = true;
    const double start = nowS();
    for (int rep = 0; rep == 0 || nowS() - start < 0.2; ++rep) {
        for (std::size_t b = 0; b < batches.size(); ++b) {
            const auto &batch = batches[b];
            std::string jobs_text, out_text;
            const double t0 = nowS();
            {
                tm::Span span("bench.job_io", batch.size());
                jobs_text = sim::encodeJobBatch(batch);
                out_text = sim::encodeWorkerOutput(outputs[b]);
            }
            const double t1 = nowS();
            std::string error;
            std::optional<std::vector<Job>> jobs;
            std::optional<sim::WorkerOutput> out;
            {
                tm::Span span("bench.job_io", batch.size());
                jobs = sim::decodeJobBatch(jobs_text, &error);
                out = sim::decodeWorkerOutput(out_text, &error);
            }
            decode_s += nowS() - t1;
            encode_s += t1 - t0;
            codec_jobs += batch.size();
            if (rep > 0)
                continue;
            codec_ok &= jobs && out &&
                        sim::encodeJobBatch(*jobs) == jobs_text &&
                        sim::encodeWorkerOutput(*out) == out_text;
            tm::Span span("bench.wire", batch.size());
            using sim::wire::FrameType;
            wire_bytes += double(
                sim::wire::encodeFrame(FrameType::Batch, jobs_text)
                    .size() +
                sim::wire::encodeFrame(FrameType::Results, out_text)
                    .size());
        }
    }
    report.check(codec_ok, jobCount(batches), "codec round trip");
    report.add("job_io.encode_s_per_job", encode_s / double(codec_jobs),
               "s");
    report.add("job_io.decode_s_per_job", decode_s / double(codec_jobs),
               "s");
    report.add("wire.bytes_per_job",
               wire_bytes / double(jobCount(batches)), "bytes");
}

void
analyticalRung(const std::vector<Job> &analyses, Report &report)
{
    const Session session;
    double analyze_s = 0;
    std::size_t count = 0;
    bool rows_ok = true;
    const double start = nowS();
    for (int rep = 0; rep == 0 || nowS() - start < 0.1; ++rep) {
        for (const auto &job : analyses) {
            const double t0 = nowS();
            tm::Span span("bench.analytical");
            rows_ok &= !session.analyze(job.analysis).rows.empty();
            analyze_s += nowS() - t0;
            ++count;
        }
    }
    report.check(rows_ok, analyses.size(), "analytical rows");
    report.add("analytical.s_per_job",
               analyze_s / double(std::max<std::size_t>(1, count)),
               "s");
}

/**
 * sim.server and sim.client: a 2-worker service fed by 2 closed-loop
 * clients, and an in-process twin; both start from the warm cache in
 * @p start_state and see the same batches in the same order (at least
 * 256 of them).  Every service batch must equal the twin's.
 */
void
serverRung(const std::vector<std::vector<Job>> &batches,
           const std::string &start_state, Report &report)
{
    const std::string server_dir =
        copyCacheDir(start_state, "server-cache");
    std::vector<double> start_s;
    std::unique_ptr<sim::SimServer> server;
    for (int rep = 0; rep < 3; ++rep) {
        if (server)
            server->stop();
        sim::ServerOptions options;
        options.socketPath = "ladder" + std::to_string(rep) + ".sock";
        options.serviceWorkers = kWorkers;
        options.threads = 1;
        options.cacheDir = server_dir;
        server = std::make_unique<sim::SimServer>(options);
        std::string error;
        const double t0 = nowS();
        bool started = false;
        {
            tm::Span span("bench.server");
            started = server->start(&error);
        }
        start_s.push_back(nowS() - t0);
        report.check(started, 1, "ladder server start: " + error);
    }
    report.add("server.start_s", median(start_s), "s");

    std::vector<std::unique_ptr<sim::SimClient>> clients;
    for (u32 c = 0; c < kClients; ++c) {
        sim::ClientOptions options;
        options.address = server->address();
        options.requestTimeoutMs = 60'000;
        clients.push_back(std::make_unique<sim::SimClient>(options));
        std::string error;
        report.check(clients.back()->connect(&error), 1,
                     "ladder client connect: " + error);
    }
    std::vector<std::vector<Job>> sequence;
    while (sequence.size() < 256)
        sequence.insert(sequence.end(), batches.begin(), batches.end());
    std::vector<double> client_ms(sequence.size());
    std::vector<std::optional<sim::ClientRun>> remote(sequence.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        threads.emplace_back([&, c]() {
            for (std::size_t b = c; b < sequence.size();
                 b += clients.size()) {
                std::string error;
                const double s = nowS();
                tm::Span span("bench.client", sequence[b].size());
                remote[b] = clients[c]->runBatch(sequence[b], &error);
                client_ms[b] = (nowS() - s) * 1e3;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    std::string error;
    const std::string doc = clients[0]->fetchStats(&error).value_or("");
    const double wait_ms = statsNumber(doc, "queue_wait");
    const double dispatch_ms = statsNumber(doc, "dispatch");
    report.check(wait_ms >= 0 && dispatch_ms >= 0, 1,
                 "stats frame latencies: " + error);
    report.add("server.queue_wait_p50_ms", wait_ms, "ms");
    report.add("server.dispatch_p50_ms", dispatch_ms, "ms");
    for (auto &client : clients)
        client->close();
    server->stop();

    Session twin;
    twin.enableCache();
    twin.attachDiskCache(copyCacheDir(start_state, "twin-cache"));
    std::vector<double> inproc_ms;
    bool same = true;
    for (std::size_t b = 0; b < sequence.size(); ++b) {
        const double t0 = nowS();
        const auto local = twin.runBatch(sequence[b], 1);
        inproc_ms.push_back((nowS() - t0) * 1e3);
        same &= remote[b] &&
                resultBytes(remote[b]->results) == resultBytes(local);
    }
    report.check(same, jobCount(sequence), "ladder service batches");
    report.add("server.rpc_overhead_ms",
               median(client_ms) - median(inproc_ms), "ms");
}

/** sim.pool: one cold and three all-hit ProcessPool runs. */
void
poolRung(const Session &plain, const std::vector<Job> &replay,
         const SessionRung &session, Report &report)
{
    sim::PoolOptions options;
    options.workers = kWorkers;
    options.threadsPerWorker = 1;
    options.minPooledJobs = 1;
    options.cacheDir = freshDir("ladder-pool-cache");
    options.workDir = "ladder-pool-work";
    const sim::ProcessPool pool(options);
    const std::string want = resultBytes(session.reference);
    std::vector<double> pool_s;
    for (int rep = 0; rep < 4; ++rep) {
        const double t0 = nowS();
        sim::PoolRun run;
        {
            tm::Span span("bench.pool", replay.size());
            run = pool.run(plain, replay);
        }
        pool_s.push_back(nowS() - t0);
        const u64 sims = rep == 0 ? replay.size() : 0;
        report.check(run.ok && run.stats.simulationsPerformed == sims &&
                         resultBytes(run.results) == want,
                     replay.size(),
                     "pooled ladder run (" + run.error + ")");
    }
    report.add("pool.efficiency",
               session.batch1tS / (kWorkers * pool_s.front()), "ratio");
    report.add("pool.warm_run_s",
               median(std::vector<double>(pool_s.begin() + 1,
                                          pool_s.end())),
               "s");
}

} // namespace

void
runLadder(const Options &opts, const EndToEnd &e2e, Report &report)
{
    tm::setTraceEnabled(true);
    const LadderInput &in = e2e.ladder;
    const Session plain;
    const SessionRung session =
        sessionRung(plain, in.replayJobs, e2e, report);
    const double emit_replay_s = kernelAndCpuRungs(
        plain, in.replayJobs, session.reference, report);
    const std::string warm_dir = cacheRung(in, e2e, report);
    codecRung(in.serverBatches, warm_dir, report);
    analyticalRung(in.analysisJobs, report);
    serverRung(in.serverBatches, warm_dir, report);
    poolRung(plain, in.replayJobs, session, report);
    report.add("trace.overhead_ratio",
               e2e.tracedJobsPerS / e2e.jobsPerS, "ratio");

    // The 1-thread batch against its two layers measured apart: what
    // emission and replay leave unexplained is the session's own work
    // (cache probes, job setup, result assembly).
    report.add("reconcile.unexplained_ratio",
               std::abs(session.batch1tS - emit_replay_s) /
                   session.batch1tS,
               "ratio");
    std::cerr << "perfbench: reconcile 1-thread batch "
              << session.batch1tS << " s against " << emit_replay_s
              << " s of emission and replay\n";

    tm::setTraceEnabled(false);
    report.check(!opts.traceOut.empty() &&
                     tm::writeTraceFile(opts.traceOut),
                 1, "write the Chrome trace");
    for (const char *dir :
         {"ladder-cache", "server-cache", "twin-cache",
          "ladder-pool-cache", "ladder-pool-work"})
        removeDir(dir);
}

} // namespace perfbench
