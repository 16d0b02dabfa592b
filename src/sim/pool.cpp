#include "sim/pool.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <thread>

#include "sim/job_io.hpp"
#include "sim/session.hpp"
#include "sim/wire.hpp"

namespace vegeta::sim {

namespace {

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/**
 * runBatch threads per worker: @p threads, or by default the machine
 * divided over the workers instead of every worker claiming all of
 * it (N workers x hardware threads would oversubscribe the CPU
 * N-fold).
 */
u32
threadsPerWorker(u32 workers, u32 threads)
{
    if (threads != 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, static_cast<u32>(hw) / workers);
}

} // namespace

std::string
currentExecutablePath()
{
    char buf[4096];
    const ssize_t len = readlink("/proc/self/exe", buf,
                                 sizeof(buf) - 1);
    if (len <= 0)
        return "";
    buf[len] = '\0';
    return buf;
}

u32
defaultPoolCrossoverJobs()
{
    // Re-read off the committed BENCH_replay trajectory: the
    // pool_crossover_measured_jobs row is 0 in every entry that
    // records it.  Since the store-owner entry the bench's probe
    // batches take one job from each of 2, 4 and 8 distinct units of
    // a 2-executor plan (its 45-job grid plans 9 units, so 16 is out
    // of reach), so each job is a unit of its own and the second
    // worker always has one to pull -- and the pool still lost at
    // every size: ~3 ms of spawn, session start-up and frame round
    // trips against under 1 ms in-process.  (The same entry's
    // pool_sweep row puts 2 and 4 workers ahead of 1, but its 45-job
    // grid runs in ~5 ms, mostly spawn.)  With no measured win below
    // the probe ceiling, the crossover stays at 128 -- the
    // low-hundreds scale where per-worker setup provably amortizes --
    // and is conservative on purpose: the in-process path is never
    // slower on batches this size, and both paths are bit-identical.
    return 128;
}

// --- WorkerSet -------------------------------------------------------

std::unique_ptr<WorkerSet>
WorkerSet::spawn(u32 workers, u32 threads,
                 std::vector<std::string> command, std::string *error)
{
    auto fail = [&](const std::string &reason) {
        if (error)
            *error = reason;
        return nullptr;
    };
    if (workers == 0)
        return fail("need at least one worker");
    if (command.empty()) {
        const std::string self = currentExecutablePath();
        if (self.empty())
            return fail("cannot resolve own executable for workers");
        command = {self, "worker"};
    }
    threads = threadsPerWorker(workers, threads);
    command.insert(command.end(),
                   {"--threads", std::to_string(threads)});
    std::vector<char *> argv;
    for (auto &arg : command)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    // A worker that died must be a write error, not this process's
    // death: pipes cannot opt out of SIGPIPE per call the way
    // sockets do.
    ::signal(SIGPIPE, SIG_IGN);

    telemetry::Span spawn_span("pool.spawn", workers);
    std::unique_ptr<WorkerSet> set(new WorkerSet());
    set->threads_ = threads;
    for (u32 w = 0; w < workers; ++w) {
        // Every pipe end is close-on-exec; the dup2s below clear it
        // on the worker's own two ends only, so no worker inherits a
        // sibling's pipes (it would never see EOF on shutdown).
        int feed[2], reply[2];
        if (::pipe2(feed, O_CLOEXEC) != 0)
            return fail("cannot create worker pipes");
        if (::pipe2(reply, O_CLOEXEC) != 0) {
            ::close(feed[0]);
            ::close(feed[1]);
            return fail("cannot create worker pipes");
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, feed[0],
                                         STDIN_FILENO);
        posix_spawn_file_actions_adddup2(&actions, reply[1],
                                         STDOUT_FILENO);
        Worker worker;
        const int rc = ::posix_spawn(&worker.pid, argv[0], &actions,
                                     nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(feed[0]);
        ::close(reply[1]);
        worker.feedFd = feed[1];
        worker.replyFd = reply[0];
        if (rc != 0) {
            closeFd(worker.feedFd);
            closeFd(worker.replyFd);
            return fail("cannot spawn worker " + std::to_string(w) +
                        " (" + command[0] + "): " + std::strerror(rc));
        }
        set->workers_.push_back(worker);
    }
    return set;
}

WorkerSet::~WorkerSet()
{
    // EOF on the feed pipe is a worker's shutdown signal; closing the
    // reply pipe too unblocks a worker stuck writing to it.  Reap
    // every child so no zombie or orphan outlives the set.
    for (auto &worker : workers_) {
        closeFd(worker.feedFd);
        closeFd(worker.replyFd);
    }
    for (const auto &worker : workers_) {
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
    }
}

WorkerBatch
WorkerSet::run(const std::vector<Job> &jobs, const BatchPlan &plan,
               std::vector<JobResult> &results)
{
    static const telemetry::MetricId slices_id =
        telemetry::counterId("pool.slices");
    WorkerBatch out;
    const std::vector<PlanUnit> &units = plan.units;
    const u32 count = size();
    std::size_t next = 0; // the first unit not dealt yet
    u32 outstanding = 0;  // frames sent and not yet answered
    // inflight[w]: the jobs of worker w's unanswered frame, in frame
    // order (empty: w is idle); reply_of[w]: its entry in
    // out.replies (SIZE_MAX: none yet).
    std::vector<std::vector<std::size_t>> inflight(count);
    std::vector<std::size_t> reply_of(count, SIZE_MAX);
    std::string io_error;

    auto fail = [&](u32 w, const std::string &reason) {
        if (out.error.empty())
            out.error = "worker " + std::to_string(w) + reason;
    };

    // Send idle worker w its next frame: the next units in plan
    // order, up to threads_ of them but no more than an even share
    // of what is left, so a small batch still spreads over every
    // worker.
    auto deal = [&](u32 w) {
        const std::size_t left = units.size() - next;
        const std::size_t take = std::clamp<std::size_t>(
            (left + count - 1) / count, 1, threads_);
        std::vector<Job> frame;
        std::vector<std::size_t> &members = inflight[w];
        for (std::size_t u = next; u < next + take; ++u)
            for (const auto &timing_class : units[u].classes)
                for (const std::size_t i : timing_class) {
                    members.push_back(i);
                    frame.push_back(jobs[i]);
                }
        next += take;
        telemetry::Span send_span("pool.send", take);
        telemetry::add(slices_id, 1);
        if (!wire::writeFrame(workers_[w].feedFd,
                              wire::FrameType::Batch,
                              encodeJobBatch(frame), &io_error)) {
            fail(w, " unreachable: " + io_error);
            members.clear();
            return;
        }
        ++outstanding;
    };

    // Until the plan runs out (or a failure stops it), offer every
    // idle worker its next frame.
    auto dealIdle = [&]() {
        for (u32 w = 0; w < count; ++w)
            if (out.error.empty() && next < units.size() &&
                inflight[w].empty())
                deal(w);
    };

    // Read worker w's answer and merge it by job index.
    auto collect = [&](u32 w) {
        telemetry::Span collect_span("pool.collect");
        const std::vector<std::size_t> members = std::move(inflight[w]);
        inflight[w].clear();
        --outstanding;
        wire::Frame frame;
        if (!wire::readFrame(workers_[w].replyFd, &frame, -1,
                             &io_error)) {
            fail(w, " died: " + io_error);
            return;
        }
        if (frame.type == wire::FrameType::Error) {
            fail(w, ": " + frame.payload);
            return;
        }
        if (frame.type != wire::FrameType::Results) {
            fail(w, ": unexpected frame");
            return;
        }
        auto output = decodeWorkerOutput(frame.payload, &io_error);
        if (!output) {
            fail(w, ": " + io_error);
            return;
        }
        // A worker answers its frame in order, one record per job;
        // anything else is a missing or foreign result.
        bool answered = output->results.size() == members.size();
        for (std::size_t j = 0; answered && j < members.size(); ++j)
            answered =
                output->results[j].first == plan.keys[members[j]];
        if (!answered) {
            fail(w, ": missing result");
            return;
        }
        for (std::size_t j = 0; j < members.size(); ++j)
            results[members[j]] = std::move(output->results[j].second);
        out.simulationsPerformed += output->simulationsPerformed;
        out.analysesPerformed += output->analysesPerformed;
        if (reply_of[w] == SIZE_MAX) {
            reply_of[w] = out.replies.size();
            out.replies.push_back({w, 0, {}});
        }
        WorkerReply &reply = out.replies[reply_of[w]];
        reply.jobs += members.size();
        reply.metrics = std::move(output->metrics);
    };

    // One frame per worker to start, then pull: whichever worker
    // answers first is dealt the next frame.  After a failure no
    // frame is sent, but every answer owed is still read back.
    dealIdle();
    std::vector<pollfd> ready;
    std::vector<u32> polled;
    while (outstanding > 0) {
        ready.clear();
        polled.clear();
        for (u32 w = 0; w < count; ++w) {
            if (inflight[w].empty())
                continue;
            ready.push_back({workers_[w].replyFd, POLLIN, 0});
            polled.push_back(w);
        }
        if (::poll(ready.data(), ready.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            // Cannot wait on them together: read them in turn.
            for (auto &entry : ready)
                entry.revents = POLLIN;
        }
        for (std::size_t r = 0; r < ready.size(); ++r)
            if (ready[r].revents != 0)
                collect(polled[r]);
        dealIdle();
    }
    out.ok = out.error.empty();
    return out;
}

// --- ProcessPool -----------------------------------------------------

ProcessPool::ProcessPool(PoolOptions options)
    : options_(std::move(options))
{
}

PoolRun
ProcessPool::run(const Session &session,
                 const std::vector<Job> &jobs) const
{
    PoolRun out;
    telemetry::Span run_span("pool.run", jobs.size());
    auto fail = [&](const std::string &reason) {
        out.ok = false;
        out.results.clear();
        out.error = reason;
        return out;
    };

    if (options_.workers == 0)
        return fail("pool needs at least one worker");

    if (jobs.empty()) {
        out.ok = true;
        return out;
    }

    // Validate up front: a bad job is the caller's bug, not a worker
    // failure, and must be reported before any process spawns.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (const auto error = session.jobError(jobs[i]))
            return fail("job " + std::to_string(i) + ": " + *error);
    }

    // This process owns the batch's store: the plan's probe is its
    // one read and the commit below its one write.  Workers run
    // store-less, so they only ever see the misses.
    Session owner(session.engines(), session.workloads(),
                  session.analytics());
    if (!options_.cacheDir.empty() &&
        !owner.attachDiskCache(options_.cacheDir)->ok())
        return fail("cannot open cache dir: " + options_.cacheDir);
    std::vector<JobResult> results(jobs.size());
    // Planned for every executor the pool will run: workers x
    // threads each.
    const BatchPlan plan = owner.planBatch(
        jobs,
        options_.workers * threadsPerWorker(options_.workers,
                                            options_.threadsPerWorker),
        &results);
    out.stats.uniqueJobs = plan.unique.size();

    // Batch-size planner: small batches run their units in this
    // process instead; either path commits the same records.
    const u32 min_pooled = options_.minPooledJobs == 0
                               ? defaultPoolCrossoverJobs()
                               : options_.minPooledJobs;
    if (plan.unique.size() < min_pooled) {
        static const telemetry::MetricId fallback_id =
            telemetry::counterId("pool.fallback");
        telemetry::add(fallback_id, 1);
        owner.runUnits(jobs, plan, options_.threadsPerWorker, results);
        out.stats.simulationsPerformed = owner.simulationsPerformed();
        out.stats.analysesPerformed = owner.analysesPerformed();
        out.stats.usedProcessPool = false;
    } else if (!plan.units.empty()) {
        // A worker with no unit to run would only idle: spawn at most
        // one per unit (and none for an all-hit batch).
        std::string error;
        const auto workers = WorkerSet::spawn(
            std::min<u32>(options_.workers,
                          static_cast<u32>(plan.units.size())),
            options_.threadsPerWorker, options_.workerCommand, &error);
        if (!workers)
            return fail(error);
        out.stats.workersSpawned = workers->size();

        const WorkerBatch batch = workers->run(jobs, plan, results);
        // Fold each worker's latest snapshot into this process so a
        // post-run metrics report covers the whole pool.  Every frame
        // carries the worker's cumulative totals and these workers
        // are fresh processes serving one batch, so one absorb per
        // worker counts each of them exactly once.
        for (const auto &reply : batch.replies)
            telemetry::absorb(reply.metrics);
        if (!batch.ok)
            return fail(batch.error);
        out.stats.simulationsPerformed = batch.simulationsPerformed;
        out.stats.analysesPerformed = batch.analysesPerformed;
    }
    owner.commit(plan, results);
    out.results = std::move(results);
    out.ok = true;
    return out;
}

// --- the worker ------------------------------------------------------

int
poolWorkerMain(const std::vector<std::string> &args)
{
    u32 threads = 0;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg != "--threads") {
            std::cerr << "pool worker: unknown option " << arg << "\n";
            return 2;
        }
        if (i + 1 >= args.size()) {
            std::cerr << "pool worker: " << arg << " needs a value\n";
            return 2;
        }
        const std::string &value = args[++i];
        const auto parsed = parseU32(value);
        if (!parsed) {
            std::cerr << "pool worker: bad --threads value '" << value
                      << "'\n";
            return 2;
        }
        threads = *parsed;
    }

    // Store-less: the process that owns the batch probes and
    // commits it, so a worker only ever sees misses.
    const Session session;

    // Frames own the stdout pipe: anything else this process prints
    // to stdout goes to stderr instead of corrupting the stream.
    const int reply_fd = ::fcntl(STDOUT_FILENO, F_DUPFD_CLOEXEC, 3);
    if (reply_fd < 0 || ::dup2(STDERR_FILENO, STDOUT_FILENO) < 0) {
        std::cerr << "pool worker: cannot claim stdout\n";
        return 3;
    }

    static const telemetry::MetricId load_timer =
        telemetry::timerId("worker.load");
    static const telemetry::MetricId replay_timer =
        telemetry::timerId("worker.replay");
    static const telemetry::MetricId encode_timer =
        telemetry::timerId("worker.encode");

    for (;;) {
        wire::Frame frame;
        std::string error;
        bool clean_eof = false;
        if (!wire::readFrame(STDIN_FILENO, &frame, -1, &error,
                             &clean_eof)) {
            if (clean_eof)
                return 0; // parent closed the feed: clean shutdown
            std::cerr << "pool worker: " << error << "\n";
            return 3;
        }

        // One frame in, one frame out: a rejected frame is answered
        // with an error frame so the pipe stays aligned.
        const u64 load_start = telemetry::nowNs();
        std::optional<std::vector<Job>> jobs;
        if (frame.type != wire::FrameType::Batch)
            error = std::string("unexpected frame: ") +
                    wire::frameTypeName(frame.type);
        else
            jobs = decodeJobBatch(frame.payload, &error);
        for (std::size_t i = 0; jobs && i < jobs->size(); ++i) {
            if (const auto reason = session.jobError((*jobs)[i])) {
                error = "bad job: " + *reason;
                jobs.reset();
            }
        }
        telemetry::recordNs(load_timer,
                            telemetry::nowNs() - load_start);
        if (!jobs) {
            if (!wire::writeFrame(reply_fd, wire::FrameType::Error,
                                  error, &error))
                return 3;
            continue;
        }

        const u64 sims0 = session.simulationsPerformed();
        const u64 anas0 = session.analysesPerformed();
        const u64 replay_start = telemetry::nowNs();
        // The plan keyed every job once; its keys go back as-is.
        std::vector<std::string> keys;
        auto results = session.runBatch(*jobs, threads, &keys);
        telemetry::recordNs(replay_timer,
                            telemetry::nowNs() - replay_start);

        WorkerOutput output;
        output.results.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            output.results.emplace_back(std::move(keys[i]),
                                        std::move(results[i]));
        output.simulationsPerformed =
            session.simulationsPerformed() - sims0;
        output.analysesPerformed = session.analysesPerformed() - anas0;
#ifndef VEGETA_NO_TELEMETRY
        output.metrics = telemetry::snapshot().metrics;
#endif
        // Encoded once, after the snapshot: this frame's encode time
        // is recorded after the write, so it ships with the next one.
        const u64 encode_start = telemetry::nowNs();
        const std::string payload = encodeWorkerOutput(output);
        const u64 encode_ns = telemetry::nowNs() - encode_start;
        if (!wire::writeFrame(reply_fd, wire::FrameType::Results,
                              payload, &error)) {
            std::cerr << "pool worker: " << error << "\n";
            return 3;
        }
        telemetry::recordNs(encode_timer, encode_ns);
    }
}

} // namespace vegeta::sim
