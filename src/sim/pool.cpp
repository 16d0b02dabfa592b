#include "sim/pool.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
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
    // pool_crossover_measured_jobs row has been 0 in every entry
    // that records it, meaning the bench's probe over 2..16 unique
    // jobs never found a batch size where the process pool beat the
    // in-process fallback (worker spawn, session start-up and frame
    // round trips dominate every probed size), and the
    // pool_crossover_unique_jobs row records 128 as the default in
    // effect.  With no measured win below the probe ceiling, the
    // crossover stays at 128 -- the low-hundreds scale where
    // per-worker setup provably amortizes -- and is conservative on
    // purpose: the in-process fallback is never slower on batches
    // this size, and both paths are bit-identical.
    return 128;
}

KeyedBatch
keyBatch(const std::vector<Job> &jobs)
{
    KeyedBatch keyed;
    std::vector<std::string> keys;
    keys.reserve(jobs.size());
    // key -> its first job, then (below) -> its position in keys
    std::map<std::string, std::size_t> unique;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        keys.push_back(jobKey(jobs[i]));
        unique.emplace(keys.back(), i);
    }
    keyed.keys.reserve(unique.size());
    keyed.first.reserve(unique.size());
    for (auto &[key, index] : unique) {
        keyed.first.push_back(index);
        index = keyed.keys.size();
        keyed.keys.push_back(key);
    }
    keyed.slot.reserve(jobs.size());
    for (const auto &key : keys)
        keyed.slot.push_back(unique.find(key)->second);
    return keyed;
}

// --- WorkerSet -------------------------------------------------------

std::unique_ptr<WorkerSet>
WorkerSet::spawn(u32 workers, const std::string &cache_dir,
                 u32 threads, std::vector<std::string> command,
                 std::string *error)
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
    // The default divides the machine instead of letting every
    // worker claim all of it (N workers x hardware threads would
    // oversubscribe the CPU N-fold).
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = std::max(1u, static_cast<u32>(hw) / workers);
    }
    command.insert(command.end(),
                   {"--threads", std::to_string(threads)});
    if (!cache_dir.empty())
        command.insert(command.end(), {"--cache-dir", cache_dir});
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
WorkerSet::run(const std::vector<Job> &jobs, const KeyedBatch &keyed)
{
    WorkerBatch out;
    const std::size_t unique = keyed.keys.size();
    const u32 used = static_cast<u32>(
        std::min<std::size_t>(workers_.size(), unique));

    // Deal the sorted keys round-robin: unique job u goes to worker
    // u % used, at position u / used of its slice.
    std::vector<std::vector<Job>> slices(used);
    for (std::size_t u = 0; u < unique; ++u)
        slices[u % used].push_back(jobs[keyed.first[u]]);
    static const telemetry::MetricId slices_id =
        telemetry::counterId("pool.slices");
    telemetry::add(slices_id, used);

    auto fail = [&](u32 w, const std::string &reason) {
        if (out.error.empty())
            out.error = "worker " + std::to_string(w) + reason;
    };

    // Stop sending at the first unreachable worker, but read back an
    // answer from EVERY worker that was sent a frame: an unread
    // answer would sit in its pipe and misalign the next batch.
    u32 sent = 0;
    std::string io_error;
    {
        telemetry::Span send_span("pool.send", used);
        for (; sent < used; ++sent) {
            if (!wire::writeFrame(workers_[sent].feedFd,
                                  wire::FrameType::Batch,
                                  encodeJobBatch(slices[sent]),
                                  &io_error)) {
                fail(sent, " unreachable: " + io_error);
                break;
            }
        }
    }

    telemetry::Span collect_span("pool.collect", sent);
    out.results.resize(unique);
    for (u32 w = 0; w < sent; ++w) {
        wire::Frame frame;
        if (!wire::readFrame(workers_[w].replyFd, &frame, -1,
                             &io_error)) {
            fail(w, " died: " + io_error);
            continue;
        }
        if (frame.type == wire::FrameType::Error) {
            fail(w, ": " + frame.payload);
            continue;
        }
        if (frame.type != wire::FrameType::Results) {
            fail(w, ": unexpected frame");
            continue;
        }
        auto output = decodeWorkerOutput(frame.payload, &io_error);
        if (!output) {
            fail(w, ": " + io_error);
            continue;
        }
        // A worker answers its slice in order, one record per job;
        // anything else is a missing or foreign result.
        bool answered = output->results.size() == slices[w].size();
        for (std::size_t j = 0; answered && j < slices[w].size();
             ++j) {
            const std::size_t u = j * used + w;
            answered = output->results[j].first == keyed.keys[u];
            if (answered)
                out.results[u] = std::move(output->results[j].second);
        }
        if (!answered) {
            fail(w, ": missing result");
            continue;
        }
        out.simulationsPerformed += output->simulationsPerformed;
        out.analysesPerformed += output->analysesPerformed;
        out.replies.push_back(
            {w, slices[w].size(), std::move(output->metrics)});
    }
    if (!out.error.empty()) {
        out.results.clear();
        return out;
    }
    out.ok = true;
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

    const KeyedBatch keyed = keyBatch(jobs);
    out.stats.uniqueJobs = keyed.keys.size();

    // Batch-size planner: small batches skip the process pool
    // entirely.  A fresh builtin Session with the same store the
    // workers would attach keeps the result (and the cache file)
    // bit-identical to the pooled path.
    const u32 min_pooled = options_.minPooledJobs == 0
                               ? defaultPoolCrossoverJobs()
                               : options_.minPooledJobs;
    if (keyed.keys.size() < min_pooled) {
        static const telemetry::MetricId fallback_id =
            telemetry::counterId("pool.fallback");
        telemetry::add(fallback_id, 1);
        Session local;
        if (options_.cacheDir.empty())
            local.enableCache();
        else if (!local.attachDiskCache(options_.cacheDir)->ok())
            return fail("cannot open cache dir: " + options_.cacheDir);
        out.results = local.runBatch(jobs, options_.threadsPerWorker);
        out.stats.simulationsPerformed = local.simulationsPerformed();
        out.stats.analysesPerformed = local.analysesPerformed();
        out.stats.usedProcessPool = false;
        out.ok = true;
        return out;
    }

    std::string error;
    const auto workers = WorkerSet::spawn(
        std::min<u32>(options_.workers,
                      static_cast<u32>(keyed.keys.size())),
        options_.cacheDir, options_.threadsPerWorker,
        options_.workerCommand, &error);
    if (!workers)
        return fail(error);
    out.stats.workersSpawned = workers->size();

    WorkerBatch batch = workers->run(jobs, keyed);
    // Fold each worker's snapshot into this process so a post-run
    // metrics report covers the whole pool.  These workers are fresh
    // processes serving one batch, so one absorb each never double
    // counts.
    for (const auto &reply : batch.replies)
        telemetry::absorb(reply.metrics);
    if (!batch.ok)
        return fail(batch.error);
    out.stats.simulationsPerformed = batch.simulationsPerformed;
    out.stats.analysesPerformed = batch.analysesPerformed;
    out.results.reserve(jobs.size());
    for (const std::size_t u : keyed.slot)
        out.results.push_back(batch.results[u]);
    out.ok = true;
    return out;
}

// --- the worker ------------------------------------------------------

int
poolWorkerMain(const std::vector<std::string> &args)
{
    std::string cache_dir;
    u32 threads = 0;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg != "--cache-dir" && arg != "--threads") {
            std::cerr << "pool worker: unknown option " << arg << "\n";
            return 2;
        }
        if (i + 1 >= args.size()) {
            std::cerr << "pool worker: " << arg << " needs a value\n";
            return 2;
        }
        const std::string &value = args[++i];
        if (arg == "--cache-dir") {
            cache_dir = value;
            continue;
        }
        const auto parsed = parseU32(value);
        if (!parsed) {
            std::cerr << "pool worker: bad --threads value '" << value
                      << "'\n";
            return 2;
        }
        threads = *parsed;
    }

    Session session;
    if (cache_dir.empty()) {
        session.enableCache();
    } else if (!session.attachDiskCache(cache_dir)->ok()) {
        std::cerr << "pool worker: cannot open cache dir: " << cache_dir
                  << "\n";
        return 4;
    }

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
        const auto results = session.runBatch(*jobs, threads);
        telemetry::recordNs(replay_timer,
                            telemetry::nowNs() - replay_start);

        WorkerOutput output;
        output.results.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            output.results.emplace_back(jobKey((*jobs)[i]),
                                        results[i]);
        output.simulationsPerformed =
            session.simulationsPerformed() - sims0;
        output.analysesPerformed = session.analysesPerformed() - anas0;
#ifndef VEGETA_NO_TELEMETRY
        // Time a dry-run encode first, so the cumulative snapshot
        // shipped in this frame covers every phase of this batch.
        {
            const u64 encode_start = telemetry::nowNs();
            const std::string probe = encodeWorkerOutput(output);
            telemetry::recordNs(encode_timer,
                                telemetry::nowNs() - encode_start);
        }
        output.metrics = telemetry::snapshot().metrics;
#else
        (void)encode_timer;
#endif
        if (!wire::writeFrame(reply_fd, wire::FrameType::Results,
                              encodeWorkerOutput(output), &error)) {
            std::cerr << "pool worker: " << error << "\n";
            return 3;
        }
    }
}

} // namespace vegeta::sim
