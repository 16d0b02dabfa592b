/**
 * @file
 * End-to-end simulation-service tests: a real SimServer on an
 * ephemeral socket, real SimClient connections, and the contract that
 * matters -- remote batches are bit-for-bit identical to a local
 * Session::runBatch, a warm server answers repeats with zero
 * simulations, version mismatches and bad jobs fail cleanly without
 * killing the connection, and concurrent clients all get correct
 * results (in-process and exec'd worker modes alike).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "expect_identical.hpp"
#include "sim/client.hpp"
#include "sim/pool.hpp"
#include "sim/server.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"
#include "sim/wire.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

std::string
freshSocketDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_service" / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

SimulationRequest
quickRequest(u32 k, const std::string &engine, u32 pattern)
{
    SimulationRequest request;
    request.gemm = {32, 32, k};
    request.engine = engine;
    request.patternN = pattern;
    return request;
}

/** A small mixed batch, including an intra-batch duplicate; @p k
 *  sets the simulations' GEMM depth. */
std::vector<Job>
mixedBatch(u32 k = 64)
{
    std::vector<Job> jobs;
    jobs.push_back(Job::simulate(quickRequest(k, "VEGETA-D-1-2", 4)));
    jobs.push_back(Job::simulate(quickRequest(k, "VEGETA-S-1-2", 2)));
    jobs.push_back(Job::simulate(quickRequest(k, "VEGETA-D-1-2", 4)));
    AnalyticalRequest analysis;
    analysis.model = "fig3-roofline";
    jobs.push_back(Job::analyze(std::move(analysis)));
    return jobs;
}

struct ServerFixture
{
    ServerOptions options;
    std::unique_ptr<SimServer> server;
    std::string dir;

    explicit ServerFixture(const std::string &name, u32 workers = 0)
    {
        dir = freshSocketDir(name);
        options.socketPath = dir + "/sim.sock";
        options.serviceWorkers = workers;
        options.threads = 2;
        // Persist the server's store (its workers run store-less).
        options.cacheDir = dir + "/cache";
        server = std::make_unique<SimServer>(options);
        std::string error;
        EXPECT_TRUE(server->start(&error)) << error;
    }

    SimClient client() const
    {
        ClientOptions client_options;
        client_options.address = options.socketPath;
        return SimClient(client_options);
    }
};

void
expectRemoteMatchesLocal(u32 workers, const char *name)
{
    ServerFixture fixture(name, workers);
    const auto jobs = mixedBatch();

    Session local;
    local.enableCache();
    const auto expected = local.runBatch(jobs, 2);

    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;

    const auto first = client.runBatch(jobs, &error);
    ASSERT_TRUE(first.has_value()) << error;
    expectIdenticalBatches(first->results, expected);
    EXPECT_GT(first->simulationsPerformed, 0u);
    EXPECT_GT(first->analysesPerformed, 0u);

    // Warm repeat: same bits, zero work performed by the server.
    const auto second = client.runBatch(jobs, &error);
    ASSERT_TRUE(second.has_value()) << error;
    expectIdenticalBatches(second->results, expected);
    EXPECT_EQ(second->simulationsPerformed, 0u);
    EXPECT_EQ(second->analysesPerformed, 0u);

    const auto stats = fixture.server->stats();
    EXPECT_EQ(stats.connections, 1u);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.jobs, 2 * jobs.size());
    fixture.server->stop();
    EXPECT_FALSE(fixture.server->running());
}

TEST(Service, InProcessBatchIdenticalToLocalRunBatch)
{
    expectRemoteMatchesLocal(0, "inproc");
}

TEST(Service, WorkerModeBatchIdenticalToLocalRunBatch)
{
    expectRemoteMatchesLocal(2, "workers");
}

TEST(Service, InProcessWithoutCacheDirSkipsWarmRepeats)
{
    // With no cache dir the in-process server keeps a memory-only
    // store, which holds analyses as well as simulations: a warm
    // repeat performs no work of either kind.
    const std::string dir = freshSocketDir("nocachedir");
    ServerOptions options;
    options.socketPath = dir + "/sim.sock";
    options.threads = 2;
    SimServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ClientOptions client_options;
    client_options.address = options.socketPath;
    SimClient client(client_options);
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto jobs = mixedBatch();
    const auto cold = client.runBatch(jobs, &error);
    ASSERT_TRUE(cold.has_value()) << error;
    EXPECT_GT(cold->simulationsPerformed, 0u);
    EXPECT_GT(cold->analysesPerformed, 0u);

    const auto warm = client.runBatch(jobs, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    expectIdenticalBatches(warm->results, cold->results);
    EXPECT_EQ(warm->simulationsPerformed, 0u);
    EXPECT_EQ(warm->analysesPerformed, 0u);
    server.stop();
}

TEST(Service, WorkerModeWithoutCacheDirSkipsWarmRepeats)
{
    // Each worker keeps its own memory-only store, and idle workers
    // pull units in whatever order they finish.  A repeated unit
    // must still go back to the worker that holds it, so repeats of
    // a many-unit batch, two clients at a time, perform no work.
    const std::string dir = freshSocketDir("workersnocache");
    ServerOptions options;
    options.socketPath = dir + "/sim.sock";
    options.serviceWorkers = 2;
    options.threads = 1;
    SimServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const Session local;
    std::vector<std::string> workloads;
    for (const auto &workload : local.workloads().group("quick"))
        workloads.push_back(workload.name);
    std::vector<Job> jobs = mixedBatch();
    for (auto &request : figure13Grid(local, workloads,
                                      local.engines().names()))
        jobs.push_back(Job::simulate(std::move(request)));

    ClientOptions client_options;
    client_options.address = options.socketPath;
    SimClient client(client_options);
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto cold = client.runBatch(jobs, &error);
    ASSERT_TRUE(cold.has_value()) << error;
    EXPECT_GT(cold->simulationsPerformed, 0u);

    std::vector<std::thread> clients;
    std::vector<u64> work(2 * 3, ~u64(0));
    for (std::size_t c = 0; c < 2; ++c)
        clients.emplace_back([&, c] {
            SimClient repeat(client_options);
            std::string repeat_error;
            if (!repeat.connect(&repeat_error))
                return;
            for (std::size_t r = 0; r < 3; ++r)
                if (const auto warm =
                        repeat.runBatch(jobs, &repeat_error))
                    work[c * 3 + r] = warm->simulationsPerformed +
                                      warm->analysesPerformed;
        });
    for (auto &thread : clients)
        thread.join();
    for (const u64 performed : work)
        EXPECT_EQ(performed, 0u);
    const auto warm = client.runBatch(jobs, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    expectIdenticalBatches(warm->results, cold->results);
    server.stop();
}

TEST(Service, WarmJobOnTheOtherWorkerIsNotResimulated)
{
    // The server's store holds every answer, whichever worker ran it.
    // Batch 1 deals the larger stream to worker 0 and job X to worker
    // 1.  Batch 2 puts X second among four timing classes of one
    // stream, so the plan cuts it into [Y1, X] and [Y2, Y3], and
    // worker 0 pulls the chunk led by the new job Y1.  Only the three
    // new jobs may simulate.
    const std::string dir = freshSocketDir("otherworker");
    ServerOptions options;
    options.socketPath = dir + "/sim.sock";
    options.serviceWorkers = 2;
    options.threads = 1;
    SimServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ClientOptions client_options;
    client_options.address = options.socketPath;
    SimClient client(client_options);
    ASSERT_TRUE(client.connect(&error)) << error;
    const Job x = Job::simulate(quickRequest(128, "VEGETA-D-1-2", 4));
    const auto cold = client.runBatch(
        {Job::simulate(quickRequest(512, "VEGETA-D-1-2", 4)), x},
        &error);
    ASSERT_TRUE(cold.has_value()) << error;
    EXPECT_EQ(cold->simulationsPerformed, 2u);

    const std::vector<Job> jobs = {
        Job::simulate(quickRequest(128, "VEGETA-D-1-1", 4)), x,
        Job::simulate(quickRequest(128, "VEGETA-D-16-1", 4)),
        Job::simulate(quickRequest(128, "VEGETA-S-16-2", 4))};
    const auto warm = client.runBatch(jobs, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    EXPECT_EQ(warm->simulationsPerformed, 3u);
    expectIdenticalBatches(warm->results, Session().runBatch(jobs, 1));
    server.stop();
}

/** The bytes of @p dir's store file ("" when there is none). */
std::string
storeBytes(const std::string &dir)
{
    std::ifstream in(fs::path(dir) / "results.vgc", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(StoreOwner, ColdCacheFileIsIdenticalOnEveryExecutor)
{
    // The process that owns a batch commits its misses in batch
    // order, so a cold batch writes the same store file whatever
    // runs it: runBatch at any thread count, a process pool, or a
    // service with workers.
    const Session local;
    std::vector<std::string> workloads;
    for (const auto &workload : local.workloads().group("quick"))
        workloads.push_back(workload.name);
    std::vector<Job> jobs = mixedBatch();
    for (auto &request : figure13Grid(local, workloads,
                                      local.engines().names()))
        jobs.push_back(Job::simulate(std::move(request)));
    const std::string root = freshSocketDir("storefile");

    std::vector<std::pair<std::string, std::string>> files;
    for (const u32 threads : {1u, 3u, 8u}) {
        const std::string dir = root + "/t" + std::to_string(threads);
        Session session;
        ASSERT_TRUE(session.attachDiskCache(dir)->ok());
        session.runBatch(jobs, threads);
        files.emplace_back("threads " + std::to_string(threads),
                           storeBytes(dir));
    }
    {
        PoolOptions options;
        options.workers = 2;
        options.threadsPerWorker = 1;
        options.minPooledJobs = 1;
        options.cacheDir = root + "/pool";
        const auto pooled = ProcessPool(options).run(local, jobs);
        ASSERT_TRUE(pooled.ok) << pooled.error;
        EXPECT_EQ(pooled.stats.workersSpawned, 2u);
        files.emplace_back("pool", storeBytes(options.cacheDir));
    }
    {
        ServerOptions options;
        options.socketPath = root + "/sim.sock";
        options.serviceWorkers = 2;
        options.threads = 1;
        options.cacheDir = root + "/service";
        SimServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        ClientOptions client_options;
        client_options.address = options.socketPath;
        SimClient client(client_options);
        ASSERT_TRUE(client.connect(&error)) << error;
        ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;
        server.stop();
        files.emplace_back("service", storeBytes(options.cacheDir));
    }
    ASSERT_FALSE(files.front().second.empty());
    for (const auto &[name, bytes] : files)
        EXPECT_TRUE(bytes == files.front().second)
            << name << " wrote a different store file";
}

TEST(Service, BatchIdenticalToLocalWithTracingEnabled)
{
    // Byte-identity must survive armed span recording (--trace-out):
    // both execution modes, full warm-repeat contract included.
    telemetry::setTraceEnabled(true);
    telemetry::clearTrace();
    expectRemoteMatchesLocal(0, "traced-inproc");
    expectRemoteMatchesLocal(2, "traced-workers");
    telemetry::setTraceEnabled(false);
#ifndef VEGETA_NO_TELEMETRY
    EXPECT_GT(telemetry::traceSpanCount("service.dispatch"), 0u)
        << "an armed service run must record dispatch spans";
#endif
    telemetry::clearTrace();
}

TEST(Service, StatsFrameReportsLiveState)
{
    ServerFixture fixture("statsframe");
    const auto jobs = mixedBatch();
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;

    const auto stats = client.fetchStats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    // One batch of four jobs from one live connection; the document
    // must carry every advertised section.
    EXPECT_NE(stats->find("\"batches\": 1"), std::string::npos)
        << *stats;
    EXPECT_NE(stats->find("\"jobs\": 4"), std::string::npos)
        << *stats;
    for (const char *key :
         {"\"uptime_s\"", "\"queue_depths\"", "\"jobs_per_s\"",
          "\"latency_ms\"", "\"dispatch\"", "\"queue_wait\"",
          "\"p50\"", "\"p99\"", "\"cache\"", "\"hit_rate\"",
          "\"workers\""})
        EXPECT_NE(stats->find(key), std::string::npos)
            << "missing " << key << " in:\n"
            << *stats;

    // The connection stays usable after a stats exchange.
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;
    fixture.server->stop();
}

/** The `"cache": {...}` object of a stats document ("" if none). */
std::string
cacheSection(const std::string &stats)
{
    const auto at = stats.find("\"cache\": {");
    if (at == std::string::npos)
        return "";
    return stats.substr(at, stats.find('}', at) + 1 - at);
}

TEST(Service, StatsCacheCountsOnlyTheServersStore)
{
    // An in-process server shares its process with other Sessions
    // (a C++ host, a bench ladder, this test): its stats count its
    // own store's probes, never theirs.
    ServerFixture fixture("statsownstore");
    const auto jobs = mixedBatch();
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;
    const auto before = client.fetchStats(&error);
    ASSERT_TRUE(before.has_value()) << error;
    // Three unique jobs, all cold.
    EXPECT_NE(before->find("\"hits\": 0, \"misses\": 3,"),
              std::string::npos)
        << *before;

    Session other;
    other.enableCache();
    other.runBatch(jobs, 1); // three misses
    other.runBatch(jobs, 1); // three hits

    const auto after = client.fetchStats(&error);
    ASSERT_TRUE(after.has_value()) << error;
    EXPECT_EQ(cacheSection(*after), cacheSection(*before)) << *after;
    fixture.server->stop();
}

TEST(Service, StatsFrameCountsPerWorkerJobs)
{
    ServerFixture fixture("statsworkers", 2);
    const auto jobs = mixedBatch();
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;

    const auto stats = client.fetchStats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_NE(stats->find("\"workers\": {\"count\": 2"),
              std::string::npos)
        << *stats;
    EXPECT_NE(stats->find("\"per_worker\""), std::string::npos);
    fixture.server->stop();
}

/** Live children of this process, from every thread's list. */
std::set<pid_t>
childPids()
{
    std::set<pid_t> pids;
    for (const auto &task : fs::directory_iterator("/proc/self/task")) {
        std::ifstream children(task.path() / "children");
        pid_t pid = 0;
        while (children >> pid)
            pids.insert(pid);
    }
    return pids;
}

/** Wait until @p pid is a zombie: dead, its pipe ends closed. */
bool
waitUntilDead(pid_t pid)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
        std::string pid_field, comm, state;
        if (!(stat >> pid_field >> comm >> state) || state == "Z")
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

/** The service workers a fixture spawned: children not in @p before. */
std::vector<pid_t>
newChildren(const std::set<pid_t> &before)
{
    std::vector<pid_t> pids;
    for (const pid_t pid : childPids())
        if (!before.count(pid))
            pids.push_back(pid);
    return pids;
}

TEST(Service, FailedBatchIsCountedApartFromServed)
{
    // SIGKILL one service worker: the next multi-job batch fails,
    // and stats must count it as failed, not as served jobs.
    const std::set<pid_t> before = childPids();
    ServerFixture fixture("killedworker", 2);
    const std::vector<pid_t> workers = newChildren(before);
    ASSERT_EQ(workers.size(), 2u);

    const auto jobs = mixedBatch(); // 3 unique keys: both workers
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;

    ASSERT_EQ(::kill(workers[1], SIGKILL), 0);
    ASSERT_TRUE(waitUntilDead(workers[1]));
    // New simulation keys: the store misses them, so the batch is
    // dealt over both workers (a repeat would be answered from the
    // server's store without reaching a worker).
    EXPECT_FALSE(client.runBatch(mixedBatch(96), &error).has_value());

    const auto stats = fixture.server->stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.jobs, jobs.size());
    EXPECT_EQ(stats.failedBatches, 1u);
    EXPECT_EQ(stats.failedJobs, jobs.size());
    const auto json = client.fetchStats(&error);
    ASSERT_TRUE(json.has_value()) << error;
    EXPECT_NE(json->find("\"batches\": 1,"), std::string::npos)
        << *json;
    EXPECT_NE(json->find("\"jobs\": 4,"), std::string::npos) << *json;
    EXPECT_NE(json->find("\"failed_batches\": 1,"), std::string::npos)
        << *json;
    EXPECT_NE(json->find("\"failed_jobs\": 4,"), std::string::npos)
        << *json;
    fixture.server->stop();
}

TEST(Service, FailedBatchLeavesHealthyWorkerPipesAligned)
{
    // Worker 1 dies; a batch dealt over both workers fails.  Worker 0
    // was sent its slice too, so its answer must be read back inside
    // the failed batch -- otherwise it sits in the pipe and the next
    // batch, served by worker 0 alone, reads that stale answer.
    const std::set<pid_t> before = childPids();
    ServerFixture fixture("desync", 2);
    const std::vector<pid_t> workers = newChildren(before);
    ASSERT_EQ(workers.size(), 2u);
    ASSERT_EQ(::kill(workers[1], SIGKILL), 0);
    ASSERT_TRUE(waitUntilDead(workers[1]));

    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto failing = mixedBatch(); // 4 jobs, 3 unique keys
    EXPECT_FALSE(client.runBatch(failing, &error).has_value());
    EXPECT_NE(error.find("worker 1"), std::string::npos) << error;

    const std::vector<Job> single = {
        Job::simulate(quickRequest(128, "VEGETA-S-2-2", 2))};
    const auto run = client.runBatch(single, &error);
    ASSERT_TRUE(run.has_value()) << error;
    Session local;
    local.enableCache();
    expectIdenticalBatches(run->results, local.runBatch(single, 2));
    fixture.server->stop();
}

/** Every descriptor @p pid holds, as its /proc/PID/fd link text. */
std::map<int, std::string>
openFds(pid_t pid)
{
    std::map<int, std::string> fds;
    std::error_code ec;
    const fs::path dir = "/proc/" + std::to_string(pid) + "/fd";
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const auto target = fs::read_symlink(entry.path(), ec);
        if (!ec)
            fds[std::stoi(entry.path().filename().string())] =
                target.string();
    }
    return fds;
}

TEST(Service, WorkersInheritNoSocketOrSiblingPipe)
{
    // Every descriptor the server opens is close-on-exec: a worker
    // holds its own feed and reply pipes plus the inherited standard
    // streams, never the listen socket or another worker's pipes
    // (a leaked feed end would stop its sibling seeing EOF on stop).
    const std::set<pid_t> before = childPids();
    ServerFixture fixture("cloexec", 2);
    const std::vector<pid_t> workers = newChildren(before);
    ASSERT_EQ(workers.size(), 2u);
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.runBatch(mixedBatch(), &error).has_value())
        << error;

    std::set<std::string> std_streams;
    for (const auto &[fd, target] : openFds(::getpid()))
        if (fd <= 2)
            std_streams.insert(target);
    std::vector<std::set<std::string>> pipes(workers.size());
    for (std::size_t w = 0; w < workers.size(); ++w) {
        for (const auto &[fd, target] : openFds(workers[w])) {
            if (std_streams.count(target))
                continue;
            EXPECT_EQ(target.rfind("socket:", 0), std::string::npos)
                << "worker " << w << " fd " << fd << " -> " << target;
            if (target.rfind("pipe:", 0) == 0)
                pipes[w].insert(target);
        }
        // Its own feed and reply pipe, nothing else.
        EXPECT_EQ(pipes[w].size(), 2u) << "worker " << w;
    }
    for (const auto &pipe : pipes[0])
        EXPECT_EQ(pipes[1].count(pipe), 0u) << pipe;
    fixture.server->stop();
}

TEST(Service, EphemeralTcpPortWorks)
{
    ServerOptions options;
    options.useTcp = true; // port 0 = kernel-assigned
    options.threads = 2;
    SimServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_GT(server.port(), 0u);
    EXPECT_EQ(server.address(),
              "tcp:127.0.0.1:" + std::to_string(server.port()));

    ClientOptions client_options;
    client_options.address = server.address();
    SimClient client(client_options);
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto jobs = mixedBatch();
    const auto run = client.runBatch(jobs, &error);
    ASSERT_TRUE(run.has_value()) << error;

    Session local;
    local.enableCache();
    expectIdenticalBatches(run->results, local.runBatch(jobs, 2));
    server.stop();
}

TEST(Service, VersionMismatchRefusedBeforeAnyWork)
{
    ServerFixture fixture("mismatch");
    // Speak the raw wire with a wrong hello: the server must answer
    // with an Error frame naming the mismatch, not a HelloAck.
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  fixture.options.socketPath.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    std::string error;
    ASSERT_TRUE(wire::writeFrame(fd, wire::FrameType::Hello,
                                 "vegeta-wire v0\tstale\tstale",
                                 &error))
        << error;
    wire::Frame reply;
    ASSERT_TRUE(wire::readFrame(fd, &reply, 5'000, &error)) << error;
    EXPECT_EQ(reply.type, wire::FrameType::Error);
    EXPECT_NE(reply.payload.find("version"), std::string::npos)
        << reply.payload;
    ::close(fd);

    // The refused handshake did not poison the server: a correct
    // client connects and runs fine afterwards.
    auto client = fixture.client();
    ASSERT_TRUE(client.connect(&error)) << error;
    EXPECT_TRUE(client.runBatch(mixedBatch(), &error).has_value())
        << error;
    const auto stats = fixture.server->stats();
    EXPECT_EQ(stats.protocolErrors, 1u);
}

TEST(Service, BadJobErrorsButConnectionSurvives)
{
    ServerFixture fixture("badjob");
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;

    std::vector<Job> bad;
    bad.push_back(
        Job::simulate(quickRequest(64, "NO-SUCH-ENGINE", 4)));
    EXPECT_FALSE(client.runBatch(bad, &error).has_value());
    EXPECT_NE(error.find("NO-SUCH-ENGINE"), std::string::npos)
        << error;

    // Same connection, valid batch: still works.
    const auto jobs = mixedBatch();
    const auto run = client.runBatch(jobs, &error);
    ASSERT_TRUE(run.has_value()) << error;
    Session local;
    local.enableCache();
    expectIdenticalBatches(run->results, local.runBatch(jobs, 2));
}

TEST(Service, ConcurrentClientsAllGetIdenticalResults)
{
    ServerFixture fixture("fairness");
    const auto jobs = mixedBatch();
    Session local;
    local.enableCache();
    const auto expected = local.runBatch(jobs, 2);

    constexpr int kClients = 4;
    constexpr int kIters = 3;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c]() {
            ClientOptions client_options;
            client_options.address = fixture.options.socketPath;
            SimClient client(client_options);
            std::string error;
            if (!client.connect(&error)) {
                failures[c] = error;
                return;
            }
            for (int i = 0; i < kIters; ++i) {
                const auto run = client.runBatch(jobs, &error);
                if (!run) {
                    failures[c] = error;
                    return;
                }
                // Full field comparison happens on the main thread;
                // here a cheap size check keeps the loop tight.
                if (run->results.size() != expected.size()) {
                    failures[c] = "result size mismatch";
                    return;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
    const auto stats = fixture.server->stats();
    EXPECT_EQ(stats.connections, kClients);
    EXPECT_EQ(stats.batches, u64(kClients) * kIters);

    // One final batch compared field-by-field.
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto run = client.runBatch(jobs, &error);
    ASSERT_TRUE(run.has_value()) << error;
    expectIdenticalBatches(run->results, expected);
    EXPECT_EQ(run->simulationsPerformed, 0u);
}

TEST(Service, ConnectionChurnDuringBatchesIsSafe)
{
    // Clients that connect and vanish -- some mid-handshake -- while
    // another client's batches are in flight.  Each reader starts
    // before its connection is published, under the lock the
    // dispatcher reaps dead connections under, so the reaper never
    // joins a thread handle the acceptor is still assigning; the
    // in-flight batches keep their bytes and the daemon stays up.
    ServerFixture fixture("churn");
    const auto jobs = mixedBatch();
    Session local;
    local.enableCache();
    const auto expected = local.runBatch(jobs, 2);

    std::atomic<bool> done{false};
    std::string batch_error;
    std::thread batches([&]() {
        auto client = fixture.client();
        std::string error;
        if (client.connect(&error)) {
            for (int i = 0; i < 20 && batch_error.empty(); ++i) {
                const auto run = client.runBatch(jobs, &error);
                if (!run)
                    batch_error = error;
                else if (run->results.size() != expected.size())
                    batch_error = "result size mismatch";
            }
        } else {
            batch_error = error;
        }
        done = true;
    });

    int churned = 0;
    for (; churned < 64 || (!done && churned < 4096); ++churned) {
        const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      fixture.options.socketPath.c_str());
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0 &&
            churned % 3 == 0) {
            std::string ignored;
            wire::writeFrame(fd, wire::FrameType::Hello,
                             "vegeta-wire", &ignored);
        }
        ::close(fd);
    }
    batches.join();
    EXPECT_EQ(batch_error, "");

    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto run = client.runBatch(jobs, &error);
    ASSERT_TRUE(run.has_value()) << error;
    expectIdenticalBatches(run->results, expected);
}

TEST(Service, StaleSocketFileIsReclaimed)
{
    const std::string dir = freshSocketDir("stale");
    const std::string path = dir + "/sim.sock";
    {
        // A dead server's leftover socket file.
        const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd); // closed without unlink: stale file remains
    }
    ASSERT_TRUE(fs::exists(path));
    ServerOptions options;
    options.socketPath = path;
    options.threads = 2;
    SimServer server(options);
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
    server.stop();
    // A clean stop removes its socket file.
    EXPECT_FALSE(fs::exists(path));
}

TEST(Service, SecondServerOnLiveSocketRefusesToStart)
{
    ServerFixture fixture("occupied");
    ServerOptions options = fixture.options;
    SimServer second(options);
    std::string error;
    EXPECT_FALSE(second.start(&error));
    EXPECT_NE(error.find("already listening"), std::string::npos)
        << error;
    // The loser must not have unlinked the winner's socket.
    auto client = fixture.client();
    ASSERT_TRUE(client.connect(&error)) << error;
}

TEST(Service, ParseServerAddressForms)
{
    bool use_tcp = false;
    std::string host;
    u32 port = 0;
    std::string error;

    ASSERT_TRUE(parseServerAddress("unix:/tmp/x.sock", &use_tcp,
                                   &host, &port, &error));
    EXPECT_FALSE(use_tcp);
    EXPECT_EQ(host, "/tmp/x.sock");

    ASSERT_TRUE(parseServerAddress("tcp:127.0.0.1:9000", &use_tcp,
                                   &host, &port, &error));
    EXPECT_TRUE(use_tcp);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9000u);

    ASSERT_TRUE(
        parseServerAddress("9000", &use_tcp, &host, &port, &error));
    EXPECT_TRUE(use_tcp);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9000u);

    ASSERT_TRUE(parseServerAddress("/var/run/sim.sock", &use_tcp,
                                   &host, &port, &error));
    EXPECT_FALSE(use_tcp);
    EXPECT_EQ(host, "/var/run/sim.sock");

    EXPECT_FALSE(parseServerAddress("tcp:localhost", &use_tcp, &host,
                                    &port, &error));
    EXPECT_FALSE(parseServerAddress("tcp:127.0.0.1:0", &use_tcp,
                                    &host, &port, &error));
    EXPECT_FALSE(parseServerAddress("tcp:127.0.0.1:99999", &use_tcp,
                                    &host, &port, &error));
    EXPECT_FALSE(
        parseServerAddress("", &use_tcp, &host, &port, &error));
}

} // namespace
} // namespace vegeta::sim

int
main(int argc, char **argv)
{
    // The hidden worker re-entry: a SimServer with service workers
    // execs this binary back into itself with "worker" first.
    if (argc > 1 && std::string(argv[1]) == "worker")
        return vegeta::sim::poolWorkerMain(
            std::vector<std::string>(argv + 2, argv + argc));

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
