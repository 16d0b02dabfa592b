/**
 * @file
 * Shared helpers of the benchmark: clocks, order statistics, resource
 * usage, canonical result bytes, run-directory files, and the seeded
 * grid both workloads submit.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "common/random.hpp"
#include "sim/job_io.hpp"
#include "sim/serial.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace vegeta;

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value)) {
        check(false, 1, "metric " + name + " is not finite");
        value = 0.0;
    }
    metrics[name] = {value, unit};
}

void
Report::check(bool ok, u64 n, const std::string &what)
{
    attempted += n;
    if (!ok) {
        failed += n;
        std::cerr << "perfbench: MISMATCH: " << what << "\n";
    }
}

u32
benchThreads()
{
    const u32 hw = std::max(1u, std::thread::hardware_concurrency());
    return std::clamp<u32>(hw - 1, 1, 3);
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * double(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) -
                  1];
}

namespace {

double
cpuOf(int who)
{
    rusage usage{};
    getrusage(who, &usage);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

} // namespace

double
cpuSelfS()
{
    return cpuOf(RUSAGE_SELF);
}

double
cpuChildrenS()
{
    return cpuOf(RUSAGE_CHILDREN);
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return double(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    return cpus;
}

bool
pinThread(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    return !cpus.empty() && sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::string
resultBytes(const std::vector<JobResult> &results)
{
    sim::WorkerOutput output;
    output.results.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        output.results.emplace_back(std::to_string(i), results[i]);
    return sim::encodeWorkerOutput(output);
}

std::string
digestHex(const std::string &bytes)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      sim::serial::checksum(bytes)));
    return buf;
}

std::string
freshDir(const std::string &name)
{
    std::error_code ec;
    fs::remove_all(name, ec);
    fs::create_directories(name, ec);
    return name;
}

void
removeDir(const std::string &path)
{
    std::error_code ec;
    fs::remove_all(path, ec);
}

std::string
copyCacheDir(const std::string &from, const std::string &name)
{
    freshDir(name);
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(from, ec))
        if (entry.is_regular_file())
            fs::copy_file(entry.path(),
                          fs::path(name) / entry.path().filename(), ec);
    return name;
}

std::vector<Job>
table4Grid(const Session &session)
{
    std::vector<std::string> workloads;
    for (const auto &w : session.workloads().group("tableIV"))
        workloads.push_back(w.name);
    std::vector<Job> jobs;
    for (auto &request : sim::figure13Grid(session, workloads,
                                           session.engines().names()))
        jobs.push_back(Job::simulate(std::move(request)));
    return jobs;
}

ShuffledGrid
shuffledGrid(const Session &session, u64 seed)
{
    const std::vector<Job> grid = table4Grid(session);
    ShuffledGrid out;
    out.gridIndex.resize(grid.size());
    for (u32 i = 0; i < grid.size(); ++i)
        out.gridIndex[i] = i;
    Rng rng(seed);
    rng.shuffle(out.gridIndex);
    for (const u32 index : out.gridIndex)
        out.jobs.push_back(grid[index]);
    return out;
}

std::vector<JobResult>
inGridOrder(const ShuffledGrid &grid,
            const std::vector<JobResult> &results)
{
    std::vector<JobResult> out(grid.jobs.size());
    for (std::size_t i = 0; i < results.size() && i < out.size(); ++i)
        out[grid.gridIndex[i]] = results[i];
    return out;
}

Job
prefilterTwin(const Session &session, const Job &simulation)
{
    const sim::SimulationRequest &r = simulation.simulation;
    auto job = session.job()
                   .model("tune-prefilter")
                   .workload(r.label)
                   .engine(r.engine)
                   .param("pattern", r.patternN)
                   .param("of", r.outputForwarding ? 1.0 : 0.0)
                   .param("cblocking", r.cBlocking)
                   .option("kernel", sim::kernelVariantName(r.kernel))
                   .build();
    return *job;
}

} // namespace perfbench
