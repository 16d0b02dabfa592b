/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   vegeta_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --reference FILE [--trace-out FILE]
 *
 * Prints progress and the correctness judge on stderr and, as the
 * last line of stdout, one JSON object: correct, attempted, failed and
 * the metrics (end-to-end with --trace 0, per-layer with --trace 1).
 * The binary is also its own process-pool worker: the pool re-enters
 * it with "worker" as the first argument.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "sim/pool.hpp"
#include "sim/telemetry.hpp"

namespace perfbench {

using namespace vegeta;

void
judgeTable4(const Options &opts,
            const std::vector<JobResult> &grid_results, Report &report)
{
    const std::string digest = digestHex(resultBytes(grid_results));
    std::string expected;
    std::ifstream(opts.referenceFile) >> expected;
    report.check(digest == expected, grid_results.size(),
                 "table4 result digest " + digest + " != reference " +
                     expected);

    static bool printed = false;
    if (printed)
        return;
    printed = true;
    std::cerr << "perfbench: table4 result digest " << digest << "\n";
    // The abstract's speed-ups: VEGETA-S-16-2 with output forwarding
    // over VEGETA-D-1-2, geomean over the Table IV layers.  Simulated
    // cycles, so the figures do not depend on the host.
    const struct
    {
        u32 pattern;
        double paper;
    } rows[] = {{4, 1.09}, {2, 2.20}, {1, 3.74}};
    for (const auto &row : rows) {
        double log_sum = 0;
        int n = 0;
        for (const auto &base : grid_results) {
            const auto &b = base.simulation;
            if (b.engine != "VEGETA-D-1-2" || b.layerN != row.pattern)
                continue;
            for (const auto &other : grid_results) {
                const auto &s = other.simulation;
                if (s.engine == "VEGETA-S-16-2" &&
                    s.workload == b.workload &&
                    s.layerN == row.pattern && s.outputForwarding) {
                    log_sum += std::log(double(b.coreCycles) /
                                        double(s.coreCycles));
                    ++n;
                }
            }
        }
        const double speedup = n ? std::exp(log_sum / n) : 0.0;
        std::fprintf(stderr,
                     "perfbench: %u:4 geomean speed-up %.2fx over "
                     "%d layers (paper %.2fx, error %+.0f%%)\n",
                     row.pattern, speedup, n, row.paper,
                     100.0 * (speedup / row.paper - 1.0));
    }
}

namespace {

int
usage(const char *why)
{
    std::cerr << "vegeta_perfbench: " << why
              << "\nusage: vegeta_perfbench --workload "
                 "table4-sweep|table4-pooled --seed N "
                 "--seconds S --trace 0|1 --reference FILE "
                 "[--trace-out FILE]\n";
    return 2;
}

void
printResult(const Report &report)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                report.failed == 0 && report.attempted > 0 ? "true"
                                                           : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    const char *sep = "";
    for (const auto &[name, metric] : report.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    sep, name.c_str(), metric.first,
                    metric.second.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc > 1 && std::string(argv[1]) == "worker")
        return vegeta::sim::poolWorkerMain(
            std::vector<std::string>(argv + 2, argv + argc));

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::stoull(value);
        else if (arg == "--seconds")
            opts.seconds = std::stod(value);
        else if (arg == "--trace")
            opts.trace = value == "1";
        else if (arg == "--reference")
            opts.referenceFile = value;
        else if (arg == "--trace-out")
            opts.traceOut = value;
        else
            return usage(("unknown flag " + arg).c_str());
    }
    if (opts.referenceFile.empty())
        return usage("--reference is required");

    vegeta::telemetry::setTraceEnabled(false);
    Report report;
    EndToEnd e2e;
    if (opts.workload == "table4-sweep")
        e2e = runTable4Sweep(opts, report);
    else if (opts.workload == "table4-pooled")
        e2e = runTable4Pooled(opts, report);
    else
        return usage(("unknown workload " + opts.workload).c_str());

    if (opts.trace)
        runLadder(opts, e2e, report);
    printResult(report);
    return 0;
}
