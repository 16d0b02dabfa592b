/**
 * @file
 * Regenerates Figure 13: normalized runtime of every evaluated engine
 * on the Table IV layers with 4:4 / 2:4 / 1:4 layer-wise sparsity
 * (core 2 GHz, engines 0.5 GHz, data prefetched to L2).
 *
 * Runtimes are normalized to the longest run (GPT-L3 on RASA-SM with
 * the dense pattern), exactly as in the paper.  The grid executes on
 * Session::runBatch across all hardware threads (results
 * are bit-identical to a single-threaded run, cache on or off).  Pass
 * --quick for a reduced workload set, --threads N to override the
 * pool size, --no-cache to disable result caching (the geomean
 * summaries re-simulate their baselines instead of reusing the grid's
 * results), and --cache-dir DIR to attach the persistent result
 * cache (a second run replays nothing).
 */

#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "sim/session.hpp"

int
main(int argc, char **argv)
{
    using namespace vegeta;

    bool quick = false;
    bool use_cache = true;
    std::string cache_dir;
    u32 threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--no-cache") == 0) {
            use_cache = false;
        } else if (std::strcmp(argv[i], "--cache-dir") == 0 &&
                   i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            const auto parsed = sim::parseU32(argv[++i]);
            if (!parsed || *parsed == 0) {
                std::cerr << "error: --threads expects a positive "
                             "integer, got '"
                          << argv[i] << "'\n";
                return 1;
            }
            threads = *parsed;
        } else {
            std::cerr << "usage: bench_fig13_runtime [--quick] "
                         "[--threads N] [--no-cache] "
                         "[--cache-dir DIR]\n";
            return std::strcmp(argv[i], "--help") == 0 ? 0 : 1;
        }
    }

    sim::Session simulator;
    if (use_cache)
        simulator.enableCache();
    if (!cache_dir.empty() &&
        !simulator.attachDiskCache(cache_dir)->ok()) {
        std::cerr << "cannot open cache dir: " << cache_dir << "\n";
        return 1;
    }
    const auto workloads =
        simulator.workloads().group(quick ? "quick" : "tableIV");
    std::vector<std::string> workload_names;
    for (const auto &w : workloads)
        workload_names.push_back(w.name);
    const auto engine_names = simulator.engines().names();

    const u32 pool =
        threads != 0
            ? threads
            : std::max(1u, std::thread::hardware_concurrency());
    std::cout << "Figure 13: normalized runtime, "
              << (quick ? "quick" : "full Table IV") << " workloads ("
              << pool << " sweep threads)\n"
              << "(engines at 0.5 GHz via 4x clock divider; lower is "
                 "better; normalized to the longest run)\n\n";

    const auto grid =
        sim::figure13Grid(simulator, workload_names, engine_names);
    const auto results = simulator.runBatch(grid, threads);

    // Normalize to the longest runtime (paper: GPT-L3 on RASA-SM).
    Cycles longest = 0;
    std::string longest_label;
    for (const auto &r : results) {
        if (r.coreCycles > longest) {
            longest = r.coreCycles;
            longest_label = r.workload + " on " + r.engine;
        }
    }
    std::cout << "Longest run (normalization base): " << longest_label
              << " = " << longest << " core cycles\n\n";

    for (u32 layer_n : {4u, 2u, 1u}) {
        std::cout << "--- Layer-wise " << layer_n << ":4 sparsity ---\n";
        std::vector<std::string> headers{"engine"};
        for (const auto &name : workload_names)
            headers.push_back(name);
        Table table(headers);

        // Collect rows per engine variant (name + OF flag).
        std::vector<std::pair<std::string, bool>> variants;
        for (const auto &e : simulator.engines().configs()) {
            variants.emplace_back(e.name, false);
            if (e.sparse)
                variants.emplace_back(e.name, true);
        }
        for (const auto &[name, of] : variants) {
            table.row().cell(of ? name + " +OF" : name);
            for (const auto &workload : workload_names) {
                for (const auto &r : results) {
                    if (r.engine == name && r.workload == workload &&
                        r.layerN == layer_n &&
                        r.outputForwarding == of) {
                        table.cell(static_cast<double>(r.coreCycles) /
                                       static_cast<double>(longest),
                                   4);
                    }
                }
            }
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // Geomean speed-ups vs the RASA-DM dense baseline (headline).
    std::cout << "Geomean speed-up of VEGETA-S-16-2 (+OF) over "
                 "RASA-DM (VEGETA-D-1-2):\n";
    Table summary({"pattern", "speedup", "paper"});
    const struct
    {
        u32 n;
        const char *paper;
    } rows[] = {{4, "1.09x"}, {2, "2.20x"}, {1, "3.74x"}};
    for (const auto &r : rows) {
        const double s = sim::geomeanSpeedup(
            simulator, workload_names, r.n, "VEGETA-S-16-2",
            /*output_forwarding=*/true, "VEGETA-D-1-2", threads);
        summary.row()
            .cell(std::to_string(r.n) + ":4")
            .cell(s, 2)
            .cell(r.paper);
    }
    summary.print(std::cout);

    if (const auto &cache = simulator.cache()) {
        const auto stats = cache->stats();
        std::cout << "\nResult cache: " << stats.insertions
                  << " unique simulations, " << stats.hits
                  << " hits (geomean summaries reuse the grid's "
                     "runs)\n";
        if (cache->persistent())
            std::cout << "Persistent cache: " << cache->size()
                      << " entries ("
                      << simulator.simulationsPerformed()
                      << " traces actually simulated)\n";
    }
    return 0;
}
