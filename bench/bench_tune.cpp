/**
 * @file
 * Search-quality-vs-budget bench for the sim::Tuner.
 *
 * For one workload's figure13 search space (45 valid points) the
 * bench first establishes ground truth -- the exhaustive full-replay
 * optimum -- and then runs both search strategies at a ladder of
 * replay budgets, recording each strategy's regret (best found /
 * true optimum - 1, in measured cycles per MAC) and funnel counts.
 * The rows land in the BENCH_replay.json trajectory as the "tune"
 * family of the current commit's entry (bench/trajectory.hpp), next
 * to the replay-throughput and service families.
 *
 * A second family, "tune_quick", measures what the cost model earns
 * on the `tune --quick` space (every quick workload, 405 valid
 * points): exhaustive search at each budget once with no persistent
 * store (the analytical prefilter alone ranks) and once with a store
 * warmed by a quick and a full Figure 13 sweep (the cost model
 * trained on its records re-ranks).
 *
 * Usage: bench_tune [--smoke] [--out FILE] [--commit KEY]
 *                   [--workload NAME] [--max-regret X]
 *
 * --max-regret X exits non-zero when the exhaustive strategy's
 * regret at the largest budget exceeds X -- the CI gate that the
 * analytical prefilter keeps finding the true optimum.
 */

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/session.hpp"
#include "sim/tune.hpp"
#include "trajectory.hpp"

using namespace vegeta;

namespace {

struct BudgetPoint
{
    u32 budget = 0;
    double exhaustiveCyclesPerMac = 0.0;
    double exhaustiveRegret = 0.0;
    double halvingCyclesPerMac = 0.0;
    double halvingRegret = 0.0;
    u64 analyzedPoints = 0;
    double seconds = 0.0;
};

double
bestCyclesPerMac(const sim::TuneReport &report)
{
    const auto *best = report.best();
    return best ? best->measuredCyclesPerMac : 0.0;
}

/** The replay-confirmed optimum of @p space: every point replayed. */
double
spaceOptimum(const sim::Session &session, const sim::TuneSpace &space)
{
    sim::TuneOptions options;
    options.strategy = sim::TuneStrategy::CappedExhaustive;
    options.budget.replays = u32(space.rawSize());
    return bestCyclesPerMac(sim::Tuner(session, options).run(space));
}

/** One budget of the quick-space comparison. */
struct QuickPoint
{
    u32 budget = 0;
    double coldExhaustiveRegret = 0.0;
    double coldHalvingRegret = 0.0;
    double warmExhaustiveRegret = 0.0;
    double warmTrainRmse = 0.0;
    u64 warmSamples = 0;
    double seconds = 0.0;
};

/**
 * The "tune_quick" family: regret on the `tune --quick` space with
 * no persistent store, and with one warmed by a quick and a full
 * Figure 13 sweep.  Each warm search starts from a fresh copy of the
 * warmed store, so no budget's replays train a later one.
 */
std::string
quickSpaceRows(const std::vector<u32> &budgets)
{
    namespace fs = std::filesystem;
    sim::Session cold;
    cold.enableCache(); // memory-only: the cost model stays off
    std::vector<std::string> quick;
    for (const auto &workload : cold.workloads().group("quick"))
        quick.push_back(workload.name);
    const auto space = sim::TuneSpace::full(cold, quick);
    const double optimum = spaceOptimum(cold, space);

    const fs::path root = fs::temp_directory_path() /
                          ("vegeta_bench_tune_" +
                           std::to_string(::getpid()));
    fs::remove_all(root);
    const fs::path warm_dir = root / "warm";
    u64 warm_records = 0;
    {
        sim::Session warm;
        const auto store = warm.attachDiskCache(warm_dir.string());
        for (const char *group : {"quick", "tableIV"}) {
            std::vector<std::string> names;
            for (const auto &workload : warm.workloads().group(group))
                names.push_back(workload.name);
            warm.runBatch(sim::figure13Grid(warm, names,
                                            warm.engines().names()));
        }
        warm_records = store->size();
    }
    std::printf("quick space: optimum %.6f cycles/MAC; warm store "
                "%llu records\n",
                optimum, static_cast<unsigned long long>(warm_records));

    std::vector<QuickPoint> points;
    u64 valid = 0;
    for (const u32 budget : budgets) {
        QuickPoint point;
        point.budget = budget;
        const auto t0 = bench::Clock::now();
        sim::TuneOptions options;
        options.budget.replays = budget;
        options.strategy = sim::TuneStrategy::CappedExhaustive;
        const auto exhaustive = sim::Tuner(cold, options).run(space);
        valid = exhaustive.validPoints;
        options.strategy = sim::TuneStrategy::RandomHalving;
        const auto halving = sim::Tuner(cold, options).run(space);

        const fs::path copy =
            root / ("budget" + std::to_string(budget));
        fs::copy(warm_dir, copy, fs::copy_options::recursive);
        sim::Session warm;
        warm.attachDiskCache(copy.string());
        options.strategy = sim::TuneStrategy::CappedExhaustive;
        const auto trained = sim::Tuner(warm, options).run(space);

        point.seconds = bench::seconds(t0, bench::Clock::now());
        point.coldExhaustiveRegret =
            bestCyclesPerMac(exhaustive) / optimum - 1.0;
        point.coldHalvingRegret =
            bestCyclesPerMac(halving) / optimum - 1.0;
        point.warmExhaustiveRegret =
            bestCyclesPerMac(trained) / optimum - 1.0;
        point.warmTrainRmse =
            trained.costModelUsed ? trained.costModelRmse : 0.0;
        point.warmSamples = trained.costModelSamples;
        points.push_back(point);
        std::printf("quick budget %2u: exhaustive regret %.4f cold, "
                    "%.4f warm (model on %llu samples, rmse %.4f); "
                    "halving regret %.4f cold (%.3fs)\n",
                    budget, point.coldExhaustiveRegret,
                    point.warmExhaustiveRegret,
                    static_cast<unsigned long long>(point.warmSamples),
                    point.warmTrainRmse, point.coldHalvingRegret,
                    point.seconds);
    }
    fs::remove_all(root);

    std::ostringstream rows;
    rows << "{\"space\": \"quick\", \"valid_points\": " << valid
         << ", \"optimum_cycles_per_mac\": " << optimum
         << ", \"warm_records\": " << warm_records
         << ", \"budgets\": [";
    for (std::size_t i = 0; i < points.size(); ++i)
        rows << (i ? ", " : "") << "{\"budget\": " << points[i].budget
             << ", \"cold_exhaustive_regret\": "
             << points[i].coldExhaustiveRegret
             << ", \"cold_halving_regret\": "
             << points[i].coldHalvingRegret
             << ", \"warm_exhaustive_regret\": "
             << points[i].warmExhaustiveRegret
             << ", \"warm_samples\": " << points[i].warmSamples
             << ", \"warm_train_rmse\": " << points[i].warmTrainRmse
             << ", \"seconds\": " << points[i].seconds << "}";
    rows << "]}";
    return rows.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_replay.json";
    std::string commit;
    std::string workload = "GPT-L3";
    double max_regret = -1.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--commit") {
            commit = next();
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--max-regret") {
            max_regret = std::atof(next().c_str());
        } else {
            std::cerr << "usage: bench_tune [--smoke] [--out FILE] "
                         "[--commit KEY] [--workload NAME] "
                         "[--max-regret X]\n";
            return 1;
        }
    }

    sim::Session session;
    session.enableCache(); // budgets share replays across runs
    if (!session.workloads().contains(workload)) {
        std::cerr << "unknown workload: " << workload << "\n";
        return 1;
    }
    const auto space = sim::TuneSpace::figure13(session, {workload});

    // Ground truth: replay every valid point.
    sim::TuneOptions truth_options;
    truth_options.strategy = sim::TuneStrategy::CappedExhaustive;
    truth_options.budget.replays = u32(space.rawSize());
    const auto truth =
        sim::Tuner(session, truth_options).run(space);
    if (!truth.best()) {
        std::cerr << "ground-truth sweep confirmed nothing\n";
        return 2;
    }
    const double optimum = truth.best()->measuredCyclesPerMac;
    std::printf("ground truth: %llu valid points, optimum %s at "
                "%.6f cycles/MAC\n",
                static_cast<unsigned long long>(truth.validPoints),
                sim::tunePointKey(truth.best()->point).c_str(),
                optimum);

    const std::vector<u32> budgets =
        smoke ? std::vector<u32>{1, 4} :
                std::vector<u32>{1, 2, 4, 8, 16};
    std::vector<BudgetPoint> points;
    for (const u32 budget : budgets) {
        BudgetPoint point;
        point.budget = budget;
        const auto t0 = bench::Clock::now();

        sim::TuneOptions options;
        options.budget.replays = budget;
        options.strategy = sim::TuneStrategy::CappedExhaustive;
        const auto exhaustive =
            sim::Tuner(session, options).run(space);
        options.strategy = sim::TuneStrategy::RandomHalving;
        const auto halving = sim::Tuner(session, options).run(space);

        point.seconds = bench::seconds(t0, bench::Clock::now());
        point.exhaustiveCyclesPerMac = bestCyclesPerMac(exhaustive);
        point.halvingCyclesPerMac = bestCyclesPerMac(halving);
        point.exhaustiveRegret =
            point.exhaustiveCyclesPerMac / optimum - 1.0;
        point.halvingRegret =
            point.halvingCyclesPerMac / optimum - 1.0;
        point.analyzedPoints = exhaustive.analyzedPoints;
        points.push_back(point);
        std::printf("budget %2u: exhaustive regret %.4f, halving "
                    "regret %.4f (%llu analyzed, %.3fs)\n",
                    budget, point.exhaustiveRegret,
                    point.halvingRegret,
                    static_cast<unsigned long long>(
                        point.analyzedPoints),
                    point.seconds);
    }

    // --- merge the "tune" row family into the trajectory -----------
    if (commit.empty())
        commit = bench::gitShortHead();
    std::ostringstream tune;
    tune << "{\"workload\": \"" << workload
         << "\", \"valid_points\": " << truth.validPoints
         << ", \"optimum_cycles_per_mac\": " << optimum
         << ", \"budgets\": [";
    for (std::size_t i = 0; i < points.size(); ++i)
        tune << (i ? ", " : "") << "{\"budget\": "
             << points[i].budget << ", \"analyzed\": "
             << points[i].analyzedPoints
             << ", \"exhaustive_regret\": "
             << points[i].exhaustiveRegret
             << ", \"halving_regret\": " << points[i].halvingRegret
             << ", \"seconds\": " << points[i].seconds << "}";
    tune << "]}";

    std::string entry;
    for (const auto &old :
         bench::trajectoryEntries(bench::readFileText(out_path)))
        if (bench::entryCommit(old) == commit)
            entry = old;
    if (entry.empty())
        entry = "{\"commit\": \"" + commit + "\", \"mode\": \"" +
                (smoke ? "smoke" : "full") + "\"}";
    entry = bench::upsertEntryField(entry, "tune", tune.str(),
                                    /*owned=*/true, nullptr);
    entry = bench::upsertEntryField(entry, "tune_quick",
                                    quickSpaceRows(budgets),
                                    /*owned=*/true, nullptr);
    std::size_t total_entries = 0;
    if (!bench::mergeTrajectoryEntry(out_path, commit, entry,
                                     &total_entries)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    }
    std::printf("wrote %s (%zu entries)\n", out_path.c_str(),
                total_entries);

    if (max_regret >= 0 &&
        points.back().exhaustiveRegret > max_regret) {
        std::cerr << "FAIL: exhaustive regret at budget "
                  << points.back().budget << " is "
                  << points.back().exhaustiveRegret
                  << ", above the required " << max_regret << "\n";
        return 1;
    }
    return 0;
}
