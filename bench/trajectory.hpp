/**
 * @file
 * Shared plumbing for the BENCH_replay.json trajectory.
 *
 * The trajectory is an append-only series of one compact JSON object
 * per line, keyed by commit; every bench that contributes a row
 * family (replay throughput, the simulation service) goes through
 * these helpers so the entry/merge/rewrite logic exists once.  Two
 * benches running against the same --out file cooperate: each
 * replaces only its own fields inside the same-commit entry
 * (upsertEntryField) instead of clobbering the other's numbers.
 */

#ifndef VEGETA_BENCH_TRAJECTORY_HPP
#define VEGETA_BENCH_TRAJECTORY_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace vegeta::bench {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / values.size());
}

/** Linear-interpolated quantile @p q (0..1) of a sample. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * (values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

/**
 * Fixed-work integer loop (Mops/s): a machine-speed yardstick so a
 * committed baseline from one machine can gate CI runs on another.
 */
inline double
calibrationMops()
{
    volatile unsigned long long sink = 0;
    const unsigned long long iters = 50'000'000;
    unsigned long long h = 0xcbf29ce484222325ull;
    const auto t0 = Clock::now();
    for (unsigned long long i = 0; i < iters; ++i)
        h = (h ^ i) * 0x100000001b3ull;
    const auto t1 = Clock::now();
    sink = h;
    (void)sink;
    return iters / seconds(t0, t1) / 1e6;
}

/** Minimal scan for `"key": <number>` in a JSON text. */
inline bool
findJsonNumber(const std::string &text, const std::string &key,
               double *value)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    *value = std::strtod(text.c_str() + pos + needle.size(), nullptr);
    return true;
}

inline std::string
readFileText(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return "";
    std::stringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

/** `git rev-parse --short HEAD`, or "local" off a checkout. */
inline std::string
gitShortHead()
{
    FILE *pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (!pipe)
        return "local";
    char buf[64] = {0};
    const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
    pclose(pipe);
    if (!got)
        return "local";
    std::string head(buf);
    while (!head.empty() &&
           (head.back() == '\n' || head.back() == '\r'))
        head.pop_back();
    return head.empty() ? "local" : head;
}

/**
 * The trajectory's entry lines (one compact JSON object per line,
 * oldest first).  An old single-point file converts into one entry
 * keyed "pre-trajectory"; anything unrecognizable yields no entries
 * (the file is rewritten from scratch).
 */
inline std::vector<std::string>
trajectoryEntries(const std::string &text)
{
    std::vector<std::string> entries;
    if (text.find("\"bench\": \"replay_trajectory\"") !=
        std::string::npos) {
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line)) {
            const auto start = line.find_first_not_of(" \t");
            if (start == std::string::npos ||
                line.compare(start, 10, "{\"commit\":") != 0)
                continue;
            auto end = line.find_last_of('}');
            if (end == std::string::npos)
                continue;
            entries.push_back(line.substr(start, end - start + 1));
        }
        return entries;
    }
    if (text.find("\"bench\": \"replay_throughput\"") !=
        std::string::npos) {
        // Old single-point format: compact it into one entry line.
        std::string flat;
        flat.reserve(text.size());
        bool in_space = false;
        for (const char c : text) {
            if (c == '\n' || c == '\r' || c == ' ' || c == '\t') {
                in_space = true;
                continue;
            }
            if (in_space && !flat.empty() && flat.back() != '{' &&
                flat.back() != '[' && c != '}' && c != ']')
                flat += ' ';
            in_space = false;
            flat += c;
        }
        const auto brace = flat.find('{');
        if (brace != std::string::npos)
            entries.push_back("{\"commit\": \"pre-trajectory\", " +
                              flat.substr(brace + 1));
    }
    return entries;
}

/** The commit key of an entry line ("" if unparsable). */
inline std::string
entryCommit(const std::string &entry)
{
    const std::string needle = "\"commit\": \"";
    const auto pos = entry.find(needle);
    if (pos == std::string::npos)
        return "";
    const auto start = pos + needle.size();
    const auto end = entry.find('"', start);
    if (end == std::string::npos)
        return "";
    return entry.substr(start, end - start);
}

/**
 * Insert or replace one top-level `"key": <value>` field inside a
 * compact entry line, where <value> is a complete JSON value (the
 * replacement scans balanced braces/brackets, string-aware).  Lets a
 * second bench add its row family to an existing commit's entry
 * without touching the fields the first bench wrote.
 *
 * Ownership guard: pass @p owned = true only for the one row family
 * this bench writes -- a re-run may refresh its own numbers.  With
 * @p owned = false (carrying over another bench's field), a key that
 * is already present with a DIFFERENT value is a merge conflict: the
 * entry is returned unchanged and *conflict describes the collision
 * instead of silently clobbering one bench's numbers with the
 * other's.  An identical value is always an idempotent no-op.
 */
inline std::string
upsertEntryField(const std::string &entry, const std::string &key,
                 const std::string &json_value, bool owned,
                 std::string *conflict)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = entry.find(needle);
    if (pos == std::string::npos) {
        // Append before the final '}'.
        const auto end = entry.find_last_of('}');
        if (end == std::string::npos)
            return entry;
        return entry.substr(0, end) + ", " + needle + json_value +
               "}";
    }
    // Find the value's extent: balanced {}/[] outside strings, or a
    // scalar running to the next top-level ',' or '}'.
    std::size_t i = pos + needle.size();
    int depth = 0;
    bool in_string = false;
    std::size_t end = entry.size();
    for (; i < entry.size(); ++i) {
        const char c = entry[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (depth == 0) {
                end = i;
                break;
            }
            if (--depth == 0) {
                end = i + 1;
                break;
            }
        } else if (c == ',' && depth == 0) {
            end = i;
            break;
        }
    }
    const std::string existing =
        entry.substr(pos + needle.size(), end - pos - needle.size());
    if (existing == json_value)
        return entry;
    if (!owned) {
        if (conflict)
            *conflict = "conflicting values for \"" + key +
                        "\": entry holds " + existing +
                        " but the merge wants " + json_value;
        return entry;
    }
    return entry.substr(0, pos + needle.size()) + json_value +
           entry.substr(end);
}

/**
 * The complete JSON value of a top-level `"key": <value>` field in a
 * compact entry line ("" when absent).  The counterpart of
 * upsertEntryField: a bench re-running its own row family extracts
 * the other benches' fields from the old entry and carries them
 * over.
 */
inline std::string
extractEntryField(const std::string &entry, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = entry.find(needle);
    if (pos == std::string::npos)
        return "";
    std::size_t i = pos + needle.size();
    int depth = 0;
    bool in_string = false;
    std::size_t end = entry.size();
    for (; i < entry.size(); ++i) {
        const char c = entry[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (depth == 0) {
                end = i;
                break;
            }
            if (--depth == 0) {
                end = i + 1;
                break;
            }
        } else if (c == ',' && depth == 0) {
            end = i;
            break;
        }
    }
    return entry.substr(pos + needle.size(),
                        end - pos - needle.size());
}

/**
 * Merge @p entry into the trajectory at @p path under @p commit --
 * existing same-commit entries are replaced, everything else kept --
 * and rewrite the file.  Returns false when the file cannot be
 * written.
 */
inline bool
mergeTrajectoryEntry(const std::string &path,
                     const std::string &commit,
                     const std::string &entry,
                     std::size_t *total_entries = nullptr)
{
    std::vector<std::string> entries =
        trajectoryEntries(readFileText(path));
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const std::string &e) {
                                     return entryCommit(e) == commit;
                                 }),
                  entries.end());
    entries.push_back(entry);
    if (total_entries)
        *total_entries = entries.size();

    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\n  \"bench\": \"replay_trajectory\",\n  \"entries\": "
          "[\n";
    for (std::size_t i = 0; i < entries.size(); ++i)
        os << "    " << entries[i]
           << (i + 1 < entries.size() ? "," : "") << "\n";
    os << "  ]\n}\n";
    return bool(os);
}

} // namespace vegeta::bench

#endif // VEGETA_BENCH_TRAJECTORY_HPP
