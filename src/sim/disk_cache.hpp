/**
 * @file
 * The session's one result store.
 *
 * Simulation and analysis are pure functions of their jobs, so one
 * memoized JobResult per canonical job key is the only cache the
 * model needs: the Figure 13 grid, its geomean summaries, the
 * analytical figures and the tuner all resolve to the same keys.  A
 * DiskResultCache maps a jobKey (sim/job.hpp: "sim|" + cacheKey or
 * "ana|" + analyticalKey) to its JobResult -- the keys a batch plan
 * already holds, so a probe is one find and a commit one insert.
 * Equal keys imply bit-identical results, so consulting the store
 * never changes an answer -- only how often the model actually runs.
 *
 * The store has two modes.  Built without a directory it is a
 * memory-only map that never touches the file system and dies with
 * the process.  Built with one it also persists every entry as a
 * kind-tagged record (one per line: tag, the key less its kind
 * prefix, the result, a checksum; sim/serial.hpp) in a
 * version-headed text file under that directory, so a warm sweep in
 * a later process replays nothing.
 *
 * The load path is corruption-tolerant by construction: a missing
 * file is an empty cache, a version-mismatched header (including a v1
 * file from before analytical records existed) invalidates the whole
 * file (it is rewritten on the next insert), and a truncated or
 * corrupt record -- including silent bit rot inside a value field,
 * caught by a per-record checksum -- is skipped, so a damaged cache
 * can only cause misses, never wrong results.  Doubles round-trip
 * through their raw bit pattern so persisted results stay bit-for-bit
 * identical to freshly computed ones.
 *
 * Within one batch the store is read once (the plan's probe) and
 * written once (the commit: one insert of every miss, in batch
 * order, persisted as one locked append), both by the process that
 * owns the batch; pool and service workers never touch it.  mergeFrom
 * writes through the same insert.  Appends take an exclusive flock()
 * on the backing file, so separate processes that open one directory
 * interleave whole records, never torn ones; combined with
 * first-insert-wins load semantics, such writers are safe by
 * construction.  The append-only file can be bounded with prune():
 * keep the most-recently-appended entries under a byte and/or entry
 * budget and compact the file in place.
 */

#ifndef VEGETA_SIM_DISK_CACHE_HPP
#define VEGETA_SIM_DISK_CACHE_HPP

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/job.hpp"

namespace vegeta::sim {

/** Traffic and load-time health counters of a DiskResultCache. */
struct DiskCacheStats
{
    u64 hits = 0;       ///< find() hits
    u64 misses = 0;     ///< find() misses
    u64 insertions = 0; ///< records stored by this process
    u64 loaded = 0;     ///< valid records read from disk on open
    u64 rejected = 0;   ///< corrupt/truncated records skipped on open
    bool versionMismatch = false; ///< whole file ignored on open

    u64 simulationEntries = 0; ///< cached simulation results
    u64 analysisEntries = 0;   ///< cached analytical results
    u64 fileBytes = 0;         ///< current size of the backing file

    /** Bytes the most recent prune() reclaimed (persisted in the
     *  cache directory, so it survives across processes). */
    u64 lastPruneBytes = 0;

    /** hits / (hits + misses) of this process (0 with no traffic). */
    double hitRate() const
    {
        const u64 total = hits + misses;
        return total == 0 ? 0.0
                          : double(hits) / double(total);
    }
};

/** What prune() kept and dropped. */
struct DiskCachePrune
{
    u64 kept = 0;
    u64 dropped = 0;
    u64 fileBytes = 0;      ///< backing-file size after compaction
    u64 reclaimedBytes = 0; ///< backing-file bytes freed
};

/** What one mergeFrom() call added and skipped. */
struct DiskCacheMerge
{
    u64 added = 0;   ///< entries new to the destination
    u64 skipped = 0; ///< entries the destination already had
};

/**
 * Thread-safe map from jobKeys to JobResults, optionally backed by
 * `<directory>/results.vgc`.  A persistent store reads the file once
 * on construction and appends to it on insert, so a later session
 * pointed at the same directory shares its results.  First insert
 * wins: equal keys imply equal results, so a later insert under a
 * held key is a no-op.
 */
class DiskResultCache
{
  public:
    /** A memory-only store: no directory, no file, ever. */
    DiskResultCache() = default;

    /**
     * Open (creating the directory and file as needed) a persistent
     * store under @p directory.  Check ok() before relying on
     * persistence; a store that failed to open still works as a
     * memory-only map.
     */
    explicit DiskResultCache(const std::string &directory);

    /** False when the directory/file could not be created or read. */
    bool ok() const { return ok_; }

    /** True when built with a directory (entries persist). */
    bool persistent() const { return !directory_.empty(); }

    /** The backing directory ("" for a memory-only store). */
    const std::string &directory() const { return directory_; }

    /** Full path of the backing file ("" for a memory-only store). */
    const std::string &filePath() const { return file_; }

    /** The result stored under @p job_key, or nullopt (counts a
     *  hit or a miss). */
    std::optional<JobResult> find(const std::string &job_key) const;

    /**
     * Store every record whose key the store does not hold yet, in
     * order; first insert wins, also for a key repeated within
     * @p records.  Each key must be its result's jobKey (kind prefix
     * included).  A persistent store writes the new records with one
     * locked append (one rewrite while a rewrite is pending).
     * Returns how many records were new.
     */
    u64 insert(JobRecords records);

    /** Total cached entries (simulation + analysis). */
    std::size_t size() const;

    /**
     * Every cached simulation entry as (canonical cacheKey, result)
     * pairs, in append order -- the deterministic training harvest
     * of the tuner's cost model (sim/cost_model.hpp).
     */
    std::vector<std::pair<std::string, SimulationResult>>
    simulationEntries() const;

    /** Drop every entry and truncate the backing file. */
    void clear();

    /**
     * Bound the cache: keep the most-recently-appended entries whose
     * records fit under @p max_bytes (backing-file bytes, header
     * included) and @p max_entries, drop the rest, and compact the
     * backing file.  Nullopt means unbounded in that dimension.
     */
    DiskCachePrune prune(std::optional<u64> max_bytes,
                         std::optional<u64> max_entries);

    /**
     * Union another cache into this one: insert() of every entry of
     * @p source, in the source's append order.  Keys already present
     * keep THIS cache's result, exactly like a concurrent writer
     * losing the insert race.
     */
    DiskCacheMerge mergeFrom(const DiskResultCache &source);

    DiskCacheStats stats() const;

    /** The on-disk format version tag this build reads and writes. */
    static const char *formatHeader();

  private:
    void load();
    void loadLastPrune();
    void saveLastPruneLocked(u64 reclaimed);
    bool rewriteLocked();
    bool appendLocked(const std::string &records);
    u64 fileBytesLocked() const;

    std::string directory_;
    std::string file_;
    std::string prune_note_file_;
    bool ok_ = true;
    bool needs_rewrite_ = false;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, JobResult> entries_;

    /** Keys in append order (oldest first) -- what prune() evicts
     *  from. */
    std::vector<std::string> order_;

    mutable u64 hits_ = 0;
    mutable u64 misses_ = 0;
    u64 last_prune_bytes_ = 0;
    u64 insertions_ = 0;
    u64 loaded_ = 0;
    u64 rejected_ = 0;
    bool version_mismatch_ = false;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_DISK_CACHE_HPP
