#include "sim/disk_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "sim/serial.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

namespace {

// Records stored by insert().  Lookups are counted by their one
// caller, the Session (session.cache.hit/miss).
void
countCacheInserts(u64 records)
{
    static const telemetry::MetricId id =
        telemetry::counterId("cache.insert");
    telemetry::add(id, records);
}

/** One store record as a line: tag, cut key, result, checksum. */
std::string
recordLine(const std::string &job_key, const JobResult &result)
{
    serial::FieldWriter writer;
    serial::appendJobResult(writer, result, &job_key);
    return writer.line();
}

/**
 * RAII exclusive flock over the backing file, creating it as needed.
 * Separate processes that open one directory (two sweeps, or a sweep
 * and a server) serialize on this lock, so records are appended
 * whole -- the explicit spelling of the "first-insert-wins appends
 * from several processes are safe" guarantee.
 */
class LockedFile
{
  public:
    explicit LockedFile(const std::string &path)
    {
        fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC,
                     0644);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~LockedFile()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    bool ok() const { return fd_ >= 0; }

    /** Size of the locked file (0 on error). */
    u64 size() const
    {
        struct stat st = {};
        if (::fstat(fd_, &st) != 0)
            return 0;
        return static_cast<u64>(st.st_size);
    }

    /** Append the whole text at the end (short writes retried). */
    bool append(const std::string &text)
    {
        if (::lseek(fd_, 0, SEEK_END) < 0)
            return false;
        return writeAll(text);
    }

    /** Replace the whole contents with text. */
    bool replace(const std::string &text)
    {
        if (::ftruncate(fd_, 0) != 0 ||
            ::lseek(fd_, 0, SEEK_SET) < 0)
            return false;
        return writeAll(text);
    }

  private:
    bool writeAll(const std::string &text)
    {
        const char *data = text.data();
        std::size_t left = text.size();
        while (left > 0) {
            const ssize_t n = ::write(fd_, data, left);
            if (n <= 0)
                return false;
            data += n;
            left -= static_cast<std::size_t>(n);
        }
        return true;
    }

    int fd_ = -1;
};

} // namespace

const char *
DiskResultCache::formatHeader()
{
    return "vegeta-result-cache v2";
}

DiskResultCache::DiskResultCache(const std::string &directory)
    : directory_(directory)
{
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    file_ = (std::filesystem::path(directory_) / "results.vgc")
                .string();
    prune_note_file_ =
        (std::filesystem::path(directory_) / "last_prune.vgc")
            .string();
    ok_ = !ec && std::filesystem::is_directory(directory_);
    if (ok_) {
        load();
        loadLastPrune();
    }
}

void
DiskResultCache::loadLastPrune()
{
    std::ifstream is(prune_note_file_);
    if (!is)
        return; // never pruned: 0
    std::string line;
    if (!std::getline(is, line))
        return;
    auto fields = serial::checkedFields(line);
    if (!fields)
        return; // corrupt note degrades to 0, never to an error
    serial::FieldReader reader(std::move(*fields));
    if (reader.raw() != "lastprune")
        return;
    const u64 bytes = reader.num();
    if (reader.done())
        last_prune_bytes_ = bytes;
}

void
DiskResultCache::saveLastPruneLocked(u64 reclaimed)
{
    last_prune_bytes_ = reclaimed;
    if (!persistent())
        return;
    std::ofstream os(prune_note_file_, std::ios::trunc);
    if (!os)
        return; // stats fall back to this process's value
    serial::FieldWriter writer;
    writer.raw("lastprune").num(reclaimed);
    os << writer.line() << '\n';
}

void
DiskResultCache::load()
{
    std::ifstream is(file_);
    if (!is)
        return; // no file yet: an empty cache, created on insert

    std::string line;
    if (!std::getline(is, line) || line != formatHeader()) {
        // Unknown, old, or future format: never guess at its
        // records.  The file is rewritten wholesale on the next
        // insert.
        version_mismatch_ = true;
        needs_rewrite_ = true;
        return;
    }
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        auto fields = serial::checkedFields(line);
        if (!fields) {
            ++rejected_; // truncated tail or bit rot: a miss, not an
            continue;    // error -- the entry just re-simulates
        }
        serial::FieldReader reader(std::move(*fields));
        std::string key;
        JobResult result;
        if (!serial::readJobResult(reader, &result, &key) ||
            !reader.done()) {
            ++rejected_;
            continue;
        }
        if (entries_.try_emplace(key, std::move(result)).second) {
            order_.push_back(std::move(key));
            ++loaded_;
        }
    }
}

std::optional<JobResult>
DiskResultCache::find(const std::string &job_key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(job_key);
    if (it == entries_.end()) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    return it->second;
}

u64
DiskResultCache::insert(JobRecords records)
{
    std::lock_guard<std::mutex> lock(mutex_);
    u64 added = 0;
    std::string appended;
    for (auto &[key, result] : records) {
        const auto [it, inserted] =
            entries_.try_emplace(std::move(key), std::move(result));
        if (!inserted)
            continue;
        order_.push_back(it->first);
        ++added;
        if (persistent() && !needs_rewrite_) {
            appended += recordLine(it->first, it->second);
            appended += '\n';
        }
    }
    if (added == 0)
        return 0;
    insertions_ += added;
    countCacheInserts(added);
    if (needs_rewrite_) {
        if (rewriteLocked())
            needs_rewrite_ = false;
    } else {
        appendLocked(appended);
    }
    return added;
}

bool
DiskResultCache::rewriteLocked()
{
    if (!persistent())
        return true;
    std::string text = formatHeader();
    text += '\n';
    for (const auto &key : order_) {
        text += recordLine(key, entries_.at(key));
        text += '\n';
    }
    LockedFile file(file_);
    return file.ok() && file.replace(text);
}

bool
DiskResultCache::appendLocked(const std::string &records)
{
    if (!persistent())
        return true;
    LockedFile file(file_);
    if (!file.ok())
        return false;
    // The header check happens under the lock, so of N concurrent
    // writer processes racing to create the file exactly one writes
    // the header.
    if (file.size() == 0 &&
        !file.append(std::string(formatHeader()) + '\n'))
        return false;
    return file.append(records);
}

std::size_t
DiskResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<std::pair<std::string, SimulationResult>>
DiskResultCache::simulationEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, SimulationResult>> out;
    out.reserve(entries_.size());
    // Walk the append order, not the hash map: the harvest must be
    // deterministic for a given cache file so cost-model training
    // (and therefore tuner ranking) is reproducible.
    for (const auto &key : order_) {
        const JobResult &result = entries_.at(key);
        if (result.kind == JobKind::Simulation)
            out.emplace_back(key.substr(kSimulationKeyPrefix.size()),
                             result.simulation);
    }
    return out;
}

void
DiskResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    order_.clear();
    // If truncation fails the stale file still holds every record:
    // keep the rewrite pending so the next insert retries it rather
    // than appending to (and thereby resurrecting) the old contents.
    needs_rewrite_ = !rewriteLocked();
}

DiskCachePrune
DiskResultCache::prune(std::optional<u64> max_bytes,
                       std::optional<u64> max_entries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DiskCachePrune pruned;
    const u64 bytes_before = fileBytesLocked();

    // Walk newest-to-oldest accumulating record sizes; the kept set
    // is the longest most-recent suffix fitting both budgets.
    const u64 header_bytes =
        static_cast<u64>(std::string(formatHeader()).size()) + 1;
    u64 bytes = header_bytes;
    std::size_t keep_from = order_.size();
    while (keep_from > 0) {
        const std::string &key = order_[keep_from - 1];
        const u64 record_bytes =
            static_cast<u64>(recordLine(key, entries_.at(key)).size()) +
            1;
        const u64 kept_count = order_.size() - keep_from + 1;
        if (max_entries && kept_count > *max_entries)
            break;
        if (max_bytes && bytes + record_bytes > *max_bytes)
            break;
        bytes += record_bytes;
        --keep_from;
    }

    pruned.dropped = keep_from;
    pruned.kept = order_.size() - keep_from;
    for (std::size_t i = 0; i < keep_from; ++i)
        entries_.erase(order_[i]);
    order_.erase(order_.begin(),
                 order_.begin() +
                     static_cast<std::ptrdiff_t>(keep_from));
    // Compact also when nothing was dropped but the physical file is
    // bigger than the kept set -- duplicate lines from concurrent
    // appenders or rejected records would otherwise keep the file
    // over a byte budget the entries themselves fit in.
    if (keep_from > 0 || fileBytesLocked() > bytes)
        needs_rewrite_ = !rewriteLocked();
    pruned.fileBytes = fileBytesLocked();
    pruned.reclaimedBytes = bytes_before > pruned.fileBytes
                                ? bytes_before - pruned.fileBytes
                                : 0;
    saveLastPruneLocked(pruned.reclaimedBytes);
    return pruned;
}

DiskCacheMerge
DiskResultCache::mergeFrom(const DiskResultCache &source)
{
    // Snapshot the source under ITS lock, then insert under ours --
    // the two locks are never held together, so two caches merging
    // from each other cannot deadlock.
    JobRecords records;
    {
        std::lock_guard<std::mutex> lock(source.mutex_);
        records.reserve(source.order_.size());
        for (const auto &key : source.order_)
            records.emplace_back(key, source.entries_.at(key));
    }
    const u64 offered = records.size();
    DiskCacheMerge merge;
    merge.added = insert(std::move(records));
    merge.skipped = offered - merge.added;
    return merge;
}

u64
DiskResultCache::fileBytesLocked() const
{
    if (!persistent())
        return 0;
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(file_, ec);
    return ec ? 0 : static_cast<u64>(bytes);
}

DiskCacheStats
DiskResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    DiskCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.insertions = insertions_;
    stats.loaded = loaded_;
    stats.rejected = rejected_;
    stats.versionMismatch = version_mismatch_;
    for (const auto &entry : entries_) {
        if (entry.second.kind == JobKind::Analysis)
            ++stats.analysisEntries;
        else
            ++stats.simulationEntries;
    }
    stats.fileBytes = fileBytesLocked();
    stats.lastPruneBytes = last_prune_bytes_;
    return stats;
}

} // namespace vegeta::sim
