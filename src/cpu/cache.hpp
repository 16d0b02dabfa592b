/**
 * @file
 * Simple data-cache latency model.
 *
 * The Figure 13 experiments assume the working set is prefetched into
 * the L2 cache (Section VI-B), so the model is a set-associative L1D
 * with LRU backed by an always-hitting L2: the first touch of a line
 * pays the L2 hit latency, re-references within L1 residency pay the
 * L1 latency.
 *
 * Tags live in one contiguous array of l1Sets x l1Ways entries, no
 * allocation after construction.  Each set is a *circular* MRU list:
 * a per-set head index marks the MRU slot and logical recency
 * position d lives at physical slot (head + d) % ways.  A miss then
 * inserts by stepping the head back and overwriting the LRU tail in
 * place -- one store -- where a flat MRU array shifts ways-1 words
 * per miss; the GEMM streams miss almost always, so the miss path is
 * the one that pays.  Hits rotate the short logical prefix.  The
 * hit/miss sequence is exact LRU either way.
 */

#ifndef VEGETA_CPU_CACHE_HPP
#define VEGETA_CPU_CACHE_HPP

#include <vector>

#include "common/types.hpp"

namespace vegeta::cpu {

struct CacheConfig
{
    u32 lineBytes = 64;     ///< must be a power of two
    u32 l1Sets = 64;        ///< must be a power of two
    u32 l1Ways = 12;        ///< 48 KB L1D
    Cycles l1Latency = 4;
    Cycles l2Latency = 14;  ///< all misses hit in the prefetched L2

    bool operator==(const CacheConfig &) const = default;
};

/** L1-with-L2-backing latency model. */
class CacheModel
{
  public:
    explicit CacheModel(CacheConfig config = {});

    /**
     * Access one line-aligned address; returns the load-use latency.
     * Defined inline: the replayer probes once per touched cache
     * line, the hottest call site in the simulator.
     */
    Cycles
    accessLine(Addr addr)
    {
        // lineBytes / l1Sets are powers of two (checked at
        // construction): shift + mask instead of runtime div/mod,
        // which would otherwise dominate the per-line cost.
        const u64 line = addr >> line_shift_;
        const u32 ways = config_.l1Ways;
        const u64 set_idx = line & set_mask_;
        u64 *set = tags_.data() + set_idx * ways;
        u32 *head = heads_.data() + set_idx;

        // Branchless fixed-length scan over the physical slots (a tag
        // can match at most one way; empty ways hold kInvalidTag and
        // never match; recency order does not affect matching).
        u32 hit_way = ways;
        for (u32 w = 0; w < ways; ++w)
            if (set[w] == line)
                hit_way = w;

        if (hit_way == ways) {
            // Miss: step the head back onto the LRU tail and
            // overwrite it in place -- the one-store eviction the
            // circular layout exists for.
            ++misses_;
            const u32 h = *head == 0 ? ways - 1 : *head - 1;
            set[h] = line;
            *head = h;
            return config_.l2Latency;
        }

        // Hit at logical depth d: rotate the logical prefix [0, d)
        // one step so the line becomes MRU (d is usually small when
        // hits happen at all).
        ++hits_;
        const u32 h = *head;
        u32 d = hit_way >= h ? hit_way - h : hit_way + ways - h;
        for (; d > 0; --d) {
            const u32 to = h + d >= ways ? h + d - ways : h + d;
            const u32 from = to == 0 ? ways - 1 : to - 1;
            set[to] = set[from];
        }
        set[h] = line;
        return config_.l1Latency;
    }

    /**
     * Probe @p count lines in one call: out[i] receives exactly what
     * accessLine(addr + i * stride) would return, in order.  The
     * replayer probes each op's line range through this: the
     * geometry loads hoist out of the loop and the scan + eviction
     * bodies run with a compile-time way count (specialized for the
     * common associativities), neither of which the compiler can do
     * for repeated accessLine calls.
     */
    void probeSpan(Addr addr, u64 stride, u64 count, Cycles *out);

    /** Aggregate of one multi-line range access. */
    struct RangeAccess
    {
        Cycles maxLatency = 0; ///< slowest touched line
        u32 lines = 0;         ///< cache lines the range spans
    };

    /**
     * Access every line of [addr, addr + bytes) in ascending order;
     * returns the aggregate (no per-call allocation).
     */
    RangeAccess accessRange(Addr addr, u32 bytes);

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }

    /** Invalidate every line and zero the counters. */
    void reset();

    const CacheConfig &config() const { return config_; }

  private:
    static constexpr u64 kInvalidTag = ~u64{0};

    CacheConfig config_;
    u32 line_shift_ = 6; ///< log2(lineBytes)
    u64 set_mask_ = 63;  ///< l1Sets - 1
    /** l1Sets x l1Ways line tags (kInvalidTag = empty). */
    std::vector<u64> tags_;
    /** Per-set MRU slot index (circular recency order). */
    std::vector<u32> heads_;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace vegeta::cpu

#endif // VEGETA_CPU_CACHE_HPP
