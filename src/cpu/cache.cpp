#include "cpu/cache.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace vegeta::cpu {

namespace {

bool
isPowerOfTwo(u32 value)
{
    return value > 0 && (value & (value - 1)) == 0;
}

u32
log2u(u32 value)
{
    u32 shift = 0;
    while ((u32{1} << shift) < value)
        ++shift;
    return shift;
}

} // namespace

CacheModel::CacheModel(CacheConfig config) : config_(config)
{
    VEGETA_ASSERT(config_.l1Ways > 0, "degenerate cache configuration");
    VEGETA_ASSERT(isPowerOfTwo(config_.lineBytes) &&
                      isPowerOfTwo(config_.l1Sets),
                  "lineBytes and l1Sets must be powers of two");
    line_shift_ = log2u(config_.lineBytes);
    set_mask_ = config_.l1Sets - 1;
    tags_.assign(std::size_t{config_.l1Sets} * config_.l1Ways,
                 kInvalidTag);
    heads_.assign(config_.l1Sets, 0);
}

CacheModel::RangeAccess
CacheModel::accessRange(Addr addr, u32 bytes)
{
    VEGETA_ASSERT(bytes > 0, "zero-length access");
    RangeAccess access;
    const u64 first = addr / config_.lineBytes;
    const u64 last = (addr + bytes - 1) / config_.lineBytes;
    for (u64 line = first; line <= last; ++line) {
        access.maxLatency = std::max(
            access.maxLatency, accessLine(line * config_.lineBytes));
        ++access.lines;
    }
    return access;
}

void
CacheModel::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(heads_.begin(), heads_.end(), u32{0});
    hits_ = 0;
    misses_ = 0;
}

namespace {

/**
 * probeSpan's hot loop for a compile-time way count: the scan fully
 * unrolls and the geometry lives in registers across the whole span.
 * Mirrors CacheModel::accessLine's circular-head recency update
 * exactly.  Returns the number of hits.
 */
template <u32 Ways>
u64
probeSpanWays(u64 *bank, u32 *heads, u64 set_mask, u32 line_shift,
              Cycles l1, Cycles l2, Addr addr, u64 stride, u64 count,
              Cycles *out)
{
    u64 hits = 0;
    for (u64 i = 0; i < count; ++i) {
        const u64 line = (addr + i * stride) >> line_shift;
        const u64 set_idx = line & set_mask;
        u64 *set = bank + set_idx * Ways;
        u32 *head = heads + set_idx;
        u32 hit_way = Ways;
        for (u32 w = 0; w < Ways; ++w)
            if (set[w] == line)
                hit_way = w;
        if (hit_way == Ways) {
            // Miss: step the head back onto the LRU tail and
            // overwrite it -- one store instead of a ways-1 rotate.
            const u32 h = *head == 0 ? Ways - 1 : *head - 1;
            set[h] = line;
            *head = h;
            out[i] = l2;
        } else {
            // Hit at logical depth d: rotate the logical prefix.
            const u32 h = *head;
            u32 d = hit_way >= h ? hit_way - h : hit_way + Ways - h;
            for (; d > 0; --d) {
                const u32 to = h + d >= Ways ? h + d - Ways : h + d;
                const u32 from = to == 0 ? Ways - 1 : to - 1;
                set[to] = set[from];
            }
            set[h] = line;
            out[i] = l1;
            ++hits;
        }
    }
    return hits;
}

} // namespace

void
CacheModel::probeSpan(Addr addr, u64 stride, u64 count, Cycles *out)
{
    u64 *bank = tags_.data();
    u32 *heads = heads_.data();
    const Cycles l1 = config_.l1Latency;
    const Cycles l2 = config_.l2Latency;
    u64 hits = 0;
    switch (config_.l1Ways) {
      case 4:
        hits = probeSpanWays<4>(bank, heads, set_mask_, line_shift_, l1,
                                l2, addr, stride, count, out);
        break;
      case 8:
        hits = probeSpanWays<8>(bank, heads, set_mask_, line_shift_, l1,
                                l2, addr, stride, count, out);
        break;
      case 12:
        hits = probeSpanWays<12>(bank, heads, set_mask_, line_shift_,
                                 l1, l2, addr, stride, count, out);
        break;
      case 16:
        hits = probeSpanWays<16>(bank, heads, set_mask_, line_shift_,
                                 l1, l2, addr, stride, count, out);
        break;
      default:
        // Uncommon associativity: the per-call path, which counts.
        for (u64 i = 0; i < count; ++i)
            out[i] = accessLine(addr + i * stride);
        return;
    }
    hits_ += hits;
    misses_ += count - hits;
}

} // namespace vegeta::cpu
