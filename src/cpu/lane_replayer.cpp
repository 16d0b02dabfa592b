#include "cpu/lane_replayer.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace vegeta::cpu {

namespace {

u64
ringSize(u64 min_entries)
{
    u64 size = 1;
    while (size < min_entries)
        size *= 2;
    return size;
}

/** Earliest-free unit of a pool; the issue occupies it 1 cycle. */
Cycles
acquireUnit(Cycles *pool, u32 units, Cycles earliest)
{
    u32 best = 0;
    for (u32 u = 1; u < units; ++u)
        if (pool[u] < pool[best])
            best = u;
    const Cycles start = std::max(earliest, pool[best]);
    pool[best] = start + 1;
    return start;
}

/** Bytes a TileLoad moves (TileLoadM carries its descriptor). */
u64
tileLoadBytes(const isa::Instruction &tile)
{
    return tile.op == isa::Opcode::TileLoadM
               ? isa::kMregBytes + isa::kMregDescBytes
               : isa::regClassBytes(tile.dst.cls);
}

} // namespace

LaneReplayer::Lane::Lane(const CoreConfig &core_config,
                         const engine::EngineConfig &engine_config)
    : core(core_config),
      engine(engine_config, core_config.outputForwarding),
      fetchWidth(core.fetchWidth), retireWidth(core.retireWidth),
      robEntries(core.robEntries), lbEntries(core.loadBufferEntries),
      numAlus(core.numAlus), numLsus(core.numLsuPorts),
      numVecs(core.numVectorFus),
      engineClockDivider(core.engineClockDivider),
      frontEndDepth(core.frontEndDepth),
      vectorFmaLatency(core.vectorFmaLatency)
{
    VEGETA_ASSERT(fetchWidth > 0 && retireWidth > 0 && robEntries > 0,
                  "degenerate core configuration");
    VEGETA_ASSERT(lbEntries > 0, "degenerate load buffer");
    VEGETA_ASSERT(numAlus > 0 && numAlus <= kMaxUnits &&
                      numLsus > 0 && numLsus <= kMaxUnits &&
                      numVecs > 0 && numVecs <= kMaxUnits,
                  "resource pools support 1..16 units");
    // A ring larger than the window is behaviourally identical: slots
    // are rewritten before the op-index guards let them be read.
    const u64 ring = ringSize(
        std::max<u64>({fetchWidth, retireWidth, robEntries}) + 1);
    ringMask = ring - 1;
    dispatchRing.assign(ring, 0);
    retireRing.assign(ring, 0);
    loadBuffer.assign(lbEntries, 0);
}

void
LaneReplayer::Lane::reset()
{
    engine.reset();
    // The rings and load buffer need no clearing: every slot is
    // written before the op-index guards allow it to be read again.
    lbFills = 0;
    lbCursor = 0;
    aluFree.fill(0);
    lsuFree.fill(0);
    vecFree.fill(0);
    renameReady.fill(0);
    renameEngine.fill(0);
    vectorChains.clear();
    storeReady.clear();
    lastRetire = 0;
    engineLastFinish = 0;
}

LaneReplayer::LaneReplayer(const std::vector<LaneSpec> &lanes)
    : cache_(lanes.empty() ? CacheConfig{} : lanes.front().core.cache)
{
    VEGETA_ASSERT(!lanes.empty(),
                  "lane replayer needs at least 1 lane");
    lanes_.reserve(lanes.size());
    for (const LaneSpec &spec : lanes) {
        VEGETA_ASSERT(spec.core.cache == cache_.config(),
                      "lanes replaying one stream must share one "
                      "CacheConfig");
        lanes_.emplace_back(spec.core, spec.engine);
    }
}

bool
LaneReplayer::sameTiming(const LaneSpec &a, const LaneSpec &b)
{
    return a.core == b.core &&
           engine::pipelineTiming(a.engine, a.core.outputForwarding) ==
               engine::pipelineTiming(b.engine,
                                      b.core.outputForwarding);
}

Cycles
LaneReplayer::dispatch(Lane &lane, u64 i)
{
    // Fetch width, program order, ROB space.
    Cycles *ring = lane.dispatchRing.data();
    const Cycles *retired = lane.retireRing.data();
    const u64 mask = lane.ringMask;
    Cycles d = lane.frontEndDepth;
    if (i > 0)
        d = std::max(d, ring[(i - 1) & mask]);
    if (i >= lane.fetchWidth)
        d = std::max(d, ring[(i - lane.fetchWidth) & mask] + 1);
    if (i >= lane.robEntries)
        d = std::max(d, retired[(i - lane.robEntries) & mask]);
    ring[i & mask] = d;
    return d;
}

void
LaneReplayer::retire(Lane &lane, u64 i, Cycles complete)
{
    // In-order retirement, retireWidth per cycle.
    Cycles *ring = lane.retireRing.data();
    const u64 mask = lane.ringMask;
    Cycles r = complete;
    if (i > 0)
        r = std::max(r, ring[(i - 1) & mask]);
    if (i >= lane.retireWidth)
        r = std::max(r, ring[(i - lane.retireWidth) & mask] + 1);
    ring[i & mask] = r;
    lane.lastRetire = r;
}

void
LaneReplayer::issueLineRange(Addr addr, u64 bytes)
{
    // Span from the first to the last touched line: a 64 B load at
    // line offset 32 touches two lines, which a ceil(bytes / 64)
    // would undercount for unaligned addresses.
    const u64 first = addr / kLineBytes;
    const u64 last = (addr + std::max<u64>(bytes, 1) - 1) / kLineBytes;
    for (Lane &lane : lanes_)
        lane.complete = lane.ready;
    // Strip by strip, so the shared scratch stays bounded for any
    // range a trace names; each lane's loop carries its state across
    // strips exactly as one unbroken loop would.
    for (u64 strip = first;; strip += kStripLines) {
        const u64 end = std::min(last, strip + (kStripLines - 1));
        const u64 count = prepareStrip(strip, end);
        for (Lane &lane : lanes_)
            lane.complete = std::max(lane.complete,
                                     issueStrip(lane, count));
        if (end == last)
            return;
    }
}

u64
LaneReplayer::prepareStrip(u64 first, u64 last)
{
    const u64 count = last - first + 1;
    if (probe_.size() < count) {
        probe_.resize(count);
        alias_.resize(count);
    }

    // Cache probes take no input from any lane's timing, so probing
    // the whole strip here, in line order, evolves the bank exactly
    // as each lane's serial issue loop would have -- once for all
    // lanes instead of once per lane.
    cache_.probeSpan(first * u64{kLineBytes}, kLineBytes, count,
                     probe_.data());

    // The store index is read before this op records its own range
    // (a TileStore waits on earlier stores, never on itself).
    aliased_ = first <= stored_line_max_ && last >= stored_line_min_;
    if (aliased_) {
        for (u64 i = 0; i < count; ++i) {
            const Cycles *slot = store_slot_.find(first + i);
            alias_[i] = slot ? static_cast<u32>(*slot) : kNoStore;
        }
    }
    return count;
}

Cycles
LaneReplayer::issueStrip(Lane &lane, u64 count) const
{
    // The serial issue loop: port contention, load-buffer occupancy
    // and store forwarding, with the line latencies and store slots
    // read from the shared strips.  The load-buffer ring state lives
    // in locals across the loop (a tile load is up to 64 lines).
    const Cycles *probe = probe_.data();
    const u32 *alias = aliased_ ? alias_.data() : nullptr;
    const Cycles *store_ready = lane.storeReady.data();
    Cycles *lb = lane.loadBuffer.data();
    Cycles *lsu = lane.lsuFree.data();
    const u32 lb_entries = lane.lbEntries;
    const u32 lsu_units = lane.numLsus;
    const Cycles earliest = lane.ready;
    u64 lb_fills = lane.lbFills;
    u32 lb_cursor = lane.lbCursor;

    Cycles complete = earliest;
    for (u64 i = 0; i < count; ++i) {
        // A new line fill needs a free load-buffer entry: wait for
        // the entry allocated lb_entries fills ago, whose completion
        // time still sits in the ring slot about to be overwritten.
        Cycles line_earliest = earliest;
        if (lb_fills >= lb_entries)
            line_earliest = std::max(line_earliest, lb[lb_cursor]);
        if (alias && alias[i] != kNoStore)
            line_earliest =
                std::max(line_earliest, store_ready[alias[i]]);
        const Cycles line_done =
            acquireUnit(lsu, lsu_units, line_earliest) + probe[i];
        lb[lb_cursor] = line_done;
        if (++lb_cursor == lb_entries)
            lb_cursor = 0;
        ++lb_fills;
        complete = std::max(complete, line_done);
    }
    lane.lbFills = lb_fills;
    lane.lbCursor = lb_cursor;
    return complete;
}

u32
LaneReplayer::recordStoreRange(Addr addr, u64 bytes)
{
    const u64 first = addr / kLineBytes;
    const u64 last = (addr + std::max<u64>(bytes, 1) - 1) / kLineBytes;
    stored_line_min_ = std::min(stored_line_min_, first);
    stored_line_max_ = std::max(stored_line_max_, last);

    // A store over exactly the range an existing slot was created
    // for (a kernel re-storing its C tile) takes that slot back:
    // only lines of that range ever point at it, and every one of
    // them now names this store.  Any other range opens a new slot.
    // Slots therefore grow with distinct store ranges, not with the
    // stream's length.
    const Cycles *prior = store_slot_.find(first);
    u32 slot = 0;
    if (prior && slot_range_[*prior] == std::make_pair(first, last)) {
        slot = static_cast<u32>(*prior);
    } else {
        slot = static_cast<u32>(slot_range_.size());
        VEGETA_ASSERT(slot != kNoStore, "store slot space exhausted");
        slot_range_.emplace_back(first, last);
        for (Lane &lane : lanes_)
            lane.storeReady.push_back(0);
    }
    for (u64 line = first; line <= last; ++line)
        store_slot_.insertOrAssign(line, slot);
    return slot;
}

void
LaneReplayer::step(const TraceOp &op)
{
    // step() is a public sink fed by arbitrary producers: reject ops
    // that would index outside the fixed kind/register tables.
    VEGETA_ASSERT(static_cast<u32>(op.kind) < 8,
                  "trace op with invalid kind");
    const u64 i = ops_++;
    ++kind_counts_[static_cast<u32>(op.kind)];

    switch (op.kind) {
      case UopKind::Alu:
      case UopKind::Branch: {
        for (Lane &lane : lanes_) {
            const Cycles d = dispatch(lane, i);
            retire(lane, i,
                   acquireUnit(lane.aluFree.data(), lane.numAlus, d) +
                       1);
        }
        break;
      }
      case UopKind::Load: {
        for (Lane &lane : lanes_)
            lane.ready = dispatch(lane, i);
        issueLineRange(op.addr, op.bytes);
        for (Lane &lane : lanes_)
            retire(lane, i, lane.complete);
        break;
      }
      case UopKind::Store: {
        // Stores retire from the store queue post-commit; occupy a
        // port for address generation only.
        const u32 slot = recordStoreRange(op.addr, op.bytes);
        for (Lane &lane : lanes_) {
            const Cycles d = dispatch(lane, i);
            const Cycles complete =
                acquireUnit(lane.lsuFree.data(), lane.numLsus, d) + 1;
            lane.storeReady[slot] = complete;
            retire(lane, i, complete);
        }
        break;
      }
      case UopKind::VectorFma: {
        for (Lane &lane : lanes_) {
            Cycles ready = dispatch(lane, i);
            if (op.chain != 0) {
                if (const Cycles *it = lane.vectorChains.find(op.chain))
                    ready = std::max(ready, *it);
            }
            const Cycles complete =
                acquireUnit(lane.vecFree.data(), lane.numVecs, ready) +
                lane.vectorFmaLatency;
            if (op.chain != 0)
                lane.vectorChains.insertOrAssign(op.chain, complete);
            retire(lane, i, complete);
        }
        break;
      }
      case UopKind::TileLoad: {
        for (Lane &lane : lanes_)
            lane.ready = dispatch(lane, i);
        issueLineRange(op.tile.addr, tileLoadBytes(op.tile));
        const auto writes = op.tile.writeRegList();
        for (Lane &lane : lanes_) {
            for (u32 reg : writes) {
                lane.renameReady[reg] = lane.complete;
                lane.renameEngine[reg] = 0;
                lane.engine.invalidateReg(reg);
            }
            retire(lane, i, lane.complete);
        }
        break;
      }
      case UopKind::TileStore: {
        const auto reads = op.tile.readRegList();
        for (Lane &lane : lanes_) {
            Cycles ready = dispatch(lane, i);
            for (u32 reg : reads) {
                Cycles reg_ready = lane.renameReady[reg];
                if (lane.renameEngine[reg])
                    reg_ready = std::max(
                        reg_ready, lane.engine.regReadyFull(reg) *
                                       lane.engineClockDivider);
                ready = std::max(ready, reg_ready);
            }
            lane.ready = ready;
        }
        // Earlier stores are read before this one records its slot.
        issueLineRange(op.tile.addr, isa::kTregBytes);
        const u32 slot =
            recordStoreRange(op.tile.addr, isa::kTregBytes);
        for (Lane &lane : lanes_) {
            lane.storeReady[slot] = lane.complete;
            retire(lane, i, lane.complete);
        }
        break;
      }
      case UopKind::TileCompute: {
        const auto reads = op.tile.readRegList();
        const auto writes = op.tile.writeRegList();
        for (Lane &lane : lanes_) {
            // Non-engine (load-produced) operand readiness; engine-
            // produced operands are sequenced inside PipelineModel,
            // including output forwarding on the accumulator.
            Cycles ready = dispatch(lane, i);
            for (u32 reg : reads) {
                if (!lane.renameEngine[reg])
                    ready = std::max(ready, lane.renameReady[reg]);
            }
            // Round up: an engine instruction can begin at the next
            // engine clock edge at or after the core-cycle issue.
            const u32 div = lane.engineClockDivider;
            const engine::ScheduledOp sched =
                lane.engine.issue(op.tile, (ready + div - 1) / div);
            const Cycles complete = sched.finish * div;
            for (u32 reg : writes) {
                lane.renameReady[reg] = complete;
                lane.renameEngine[reg] = 1;
            }
            lane.engineLastFinish =
                std::max(lane.engineLastFinish, complete);
            retire(lane, i, complete);
        }
        ++engine_instructions_;
        effectual_macs_ += isa::effectualMacs(op.tile.op);
        tile_opcodes_ |= u32{1} << static_cast<u32>(op.tile.op);
        break;
      }
    }
}

SimResult
LaneReplayer::result(const Lane &lane) const
{
    SimResult result;
    if (ops_ == 0)
        return result;
    result.totalCycles = lane.lastRetire;
    result.retiredOps = ops_;
    for (u32 k = 0; k < 8; ++k)
        if (kind_counts_[k] > 0)
            result.kindCounts[static_cast<UopKind>(k)] =
                kind_counts_[k];
    result.engineInstructions = engine_instructions_;
    result.engineLastFinish = lane.engineLastFinish;
    result.cacheHits = cache_.hits();
    result.cacheMisses = cache_.misses();
    if (result.totalCycles > 0) {
        const double engine_cycles =
            static_cast<double>(result.totalCycles) /
            lane.engineClockDivider;
        result.macUtilization =
            static_cast<double>(effectual_macs_) /
            (engine_cycles * engine::kTotalMacs);
    }
    return result;
}

std::vector<SimResult>
LaneReplayer::finish()
{
    std::vector<SimResult> results;
    results.reserve(lanes_.size());
    for (const Lane &lane : lanes_)
        results.push_back(result(lane));
    reset();
    return results;
}

std::vector<SimResult>
LaneReplayer::run(const Trace &trace)
{
    reset();
    for (const TraceOp &op : trace)
        step(op);
    return finish();
}

void
LaneReplayer::reset()
{
    for (Lane &lane : lanes_)
        lane.reset();
    cache_.reset();
    ops_ = 0;
    kind_counts_.fill(0);
    engine_instructions_ = 0;
    effectual_macs_ = 0;
    tile_opcodes_ = 0;
    store_slot_.clear();
    slot_range_.clear();
    stored_line_min_ = ~u64{0};
    stored_line_max_ = 0;
}

} // namespace vegeta::cpu
