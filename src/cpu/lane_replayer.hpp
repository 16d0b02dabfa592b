/**
 * @file
 * Shared-stream replay core: K core/engine configurations replaying
 * one uop stream in lock step.
 *
 * Figure 13 replays one kernel trace per layer and pattern through
 * every Table III engine, so a sweep holds far fewer distinct uop
 * streams than jobs.  Everything about a stream that does not depend
 * on timing is the same for every configuration replaying it: the op
 * sequence itself, the L1 hit/miss sequence (a pure function of the
 * line-address sequence and the CacheConfig), which earlier store
 * last wrote each line, and the op/kind/engine-instruction counts.
 * LaneReplayer computes those once per op and keeps per lane only the
 * timing state -- dispatch/retire rings, rename table, functional-unit
 * pools, load-buffer ring, vector-chain map, the completion cycle of
 * each store, and an engine::PipelineModel.
 *
 * Per op, step() (or the shared sink()) does the shared work first:
 * a Load / TileLoad / TileStore probes the one L1 tag bank once into
 * a latency strip and looks up each line's last store in the shared
 * line->store-slot index; then every lane schedules the op against
 * its own timing state, reading the strips.
 *
 * Bit-exactness contract: each lane's result is bit-identical to a
 * single-stream replay of the same stream under that lane's
 * configuration (golden-cycle and fuzz tests pin this, including
 * hex-float macUtilization).  Lanes must share one CacheConfig -- the
 * probe strip is only exact for the bank it was probed on -- and the
 * constructor asserts it.  TraceCpu is the one-lane facade, so the
 * single-stream path runs exactly this code at K = 1.
 */

#ifndef VEGETA_CPU_LANE_REPLAYER_HPP
#define VEGETA_CPU_LANE_REPLAYER_HPP

#include <array>
#include <map>
#include <vector>

#include "cpu/cache.hpp"
#include "cpu/flat_map.hpp"
#include "cpu/trace_sink.hpp"
#include "engine/pipeline.hpp"

namespace vegeta::cpu {

/** Core parameters (defaults follow Section VI-B). */
struct CoreConfig
{
    u32 fetchWidth = 4;
    u32 retireWidth = 4;
    u32 robEntries = 97;
    u32 loadBufferEntries = 96;
    u32 frontEndDepth = 16; ///< 16-stage pipeline fill
    u32 numAlus = 4;
    u32 numLsuPorts = 2;
    u32 numVectorFus = 2;
    Cycles vectorFmaLatency = 4;
    /** Core-to-engine clock ratio (2 GHz core / 0.5 GHz engine). */
    u32 engineClockDivider = 4;
    bool outputForwarding = false;
    CacheConfig cache;

    bool operator==(const CoreConfig &) const = default;
};

/** Simulation outputs. */
struct SimResult
{
    Cycles totalCycles = 0; ///< core cycles until last retirement
    u64 retiredOps = 0;
    std::map<UopKind, u64> kindCounts;
    u64 engineInstructions = 0;
    Cycles engineLastFinish = 0; ///< core cycle of last engine finish
    u64 cacheHits = 0;
    u64 cacheMisses = 0;

    /** Engine MAC utilization over the whole run (0..1). */
    double macUtilization = 0.0;
};

/** K configurations replaying one shared uop stream. */
class LaneReplayer
{
  public:
    /** One lane's configuration; lanes may differ in everything but
     *  core.cache. */
    struct LaneSpec
    {
        CoreConfig core;
        engine::EngineConfig engine;
    };

    /**
     * Lane timing identity: equal core configurations (OF included)
     * and equal engine::PipelineTiming.  A lane reads nothing else of
     * its spec, so two lanes of the same timing replay any stream
     * both can execute to bit-identical SimResults -- one lane can
     * serve both.  Engines that differ elsewhere (name, alpha,
     * supported opcodes) still compare equal; callers serving one
     * lane's result to several engines check each engine against
     * tileOpcodes().
     */
    static bool sameTiming(const LaneSpec &a, const LaneSpec &b);

    explicit LaneReplayer(const std::vector<LaneSpec> &lanes);
    // The shared sink points back at its replayer.
    LaneReplayer(const LaneReplayer &) = delete;
    LaneReplayer &operator=(const LaneReplayer &) = delete;

    /** Schedule the stream's next op on every lane. */
    void step(const TraceOp &op);

    /** The shared sink: kernels emit uops straight into step(). */
    TraceSink &sink() { return sink_; }

    /**
     * Every lane's statistics over the ops stepped since reset();
     * leaves the replayer reset.
     */
    std::vector<SimResult> finish();

    /**
     * Tile-compute opcodes stepped since reset(), bit
     * `1 << isa::Opcode` each (recorded once per op, not per lane).
     */
    u32 tileOpcodes() const { return tile_opcodes_; }

    /** Batch convenience: reset, step every op, finish. */
    std::vector<SimResult> run(const Trace &trace);

    /** Back to a cold pipeline on every lane; keeps allocations. */
    void reset();

    const CoreConfig &coreConfig(u32 lane) const
    {
        return lanes_[lane].core;
    }
    const engine::EngineConfig &engineConfig(u32 lane) const
    {
        return lanes_[lane].engine.config();
    }

  private:
    /** Line size memory traffic splits at (Section V-F). */
    static constexpr u32 kLineBytes = 64;
    /** Widest supported functional-unit pool. */
    static constexpr u32 kMaxUnits = 16;
    /** Alias-strip marker for a line no earlier store wrote. */
    static constexpr u32 kNoStore = ~u32{0};
    /** Longest strip of lines probed at once (a tile is 16-19). */
    static constexpr u64 kStripLines = 1024;

    class SharedSink final : public TraceSink
    {
      public:
        explicit SharedSink(LaneReplayer *owner) : owner_(owner) {}

        void
        emit(const TraceOp &op) override
        {
            owner_->step(op);
        }

      private:
        LaneReplayer *owner_;
    };

    /** One configuration's timing state (nothing stream-derived). */
    struct Lane
    {
        Lane(const CoreConfig &core,
             const engine::EngineConfig &engine);

        CoreConfig core;
        engine::PipelineModel engine;

        // Hot parameters copied out of `core`.
        u32 fetchWidth;
        u32 retireWidth;
        u32 robEntries;
        u32 lbEntries;
        u32 numAlus;
        u32 numLsus;
        u32 numVecs;
        u32 engineClockDivider;
        Cycles frontEndDepth;
        Cycles vectorFmaLatency;

        // Dispatch/retire windows: the scheduler looks back at most
        // max(fetchWidth, retireWidth, robEntries) ops, so op i lives
        // at slot i & ringMask of a power-of-two ring.
        u64 ringMask;
        std::vector<Cycles> dispatchRing;
        std::vector<Cycles> retireRing;

        std::vector<Cycles> loadBuffer;
        u64 lbFills = 0;
        u32 lbCursor = 0;

        std::array<Cycles, kMaxUnits> aluFree{};
        std::array<Cycles, kMaxUnits> lsuFree{};
        std::array<Cycles, kMaxUnits> vecFree{};

        // Rename table over the 16-entry physical dep-id space.
        std::array<Cycles, isa::kNumDepRegs> renameReady{};
        std::array<u8, isa::kNumDepRegs> renameEngine{};

        FlatCycleMap vectorChains{16};
        /** Completion cycle of each shared store slot. */
        std::vector<Cycles> storeReady;

        Cycles lastRetire = 0;
        Cycles engineLastFinish = 0;

        // The current line-range op: its issue cycle and completion.
        Cycles ready = 0;
        Cycles complete = 0;

        void reset();
    };

    /** Statistics of @p lane over the ops stepped since reset(). */
    SimResult result(const Lane &lane) const;

    static Cycles dispatch(Lane &lane, u64 i);
    static void retire(Lane &lane, u64 i, Cycles complete);

    /**
     * Issue the line range [addr, addr + bytes) on every lane: each
     * lane's serial loop starts at its `ready` cycle and leaves its
     * completion in `complete`.
     */
    void issueLineRange(Addr addr, u64 bytes);

    /**
     * The shared half of one strip of lines [first, last]: probe
     * every line into probe_ and, when the strip may alias an earlier
     * store, each line's store slot into alias_.  Returns the line
     * count.
     */
    u64 prepareStrip(u64 first, u64 last);

    /** One lane's serial issue loop over the prepared strip. */
    Cycles issueStrip(Lane &lane, u64 count) const;

    /**
     * Make [addr, addr + bytes) the shared store slot's lines;
     * returns the slot each lane records its completion cycle in.
     */
    u32 recordStoreRange(Addr addr, u64 bytes);

    std::vector<Lane> lanes_;
    SharedSink sink_{this};

    // ---- Shared, stream-derived state -----------------------------
    CacheModel cache_;
    u64 ops_ = 0;
    std::array<u64, 8> kind_counts_{};
    u64 engine_instructions_ = 0;
    u64 effectual_macs_ = 0;
    u32 tile_opcodes_ = 0;

    /** Cache line -> slot of the last store that wrote it. */
    FlatCycleMap store_slot_{16};
    /** Line range each slot was created for, [first, last]. */
    std::vector<std::pair<u64, u64>> slot_range_;
    // Bounding box of all stored lines: ranges outside it (the bulk
    // of A/B tile traffic) skip the store-index lookups.
    u64 stored_line_min_ = ~u64{0};
    u64 stored_line_max_ = 0;

    // Per-strip scratch written by prepareStrip, read by every lane.
    std::vector<Cycles> probe_;
    std::vector<u32> alias_;
    bool aliased_ = false;
};

} // namespace vegeta::cpu

#endif // VEGETA_CPU_LANE_REPLAYER_HPP
