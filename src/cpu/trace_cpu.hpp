/**
 * @file
 * Trace-driven out-of-order CPU model with an integrated VEGETA engine
 * (the MacSim substitute of Section VI-A/B).
 *
 * Modeled per the paper's configuration: 4-wide fetch/issue/retire,
 * 16-stage front end, 97-entry ROB, 96-entry load buffer, data
 * prefetched into L2, core at 2 GHz with matrix engines at 0.5 GHz
 * (engine cycles are 4 core cycles in the Figure 13 setup).
 *
 * The model schedules each trace op analytically: dispatch is limited
 * by fetch width and ROB occupancy, issue by operand readiness and
 * functional-unit ports, retirement is in order.  Tile registers are
 * renamed: dependencies are RAW-only, and tile-compute scheduling
 * (stage pipelining + output forwarding) is delegated to
 * engine::PipelineModel.
 *
 * The replayer is a streaming consumer: feed ops one at a time with
 * step() (or as a TraceSink via emit()) and collect statistics with
 * finish().  The scheduler itself lives in cpu::LaneReplayer
 * (lane_replayer.hpp), the core that replays one shared uop stream
 * under K configurations; TraceCpu is its one-lane facade, so
 * single-stream and shared-stream replay share every line of
 * scheduling code and cannot drift apart (CoreConfig and SimResult
 * are defined alongside the core).
 */

#ifndef VEGETA_CPU_TRACE_CPU_HPP
#define VEGETA_CPU_TRACE_CPU_HPP

#include "cpu/lane_replayer.hpp"

namespace vegeta::cpu {

/** The trace-driven core: a streaming replayer (one lane). */
class TraceCpu final : public TraceSink
{
  public:
    TraceCpu(CoreConfig core, engine::EngineConfig engine);

    /**
     * Begin a fresh simulation from a cold pipeline, discarding any
     * partially-stepped stream.  Keeps every allocation.
     */
    void
    reset()
    {
        lanes_.reset();
    }

    /** Schedule the next op of the stream. */
    void
    step(const TraceOp &op)
    {
        lanes_.step(op);
    }

    /** TraceSink: kernels emit uops straight into the scheduler. */
    void
    emit(const TraceOp &op) override
    {
        lanes_.step(op);
    }

    /**
     * Statistics of the stream stepped since the last reset; leaves
     * the model reset for the next stream.
     */
    SimResult
    finish()
    {
        return lanes_.finish().front();
    }

    /** Batch convenience: reset, step every op, finish. */
    SimResult run(const Trace &trace);

    const CoreConfig &coreConfig() const
    {
        return lanes_.coreConfig(0);
    }
    const engine::EngineConfig &engineConfig() const
    {
        return lanes_.engineConfig(0);
    }

  private:
    LaneReplayer lanes_;
};

} // namespace vegeta::cpu

#endif // VEGETA_CPU_TRACE_CPU_HPP
