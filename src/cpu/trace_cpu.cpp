#include "cpu/trace_cpu.hpp"

namespace vegeta::cpu {

TraceCpu::TraceCpu(CoreConfig core, engine::EngineConfig engine)
    : lanes_({LaneReplayer::LaneSpec{std::move(core),
                                     std::move(engine)}})
{
}

SimResult
TraceCpu::run(const Trace &trace)
{
    return lanes_.run(trace).front();
}

} // namespace vegeta::cpu
