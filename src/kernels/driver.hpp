/**
 * @file
 * End-to-end experiment driver: workload -> kernel trace -> cycle-level
 * CPU simulation, the flow behind Figure 13 and the headline speed-ups.
 */

#ifndef VEGETA_KERNELS_DRIVER_HPP
#define VEGETA_KERNELS_DRIVER_HPP

#include <string>
#include <vector>

#include "cpu/trace_cpu.hpp"
#include "engine/config.hpp"
#include "kernels/gemm_kernels.hpp"
#include "kernels/workloads.hpp"

namespace vegeta::kernels {

/** One simulated (workload, sparsity, engine) measurement. */
struct Measurement
{
    std::string workload;
    std::string engineName;
    u32 layerN = 4;            ///< the layer's pruned pattern N:4
    u32 executedN = 4;         ///< N actually executed by the engine
    bool outputForwarding = false;
    Cycles coreCycles = 0;
    u64 instructions = 0;
    u64 tileComputes = 0;
    double macUtilization = 0.0;
};

/** Simulate one layer with layer-wise N:4 sparsity on one engine. */
Measurement simulateLayer(const Workload &workload, u32 layer_n,
                          const engine::EngineConfig &engine,
                          bool output_forwarding,
                          const cpu::CoreConfig &core = {});

/**
 * Figure 13 sweep: every evaluated engine x every workload x each
 * layer-wise pattern (4:4, 2:4, 1:4), with OF variants for the sparse
 * designs.  Runtime is reported in core cycles (2 GHz core, engines at
 * 0.5 GHz through the 4x clock divider).
 *
 * Runs a sim::figure13Grid through Session::runBatch over ad-hoc
 * registries (an intentional upward dependency inside the single
 * static library).  New code should use a sim::Session directly.
 */
std::vector<Measurement>
figure13Sweep(const std::vector<Workload> &workloads,
              const std::vector<engine::EngineConfig> &engines,
              const std::vector<u32> &layer_ns = {4, 2, 1});

/**
 * Geometric-mean speed-up of `engine` (with optional OF) over the
 * RASA-DM dense baseline across the workloads at one layer pattern --
 * the abstract's 1.09x / 2.20x / 3.74x numbers.
 */
double geomeanSpeedupVsDenseBaseline(
    const std::vector<Workload> &workloads, u32 layer_n,
    const engine::EngineConfig &engine, bool output_forwarding);

} // namespace vegeta::kernels

#endif // VEGETA_KERNELS_DRIVER_HPP
