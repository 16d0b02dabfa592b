#include "sim/cost_model.hpp"

#include <cmath>

#include "sim/disk_cache.hpp"
#include "sim/job.hpp"
#include "sim/request.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {

namespace {

double
log2Safe(double value)
{
    return std::log2(value < 1.0 ? 1.0 : value);
}

std::vector<std::string>
splitFields(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            out.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

} // namespace

std::array<double, kCostFeatureCount>
CostModel::features(const kernels::GemmDims &gemm,
                    const engine::EngineConfig &engine, u32 pattern_n,
                    bool output_forwarding, bool naive, u32 c_blocking)
{
    const PrefilterEstimate est = prefilterEstimate(
        gemm, engine, pattern_n, output_forwarding, naive,
        c_blocking);
    std::array<double, kCostFeatureCount> x{};
    x[0] = 1.0;
    x[1] = log2Safe(double(gemm.m));
    x[2] = log2Safe(double(gemm.n));
    x[3] = log2Safe(double(gemm.k));
    x[4] = double(est.executedN);
    x[5] = log2Safe(double(engine.alpha));
    x[6] = log2Safe(double(engine.beta));
    x[7] = engine.sparse ? 1.0 : 0.0;
    x[8] = (output_forwarding && engine.sparse) ? 1.0 : 0.0;
    x[9] = double(naive ? 1 : c_blocking);
    x[10] = naive ? 1.0 : 0.0;
    x[11] = log2Safe(est.estCoreCycles);
    return x;
}

std::optional<CostModel>
CostModel::fit(const std::vector<CostSample> &samples, double lambda)
{
    if (samples.empty())
        return std::nullopt;
    constexpr u32 n = kCostFeatureCount;

    // Normal equations A w = b with A = X'X + lambda I (bias term
    // unpenalized).
    std::array<std::array<double, n + 1>, n> m{};
    for (const auto &sample : samples) {
        for (u32 i = 0; i < n; ++i) {
            for (u32 j = 0; j < n; ++j)
                m[i][j] +=
                    sample.features[i] * sample.features[j];
            m[i][n] += sample.features[i] * sample.log2Cycles;
        }
    }
    for (u32 i = 1; i < n; ++i)
        m[i][i] += lambda;

    // Gaussian elimination with partial pivoting; every comparison
    // is on exact doubles, so the factorization (and therefore the
    // model) is a pure function of the sample set.
    for (u32 col = 0; col < n; ++col) {
        u32 pivot = col;
        for (u32 row = col + 1; row < n; ++row)
            if (std::fabs(m[row][col]) > std::fabs(m[pivot][col]))
                pivot = row;
        if (std::fabs(m[pivot][col]) < 1e-12)
            return std::nullopt;
        std::swap(m[col], m[pivot]);
        for (u32 row = 0; row < n; ++row) {
            if (row == col)
                continue;
            const double factor = m[row][col] / m[col][col];
            for (u32 j = col; j <= n; ++j)
                m[row][j] -= factor * m[col][j];
        }
    }

    CostModel model;
    for (u32 i = 0; i < n; ++i)
        model.weights_[i] = m[i][n] / m[i][i];
    model.samples_ = samples.size();

    double sq_err = 0.0;
    for (const auto &sample : samples) {
        const double err = model.predictLog2Cycles(sample.features) -
                           sample.log2Cycles;
        sq_err += err * err;
    }
    model.rmse_ = std::sqrt(sq_err / double(samples.size()));
    return model;
}

double
CostModel::predictLog2Cycles(
    const std::array<double, kCostFeatureCount> &x) const
{
    double sum = 0.0;
    for (u32 i = 0; i < kCostFeatureCount; ++i)
        sum += weights_[i] * x[i];
    return sum;
}

std::optional<CostSample>
costSampleFromCacheEntry(const Session &session,
                         const std::string &key,
                         const SimulationResult &result)
{
    const auto fields = splitFields(key, '|');
    if (fields.size() != 10 || fields[0] != "v1")
        return std::nullopt;

    SimulationRequest request;
    request.label = fields[1];
    const auto gemm = parseGemmSpec(fields[2]);
    if (!gemm)
        return std::nullopt;
    request.gemm = *gemm;
    request.engine = fields[3];
    const auto pattern = parseU32(fields[4]);
    if (!pattern)
        return std::nullopt;
    request.patternN = *pattern;
    if (fields[5] != "0" && fields[5] != "1")
        return std::nullopt;
    request.outputForwarding = fields[5] == "1";
    if (fields[6] == "optimized")
        request.kernel = KernelVariant::Optimized;
    else if (fields[6] == "naive")
        request.kernel = KernelVariant::Naive;
    else
        return std::nullopt; // trace replays carry no loop structure
    const auto c_blocking = parseU32(fields[7]);
    if (!c_blocking || *c_blocking < 1 || *c_blocking > 3)
        return std::nullopt;
    request.cBlocking = *c_blocking;

    // Round-trip check: a record simulated under core/cache overrides
    // serializes differently from the default-core request rebuilt
    // here, and must be skipped rather than mis-featurized.
    if (cacheKey(request) != key)
        return std::nullopt;

    const auto config = session.engines().find(request.engine);
    if (!config || result.coreCycles == 0)
        return std::nullopt;
    if (request.patternN != 1 && request.patternN != 2 &&
        request.patternN != 4)
        return std::nullopt;

    CostSample sample;
    sample.features = CostModel::features(
        request.gemm, *config, request.patternN,
        request.outputForwarding,
        request.kernel == KernelVariant::Naive, request.cBlocking);
    sample.log2Cycles = log2Safe(double(result.coreCycles));
    return sample;
}

std::vector<CostSample>
harvestCostSamples(const Session &session,
                   const DiskResultCache &cache)
{
    std::vector<CostSample> samples;
    for (const auto &[key, result] : cache.simulationEntries())
        if (auto sample =
                costSampleFromCacheEntry(session, key, result))
            samples.push_back(std::move(*sample));
    return samples;
}

} // namespace vegeta::sim
