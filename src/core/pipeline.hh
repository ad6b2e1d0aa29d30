/**
 * @file
 * Staged analysis pipeline with memoized intermediate artifacts.
 *
 * The analyzer's tensor -> bind -> reuse -> flat -> perf -> cost chain
 * (paper Fig. 7) recomputes everything from scratch per call, although
 * each stage depends on only part of the inputs:
 *
 *   stage            | inputs actually read            | cache key
 *   -----------------|---------------------------------|-------------------
 *   tensor analysis  | layer shape                     | shape
 *   bind + reuse     | shape, dataflow, PE count       | shape|df|pes
 *   flat analysis    | + NoC support flags             | shape|df|pes|flags
 *   perf + cost      | + NoC/off-chip/buffers/energy   | shape|df|hw
 *
 * AnalysisPipeline memoizes each stage in a thread-safe LRU cache
 * keyed by exactly those inputs, so
 *  - networks with repeated layer shapes (ResNet bottlenecks, VGG
 *    conv blocks) analyze each distinct shape once,
 *  - a DSE sweep varying only buffer sizes or NoC bandwidth reuses
 *    the bound dataflow and flat nest across the whole sweep,
 *  - a mapper sweep over dataflows reuses the per-shape tensor info.
 *
 * Results are byte-identical to the unstaged chain: stages are pure
 * functions of their keys, executed in the original order on a miss.
 * One pipeline may be shared by many Analyzer instances and by the
 * worker threads of Analyzer::evaluateBatch.
 */

#ifndef MAESTRO_CORE_PIPELINE_HH
#define MAESTRO_CORE_PIPELINE_HH

#include <atomic>
#include <memory>
#include <string>

#include "src/common/lru_cache.hh"
#include "src/core/analyzer_result.hh"
#include "src/core/flat_analysis.hh"
#include "src/hw/energy.hh"

namespace maestro
{

/**
 * Per-stage cache counters plus the total evaluation count.
 */
struct PipelineStats
{
    CacheStats tensor;  ///< tensor-analysis stage
    CacheStats binding; ///< bind + reuse stage
    CacheStats flat;    ///< flattened-nest stage
    CacheStats layer;   ///< perf + cost (full LayerAnalysis) stage

    /** analyzeLayer calls served by the pipeline. */
    std::uint64_t evaluations = 0;

    /**
     * Element-wise sum of the four stage counters — the one
     * definition of "aggregate" shared by GET /stats, GET /metrics,
     * and the CLI's --profile table.
     */
    CacheStats
    aggregate() const
    {
        CacheStats sum;
        sum += tensor;
        sum += binding;
        sum += flat;
        sum += layer;
        return sum;
    }
};

/**
 * Identity of a layer's analysis-relevant fields (shape, operator
 * type, stride/padding/groups, densities) — deliberately excludes the
 * layer *name*, so equal shapes dedup across layers and networks.
 */
std::string shapeFingerprint(const Layer &layer);

/**
 * Structural identity of a dataflow's directive list (kinds, dims,
 * size/offset expressions, order) — excludes the dataflow name.
 */
std::string dataflowFingerprint(const Dataflow &dataflow);

/**
 * Identity of every hardware and energy-model knob the perf/cost
 * stages read (PE count, buffer sizes, NoC/off-chip models, support
 * flags, precision, vector width, energy table).
 */
std::string hardwareFingerprint(const AcceleratorConfig &config,
                                const EnergyModel &energy);

/**
 * A layer's runtime from its performance result: the per-group cycles
 * times the layer's groups. assembleLayerAnalysis reports exactly this
 * value, so a caller that needs only the runtime can skip cost.
 */
double layerRuntime(const PerformanceResult &perf, const Layer &layer);

/**
 * Final assembly of a layer analysis from the stage-4 engine outputs:
 * applies the grouped-convolution scaling to the cost counts and
 * derives the per-layer summary fields (runtime, throughput,
 * utilization). Pure — shared by the pipeline and by callers that run
 * the stage engines directly (the DSE fast sweep), so both produce
 * bit-identical LayerAnalysis values. layer_name / dataflow_name are
 * left empty (call-specific, not part of the computation).
 */
LayerAnalysis assembleLayerAnalysis(PerformanceResult perf,
                                    CostResult cost, const Layer &layer,
                                    const AcceleratorConfig &config);

/**
 * The staged, memoizing analysis pipeline.
 */
class AnalysisPipeline
{
  public:
    /** Per-stage LRU capacity (entries). */
    static constexpr std::size_t kStageCapacity = 4096;

    AnalysisPipeline();

    /**
     * Analyzes one layer under one dataflow on the given hardware,
     * reusing any cached stage artifacts.
     *
     * Numerically identical to the unstaged engine chain.
     *
     * @throws Error for invalid layer/dataflow/hardware combinations
     *         (failures are never cached).
     */
    LayerAnalysis analyzeLayer(const Layer &layer,
                               const Dataflow &dataflow,
                               const AcceleratorConfig &config,
                               const EnergyModel &energy);

    /**
     * Same, with a precomputed hardwareFingerprint(config, energy).
     * Long-lived callers (Analyzer) hoist the fingerprint out of hot
     * loops; it MUST match the passed config/energy pair.
     */
    LayerAnalysis analyzeLayer(const Layer &layer,
                               const Dataflow &dataflow,
                               const AcceleratorConfig &config,
                               const EnergyModel &energy,
                               const std::string &hw_fingerprint);

    /** Snapshot of all stage counters. */
    PipelineStats stats() const;

    /** Drops all cached artifacts (counters keep accumulating). */
    void clearCaches();

  private:
    /** Bind + reuse results travel together (reuse needs the bind). */
    struct BindingArtifact
    {
        BoundDataflow bound;
        std::vector<LevelReuse> reuse;
    };

    LruCache<std::string, std::shared_ptr<const TensorInfo>>
        tensor_cache_;
    LruCache<std::string, std::shared_ptr<const BindingArtifact>>
        binding_cache_;
    LruCache<std::string, std::shared_ptr<const FlatAnalysis>>
        flat_cache_;
    LruCache<std::string, std::shared_ptr<const LayerAnalysis>>
        layer_cache_;
    std::atomic<std::uint64_t> evaluations_{0};
};

} // namespace maestro

#endif // MAESTRO_CORE_PIPELINE_HH
