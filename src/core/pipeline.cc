#include "src/core/pipeline.hh"

#include <cstdio>
#include <utility>

#include "src/core/cluster_analysis.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/obs/obs.hh"

namespace maestro
{

namespace
{

/** Stage indices of the instrumentation sites below. */
enum StageIndex : std::size_t
{
    kStageTensor = 0,
    kStageBinding = 1,
    kStageFlat = 2,
    kStageLayer = 3,
};

/**
 * Instrumentation site of each pipeline stage's miss path: a span for
 * the tracer plus a per-stage miss-latency series. With tracing and
 * timing disabled each span costs one relaxed atomic load.
 */
constexpr obs::Site kStageSites[4] = {
    {"pipeline.tensor", "pipeline",
     "maestro_pipeline_stage_miss_us{stage=\"tensor\"}"},
    {"pipeline.binding", "pipeline",
     "maestro_pipeline_stage_miss_us{stage=\"binding\"}"},
    {"pipeline.flat", "pipeline",
     "maestro_pipeline_stage_miss_us{stage=\"flat\"}"},
    {"pipeline.layer", "pipeline",
     "maestro_pipeline_stage_miss_us{stage=\"layer\"}"},
};

/** Appends a double to a fingerprint exactly (hexfloat round-trips). */
void
appendDouble(std::string &out, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a,", value);
    out += buf;
}

/** Appends an integer to a fingerprint. */
void
appendCount(std::string &out, Count value)
{
    out += std::to_string(value);
    out += ',';
}

/** Appends a size/offset expression to a fingerprint. */
void
appendExpr(std::string &out, const SizeExpr &expr)
{
    appendCount(out, expr.constant);
    out += expr.dim ? dimName(*expr.dim) : "-";
    out += ',';
}

/**
 * Scales every activity count of a cost result (grouped convs), and
 * records the factor so downstream re-derivations (dse's
 * energyFromSums) can scale the per-group DRAM fill model too.
 */
void
scaleCost(CostResult &cost, double factor)
{
    cost.total_macs *= factor;
    for (TensorKind t : kAllTensors) {
        cost.l1_reads[t] *= factor;
        cost.l1_writes[t] *= factor;
        cost.l2_reads[t] *= factor;
        cost.l2_writes[t] *= factor;
        cost.dram_reads[t] *= factor;
        cost.dram_writes[t] *= factor;
        cost.energy.l1_read[t] *= factor;
        cost.energy.l1_write[t] *= factor;
        cost.energy.l2_read[t] *= factor;
        cost.energy.l2_write[t] *= factor;
    }
    cost.noc_elements *= factor;
    cost.energy.mac *= factor;
    cost.energy.noc *= factor;
    cost.energy.dram *= factor;
    // tensor_volumes and dram_fill_model stay per-group (they feed
    // the per-group L2 residency check); `groups` carries the factor.
    cost.groups = factor;
}

} // namespace

double
layerRuntime(const PerformanceResult &perf, const Layer &layer)
{
    return perf.runtime * static_cast<double>(layer.groupsVal());
}

LayerAnalysis
assembleLayerAnalysis(PerformanceResult perf, CostResult cost,
                      const Layer &layer,
                      const AcceleratorConfig &config)
{
    const double groups = static_cast<double>(layer.groupsVal());
    scaleCost(cost, groups);

    LayerAnalysis out;
    out.op_class = layer.operatorClass();
    out.runtime = layerRuntime(perf, layer);
    out.total_macs = cost.total_macs;
    out.throughput =
        out.runtime > 0.0 ? out.total_macs / out.runtime : 0.0;
    out.active_pes = perf.active_pes;
    out.utilization =
        perf.active_pes / static_cast<double>(config.num_pes);
    out.noc_bw_requirement = perf.noc_bw_requirement;
    out.bottleneck = perf.bottleneck;
    out.perf = std::move(perf);
    out.cost = std::move(cost);
    return out;
}

std::string
shapeFingerprint(const Layer &layer)
{
    std::string out;
    out.reserve(64);
    appendCount(out, static_cast<Count>(layer.type()));
    for (Dim d : kAllDims)
        appendCount(out, layer.dim(d));
    appendCount(out, layer.strideVal());
    appendCount(out, layer.paddingVal());
    appendCount(out, layer.groupsVal());
    appendDouble(out, layer.inputDensityVal());
    appendDouble(out, layer.weightDensityVal());
    return out;
}

std::string
dataflowFingerprint(const Dataflow &dataflow)
{
    std::string out;
    out.reserve(16 * dataflow.directives().size());
    for (const Directive &d : dataflow.directives()) {
        appendCount(out, static_cast<Count>(d.kind));
        out += dimName(d.dim);
        out += ',';
        appendExpr(out, d.size);
        appendExpr(out, d.offset);
        out += ';';
    }
    return out;
}

std::string
hardwareFingerprint(const AcceleratorConfig &config,
                    const EnergyModel &energy)
{
    std::string out;
    out.reserve(160);
    appendCount(out, config.num_pes);
    appendCount(out, config.l1_bytes);
    appendCount(out, config.l2_bytes);
    appendDouble(out, config.noc.bandwidth());
    appendDouble(out, config.noc.avgLatency());
    appendDouble(out, config.offchip.bandwidth());
    appendDouble(out, config.offchip.avgLatency());
    appendCount(out, config.vector_width);
    appendCount(out, config.precision_bytes);
    appendDouble(out, config.clock_ghz);
    out += config.spatial_multicast ? '1' : '0';
    out += config.spatial_reduction ? '1' : '0';
    out += config.temporal_multicast ? '1' : '0';
    out += config.temporal_reduction ? '1' : '0';
    out += ',';
    const EnergyTable &t = energy.table();
    appendDouble(out, t.mac);
    appendDouble(out, t.l1_read);
    appendDouble(out, t.l1_write);
    appendDouble(out, t.l2_read);
    appendDouble(out, t.l2_write);
    appendDouble(out, t.noc_hop);
    appendDouble(out, t.dram);
    appendCount(out, t.l1_ref_bytes);
    appendCount(out, t.l2_ref_bytes);
    return out;
}

AnalysisPipeline::AnalysisPipeline()
    : tensor_cache_(kStageCapacity), binding_cache_(kStageCapacity),
      flat_cache_(kStageCapacity), layer_cache_(kStageCapacity)
{
}

LayerAnalysis
AnalysisPipeline::analyzeLayer(const Layer &layer,
                               const Dataflow &dataflow,
                               const AcceleratorConfig &config,
                               const EnergyModel &energy)
{
    return analyzeLayer(layer, dataflow, config, energy,
                        hardwareFingerprint(config, energy));
}

LayerAnalysis
AnalysisPipeline::analyzeLayer(const Layer &layer,
                               const Dataflow &dataflow,
                               const AcceleratorConfig &config,
                               const EnergyModel &energy,
                               const std::string &hw_fingerprint)
{
    layer.validate();
    evaluations_.fetch_add(1, std::memory_order_relaxed);

    const std::string shape_key = shapeFingerprint(layer);
    const std::string df_key = dataflowFingerprint(dataflow);
    const std::string layer_key =
        shape_key + '|' + df_key + '|' + hw_fingerprint;

    const std::shared_ptr<const LayerAnalysis> cached =
        layer_cache_.getOrCompute(layer_key, [&] {
            // Full-chain miss span/latency; inner stage spans nest
            // inside it in the trace.
            obs::ScopedSpan layer_span(kStageSites[kStageLayer]);
            const bool depthwise =
                layer.type() == OpType::DepthwiseConv;

            // Stage 1: tensor coupling, keyed by shape only.
            const std::shared_ptr<const TensorInfo> tensors =
                tensor_cache_.getOrCompute(shape_key, [&] {
                    obs::ScopedSpan span(kStageSites[kStageTensor]);
                    return std::make_shared<const TensorInfo>(
                        analyzeTensors(layer));
                });

            // Stage 2: bind + per-level reuse, keyed by
            // (shape, dataflow, PE count).
            std::string bind_key = shape_key;
            bind_key += '|';
            bind_key += df_key;
            bind_key += "|pes:";
            bind_key += std::to_string(config.num_pes);
            const std::shared_ptr<const BindingArtifact> binding =
                binding_cache_.getOrCompute(bind_key, [&] {
                    obs::ScopedSpan span(kStageSites[kStageBinding]);
                    auto artifact = std::make_shared<BindingArtifact>();
                    artifact->bound =
                        bindDataflow(dataflow, layer, config.num_pes);
                    artifact->reuse = analyzeReuse(artifact->bound,
                                                   *tensors, depthwise);
                    return std::shared_ptr<const BindingArtifact>(
                        std::move(artifact));
                });

            // Stage 3: flattened nest, additionally keyed by the NoC
            // support flags it reads.
            std::string flat_key = std::move(bind_key);
            flat_key += "|f:";
            flat_key += config.spatial_multicast ? '1' : '0';
            flat_key += config.spatial_reduction ? '1' : '0';
            flat_key += config.temporal_multicast ? '1' : '0';
            flat_key += config.temporal_reduction ? '1' : '0';
            const std::shared_ptr<const FlatAnalysis> flat =
                flat_cache_.getOrCompute(flat_key, [&] {
                    obs::ScopedSpan span(kStageSites[kStageFlat]);
                    return std::make_shared<const FlatAnalysis>(
                        analyzeFlat(binding->bound, binding->reuse,
                                    *tensors, depthwise, config));
                });

            // Stage 4: performance + cost, keyed by the full hardware
            // and energy-model fingerprint (the layer_key).
            PerformanceResult perf = analyzePerformance(
                binding->bound, binding->reuse, *flat, layer, config);
            CostResult cost =
                analyzeCost(binding->bound, binding->reuse, *flat,
                            perf, layer, config, energy);

            return std::shared_ptr<const LayerAnalysis>(
                std::make_shared<LayerAnalysis>(assembleLayerAnalysis(
                    std::move(perf), std::move(cost), layer, config)));
        });

    // Names are call-specific, not part of the cached artifact.
    LayerAnalysis result = *cached;
    result.layer_name = layer.name();
    result.dataflow_name = dataflow.name();
    return result;
}

PipelineStats
AnalysisPipeline::stats() const
{
    PipelineStats s;
    s.tensor = tensor_cache_.stats();
    s.binding = binding_cache_.stats();
    s.flat = flat_cache_.stats();
    s.layer = layer_cache_.stats();
    s.evaluations = evaluations_.load(std::memory_order_relaxed);
    return s;
}

void
AnalysisPipeline::clearCaches()
{
    tensor_cache_.clear();
    binding_cache_.clear();
    flat_cache_.clear();
    layer_cache_.clear();
}

} // namespace maestro
