#include "src/core/performance_analysis.hh"

#include <algorithm>
#include <cmath>

#include "src/common/error.hh"
#include "src/core/cost_analysis.hh"

namespace maestro
{

double
runtimeAt(const PerformanceResult &perf, const NocModel &noc)
{
    // Initial step: (dram + noc) + compute.
    double runtime = perf.init_dram_delay +
                     noc.delay(perf.initial.ingress()) + perf.pe_compute;
    for (const TrafficCase &c : perf.cases) {
        // Steady step: ingress and egress overlap compute. delay is
        // monotone, so delay(max(in, out)) == max(delay(in),
        // delay(out)) bit for bit. The edge-averaged compute makes the
        // sum integrate correctly over partial tail chunks.
        const double outstanding = std::max(
            noc.delay(std::max(c.ingress(), c.noc[TensorKind::Output])),
            perf.pe_compute_avg);
        runtime += outstanding * c.advance;
    }
    // The off-chip interface must sustain the whole fill/drain volume.
    return std::max(runtime, perf.offchip_busy);
}

ComputeFloor
computeFloor(const BoundDataflow &bound, const Layer &layer,
             const AcceleratorConfig &config)
{
    ComputeFloor floor;

    // Partial sums of one steady PE step: every (y, r) and (x, s)
    // pair the PE's activation and filter chunks cover.
    const BoundLevel &pe = bound.peLevel();
    const Count pairs_y =
        outputChunkSize(pe.chunk[Dim::Y], pe.extents[Dim::Y],
                        pe.chunk[Dim::R], pe.extents[Dim::R],
                        pe.stride) *
        pe.chunk[Dim::R];
    const Count pairs_x =
        outputChunkSize(pe.chunk[Dim::X], pe.extents[Dim::X],
                        pe.chunk[Dim::S], pe.extents[Dim::S],
                        pe.stride) *
        pe.chunk[Dim::S];
    floor.psums_per_step = static_cast<double>(pe.chunk[Dim::N]) *
                           static_cast<double>(pe.chunk[Dim::K]) *
                           static_cast<double>(pe.chunk[Dim::C]) *
                           static_cast<double>(pairs_y) *
                           static_cast<double>(pairs_x);
    const DimMap<double> edge = edgeRatios(bound);
    double ratio = 1.0;
    for (Dim d : kAllDims)
        ratio *= edge[d];
    floor.psums_avg = floor.psums_per_step * ratio;

    // The steady value paces the initial step; the edge-averaged value
    // integrates to the true compute-only runtime.
    const double density =
        layer.inputDensityVal() * layer.weightDensityVal();
    const auto vector_width = static_cast<double>(config.vector_width);
    floor.pe_compute =
        std::ceil(std::max(1.0, floor.psums_per_step * density) /
                  vector_width);
    floor.pe_compute_avg = std::ceil(
        std::max(1.0, floor.psums_avg * density) / vector_width);

    for (const BoundLevel &level : bound.levels)
        floor.total_pe_steps *= static_cast<double>(level.total_steps);
    floor.compute_only_runtime =
        floor.pe_compute_avg * floor.total_pe_steps;
    return floor;
}

PerformanceResult
analyzePerformance(const BoundDataflow &bound,
                   const std::vector<LevelReuse> &reuse,
                   const FlatAnalysis &flat, const Layer &layer,
                   const AcceleratorConfig &config)
{
    config.validate();
    panicIf(reuse.empty(), "analyzePerformance: no levels");

    PerformanceResult result;
    result.active_pes = flat.active_pes;

    // Uniform sparsity (paper Sec. 4.4): only nonzero weights and
    // inputs are multiplied, cross the NoC and the off-chip interface.
    TensorMap<double> density(1.0);
    density[TensorKind::Weight] = layer.weightDensityVal();
    density[TensorKind::Input] = layer.inputDensityVal();

    const ComputeFloor floor = computeFloor(bound, layer, config);
    result.pe_compute = floor.pe_compute;
    result.pe_compute_avg = floor.pe_compute_avg;
    result.total_pe_steps = floor.total_pe_steps;
    result.compute_only_runtime = floor.compute_only_runtime;

    // ---- DRAM <-> L2 side: level-0 transition profile. ----
    const LevelReuse &top = reuse.front();
    const BoundLevel &top_level = bound.levels.front();
    const double active0 = top_level.active_units;
    TensorMap<double> top_unique_mult;
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        top_unique_mult[t] = std::max(
            1.0, active0 * top.traffic[t].spatial_unique_ratio);
    }
    {
        const TensorLevelTraffic &ot = top.traffic[TensorKind::Output];
        if (ot.spatial_reduction) {
            top_unique_mult[TensorKind::Output] =
                config.spatial_reduction ? 1.0 : active0;
        } else {
            top_unique_mult[TensorKind::Output] =
                std::max(1.0, active0 * ot.spatial_unique_ratio);
        }
    }
    // DRAM fill totals (weights/inputs). L2 capacity correction: a
    // tensor the L2 can pin alongside the schedule's streaming working
    // set is fetched once, so its refetch traffic never reaches DRAM
    // (see l2Resident).
    const double l2_required =
        l2BytesRequired(bound, reuse, config.precision_bytes);
    TensorMap<double> dram_ratio(1.0);
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        const double model_fill =
            top.traffic[t].traffic_per_unit * top_unique_mult[t];
        const double volume =
            static_cast<double>(layer.tensorVolume(t));
        const bool resident = l2Resident(
            volume * density[t], config.precision_bytes,
            static_cast<double>(config.l2_bytes), l2_required);
        const double fill = resident && model_fill > volume
                                ? volume
                                : model_fill;
        result.dram_fill_model[t] = model_fill * density[t];
        result.dram_fill[t] = fill * density[t];
        dram_ratio[t] = model_fill > 0.0 ? fill / model_fill : 1.0;
    }
    result.final_outputs = flat.final_outputs;

    // Fraction of level-0 egress that is final (crosses to DRAM).
    const double top_egress =
        top.traffic[TensorKind::Output].traffic_per_unit *
        top_unique_mult[TensorKind::Output];
    const double final_fraction =
        top_egress > 0.0 ? std::min(1.0, flat.final_outputs / top_egress)
                         : 1.0;

    // Level-0 flat loops come first: the flat loop list is the
    // per-level loop lists concatenated in order.
    const std::size_t num_top_loops = top.loops.size();

    // ---- The traffic record. ----
    TrafficCase &init = result.initial;
    init.advance = 1.0;
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        init.noc[t] = flat.pe_chunk[t] * flat.noc_mult[t] * density[t];
        init.dram[t] = top.traffic[t].chunk_volume * top_unique_mult[t] *
                       dram_ratio[t] * density[t];
    }
    result.init_dram_delay = config.offchip.delay(
        init.dram[TensorKind::Weight] + init.dram[TensorKind::Input]);
    result.offchip_busy = result.init_dram_delay;
    double noc_busy = config.noc.delay(init.ingress());

    result.cases.reserve(flat.loops.size());
    for (std::size_t i = 0; i < flat.loops.size(); ++i) {
        const FlatLoop &fl = flat.loops[i];
        if (fl.advance_count <= 0.0)
            continue;

        TrafficCase &c = result.cases.emplace_back();
        c.advance = fl.advance_count;
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input})
            c.noc[t] = fl.delta_pe[t] * flat.noc_mult[t] * density[t];
        c.noc[TensorKind::Output] =
            fl.delta_pe[TensorKind::Output] *
            flat.noc_mult[TensorKind::Output];
        if (fl.level == 0 && i < num_top_loops) {
            for (TensorKind t :
                 {TensorKind::Weight, TensorKind::Input}) {
                c.dram[t] = top.traffic[t].delta_per_loop[i] *
                            top_unique_mult[t] * dram_ratio[t] *
                            density[t];
            }
            c.dram[TensorKind::Output] =
                top.traffic[TensorKind::Output].delta_per_loop[i] *
                top_unique_mult[TensorKind::Output] * final_fraction;
        }

        const double noc_in = c.ingress();
        const double noc_out = c.noc[TensorKind::Output];
        noc_busy += (config.noc.delay(noc_in) +
                     config.noc.delay(noc_out)) *
                    c.advance;
        // DRAM bursts pipeline behind the L2's double buffer: account
        // them as busy time on the off-chip interface.
        result.offchip_busy +=
            (c.dram[TensorKind::Weight] + c.dram[TensorKind::Input] +
             c.dram[TensorKind::Output]) /
            config.offchip.bandwidth() * c.advance;
        result.noc_bw_requirement =
            std::max(result.noc_bw_requirement,
                     (noc_in + noc_out) / result.pe_compute);
    }
    result.runtime = runtimeAt(result, config.noc);

    // ---- Traffic totals. ----
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        result.l2_supply[t] =
            flat.l1_fill_per_pe[t] * flat.noc_mult[t] * density[t];
        result.l1_fill[t] =
            flat.l1_fill_per_pe[t] * flat.delivered_mult * density[t];
    }
    result.output_commits =
        flat.egress_per_pe * flat.noc_mult[TensorKind::Output];

    // ---- Bottleneck classification. ----
    if (result.runtime <= result.compute_only_runtime * 1.05) {
        result.bottleneck = "compute";
    } else if (result.offchip_busy > noc_busy) {
        result.bottleneck = "offchip";
    } else {
        result.bottleneck = "noc";
    }

    return result;
}

} // namespace maestro
