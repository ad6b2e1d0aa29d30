#include "src/core/performance_analysis.hh"

#include <algorithm>
#include <cmath>

#include "src/common/error.hh"
#include "src/core/cost_analysis.hh"

namespace maestro
{

PerformanceResult
analyzePerformance(const BoundDataflow &bound,
                   const std::vector<LevelReuse> &reuse,
                   const FlatAnalysis &flat, const Layer &layer,
                   const AcceleratorConfig &config, double compute_scale,
                   PerfRuntimeProfile *profile)
{
    config.validate();
    panicIf(reuse.empty(), "analyzePerformance: no levels");
    if (profile) {
        *profile = PerfRuntimeProfile();
        profile->cases.reserve(flat.loops.size());
    }

    PerformanceResult result;
    result.active_pes = flat.active_pes;
    result.total_pe_steps = flat.total_pe_steps;

    // Per-PE compute delay of one flattened step. The steady value
    // paces the per-case maxima; the edge-averaged value integrates to
    // the true compute-only runtime.
    const double pe_compute = std::ceil(
        std::max(1.0, flat.pe_psums_per_step * compute_scale) /
        static_cast<double>(config.vector_width));
    const double pe_compute_avg = std::max(
        1.0, flat.pe_psums_avg * compute_scale /
                 static_cast<double>(config.vector_width));
    result.compute_only_runtime = pe_compute_avg * flat.total_pe_steps;

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
    // DRAM fill totals (weights/inputs) and drain (final outputs).
    // L2 capacity correction: a tensor the L2 can pin alongside the
    // schedule's streaming working set is fetched once, so its refetch
    // traffic never reaches DRAM (see l2ResidencyBytes).
    const double l2_resident_bytes = l2ResidencyBytes(
        static_cast<double>(config.l2_bytes),
        l2BytesRequired(bound, reuse, config.precision_bytes));
    TensorMap<double> dram_ratio(1.0);
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        const double model_fill =
            top.traffic[t].traffic_per_unit * top_unique_mult[t];
        result.dram_fill_model[t] = model_fill;
        const double volume =
            static_cast<double>(layer.tensorVolume(t));
        const bool resident =
            volume * static_cast<double>(config.precision_bytes) <=
            l2_resident_bytes;
        const double fill = resident && model_fill > volume
                                ? volume
                                : model_fill;
        result.dram_fill[t] = fill;
        dram_ratio[t] = model_fill > 0.0 ? fill / model_fill : 1.0;
    }
    result.final_outputs = flat.final_outputs;

    // Uniform sparsity (paper Sec. 4.4): only nonzero weights and
    // inputs cross the NoC and the off-chip interface, as analyzeCost
    // and the simulator count them.
    TensorMap<double> density(1.0);
    density[TensorKind::Weight] = layer.weightDensityVal();
    density[TensorKind::Input] = layer.inputDensityVal();

    // Fraction of level-0 egress that is final (crosses to DRAM).
    const double top_egress =
        top.traffic[TensorKind::Output].traffic_per_unit *
        top_unique_mult[TensorKind::Output];
    const double final_fraction =
        top_egress > 0.0 ? std::min(1.0, flat.final_outputs / top_egress)
                         : 1.0;

    // Map level-0 flat loops to level-0 reuse loop indices: the flat
    // loop list is the per-level loop lists concatenated in order.
    // (Level-0 loops are the first reuse.front().loops.size() entries.)
    const std::size_t num_top_loops = top.loops.size();

    // Span of steps from one advance of flat loop i to the next:
    // product of the trip counts of all deeper loops.
    std::vector<double> span(flat.loops.size(), 1.0);
    for (std::size_t i = flat.loops.size(); i-- > 0;) {
        span[i] = (i + 1 < flat.loops.size())
                      ? span[i + 1] *
                            static_cast<double>(flat.loops[i + 1].steps)
                      : 1.0;
    }

    // ---- Per-case runtime. ----
    double offchip_busy = 0.0;
    double noc_busy = 0.0;

    // Initial step: serial fill of everything.
    {
        double noc_in = 0.0;
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input})
            noc_in += flat.pe_chunk[t] * flat.noc_mult[t] * density[t];
        double dram_in = 0.0;
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
            dram_in += top.traffic[t].chunk_volume * top_unique_mult[t] *
                       dram_ratio[t] * density[t];
        }
        const double d_noc = config.noc.delay(noc_in);
        const double d_dram = config.offchip.delay(dram_in);
        result.runtime += d_dram + d_noc + pe_compute;
        offchip_busy += d_dram;
        noc_busy += d_noc;
        if (profile) {
            profile->init_dram_delay = d_dram;
            profile->init_noc_volume = noc_in;
            profile->pe_compute = pe_compute;
            profile->pe_compute_avg = pe_compute_avg;
        }
    }

    for (std::size_t i = 0; i < flat.loops.size(); ++i) {
        const FlatLoop &fl = flat.loops[i];
        if (fl.advance_count <= 0.0)
            continue;

        double noc_in = 0.0;
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input})
            noc_in += fl.delta_pe[t] * flat.noc_mult[t] * density[t];
        const double noc_out =
            fl.delta_pe[TensorKind::Output] * flat.out_noc_mult;

        double dram_in = 0.0;
        double dram_out = 0.0;
        if (fl.level == 0 && i < num_top_loops) {
            for (TensorKind t :
                 {TensorKind::Weight, TensorKind::Input}) {
                dram_in += top.traffic[t].delta_per_loop[i] *
                           top_unique_mult[t] * dram_ratio[t] *
                           density[t];
            }
            dram_out = top.traffic[TensorKind::Output]
                           .delta_per_loop[i] *
                       top_unique_mult[TensorKind::Output] *
                       final_fraction;
        }

        const double d_in = config.noc.delay(noc_in);
        const double d_out = config.noc.delay(noc_out);
        if (profile)
            profile->cases.push_back(
                {std::max(noc_in, noc_out), fl.advance_count});

        // Use the edge-averaged compute for steady steps so the sum
        // integrates correctly over partial tail chunks.
        const double outstanding =
            std::max({d_in, d_out, pe_compute_avg});
        result.runtime += outstanding * fl.advance_count;
        noc_busy += (d_in + d_out) * fl.advance_count;
        // DRAM bursts pipeline behind the L2's double buffer: account
        // them as busy time on the off-chip interface.
        offchip_busy += (dram_in + dram_out) /
                        config.offchip.bandwidth() * fl.advance_count;

        if (pe_compute > 0.0) {
            result.noc_bw_requirement =
                std::max(result.noc_bw_requirement,
                         (noc_in + noc_out) / pe_compute);
            result.offchip_bw_requirement = std::max(
                result.offchip_bw_requirement,
                (dram_in + dram_out) / (pe_compute * span[i]));
        }
    }

    // The off-chip interface must sustain the whole fill/drain volume;
    // runtime is bounded below by its busy time.
    if (profile)
        profile->offchip_busy = offchip_busy;
    result.runtime = std::max(result.runtime, offchip_busy);

    // ---- Traffic totals. ----
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        result.l2_supply[t] = flat.l1_fill_per_pe[t] * flat.noc_mult[t];
        result.l1_fill[t] =
            flat.l1_fill_per_pe[t] * flat.delivered_mult;
        result.noc_elements += result.l2_supply[t];
    }
    result.outputs_from_pes =
        flat.egress_per_pe * flat.out_delivered_mult;
    result.output_commits = flat.egress_per_pe * flat.out_noc_mult;
    result.noc_elements += result.output_commits;

    // ---- Bottleneck classification. ----
    if (result.runtime <= result.compute_only_runtime * 1.05) {
        result.bottleneck = "compute";
    } else if (offchip_busy > noc_busy) {
        result.bottleneck = "offchip";
    } else {
        result.bottleneck = "noc";
    }

    return result;
}

} // namespace maestro
