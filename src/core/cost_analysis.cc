#include "src/core/cost_analysis.hh"

#include <algorithm>
#include <cmath>

#include "src/common/error.hh"

namespace maestro
{

double
CostResult::onchipEnergy() const
{
    return energy.total() - energy.dram;
}

CostResult::AccessSums
CostResult::accessSums() const
{
    AccessSums sums;
    sums.total_macs = total_macs;
    for (TensorKind tensor : kAllTensors) {
        sums.l1_reads += l1_reads[tensor];
        sums.l1_writes += l1_writes[tensor];
        sums.l2_reads += l2_reads[tensor];
    }
    sums.l2_writes = l2_writes[TensorKind::Output];
    sums.noc_elements = noc_elements;
    sums.output_dram_writes = dram_writes[TensorKind::Output];
    sums.weight_volume = tensor_volumes[TensorKind::Weight];
    sums.input_volume = tensor_volumes[TensorKind::Input];
    sums.weight_fill = dram_fill_model[TensorKind::Weight];
    sums.input_fill = dram_fill_model[TensorKind::Input];
    sums.l2_required = l2_bytes_required;
    sums.groups = groups;
    return sums;
}

double
l2BytesRequired(const BoundDataflow &bound,
                const std::vector<LevelReuse> &reuse,
                Count precision_bytes)
{
    double l2_elems = 0.0;
    const double active0 = bound.levels[0].active_units;
    for (TensorKind t : kAllTensors) {
        const TensorLevelTraffic &tr = reuse[0].traffic[t];
        l2_elems += tr.chunk_volume *
                    std::max(1.0, active0 * tr.spatial_unique_ratio);
    }
    return 2.0 * l2_elems * static_cast<double>(precision_bytes);
}

RegisterTraffic
registerFileTraffic(const BoundLevel &pe_level, bool depthwise)
{
    // The partial-sum nest of one PE chunk: per-dimension trip counts
    // in the PE level's directive order, with Y/X iterated in *output*
    // space (Y' = oy positions) and R/S over the filter chunk.
    const Count stride = pe_level.stride;
    const Count oy = outputChunkSize(
        pe_level.chunk[Dim::Y], pe_level.extents[Dim::Y],
        pe_level.chunk[Dim::R], pe_level.extents[Dim::R], stride);
    const Count ox = outputChunkSize(
        pe_level.chunk[Dim::X], pe_level.extents[Dim::X],
        pe_level.chunk[Dim::S], pe_level.extents[Dim::S], stride);

    struct L0Loop
    {
        Dim dim;
        Count steps;
    };
    std::vector<L0Loop> loops;
    for (const auto &bd : pe_level.directives) {
        Count steps;
        switch (bd.dim) {
          case Dim::Y:
            steps = std::max<Count>(1, oy);
            break;
          case Dim::X:
            steps = std::max<Count>(1, ox);
            break;
          default:
            steps = pe_level.chunk[bd.dim];
            break;
        }
        if (steps > 1)
            loops.push_back({bd.dim, steps});
    }

    // Element-granularity stream coupling: the input element moves
    // with R/S too (y = y' * stride + r).
    DimMap<bool> w_coupled;
    w_coupled[Dim::K] = !depthwise;
    w_coupled[Dim::C] = true;
    w_coupled[Dim::R] = true;
    w_coupled[Dim::S] = true;
    DimMap<bool> i_coupled;
    i_coupled[Dim::N] = true;
    i_coupled[Dim::C] = true;
    i_coupled[Dim::Y] = true;
    i_coupled[Dim::X] = true;
    i_coupled[Dim::R] = true;
    i_coupled[Dim::S] = true;
    DimMap<bool> o_coupled;
    o_coupled[Dim::N] = true;
    o_coupled[Dim::K] = !depthwise;
    o_coupled[Dim::C] = depthwise;
    o_coupled[Dim::Y] = true;
    o_coupled[Dim::X] = true;

    // A stream re-reads L1 on every transition at or above its
    // innermost coupled loop (any such advance changes or resets the
    // element), plus the initial read.
    auto stream_reads = [&](const DimMap<bool> &coupled) {
        std::ptrdiff_t innermost = -1;
        for (std::size_t i = 0; i < loops.size(); ++i) {
            if (coupled[loops[i].dim])
                innermost = static_cast<std::ptrdiff_t>(i);
        }
        double reads = 1.0;
        double outer = 1.0;
        for (std::size_t i = 0; i < loops.size(); ++i) {
            const double count =
                static_cast<double>(loops[i].steps - 1) * outer;
            outer *= static_cast<double>(loops[i].steps);
            if (static_cast<std::ptrdiff_t>(i) <= innermost)
                reads += count;
        }
        return reads;
    };

    RegisterTraffic out;
    out.l1_reads[TensorKind::Weight] = stream_reads(w_coupled);
    out.l1_reads[TensorKind::Input] = stream_reads(i_coupled);
    // The psum register writes back whenever the output element is
    // about to change, and once at the end.
    out.psum_writes = stream_reads(o_coupled);
    out.outputs = static_cast<double>(pe_level.chunk[Dim::N]) *
                  static_cast<double>(depthwise
                                          ? pe_level.chunk[Dim::C]
                                          : pe_level.chunk[Dim::K]) *
                  static_cast<double>(std::max<Count>(1, oy)) *
                  static_cast<double>(std::max<Count>(1, ox));
    out.psum_reads = std::max(0.0, out.psum_writes - out.outputs);
    out.l1_reads[TensorKind::Output] = out.psum_reads;
    return out;
}

CostResult
analyzeCost(const BoundDataflow &bound, const std::vector<LevelReuse> &reuse,
            const FlatAnalysis &flat, const PerformanceResult &perf,
            const Layer &layer,
            const AcceleratorConfig &config,
            const EnergyModel &energy_model)
{
    panicIf(bound.levels.empty(), "analyzeCost: no levels");
    const bool depthwise = layer.type() == OpType::DepthwiseConv;

    CostResult cost;
    cost.total_macs = layer.macs();

    // Density discounts (uniform sparsity, paper Sec. 4.4).
    TensorMap<double> density(1.0);
    density[TensorKind::Weight] = layer.weightDensityVal();
    density[TensorKind::Input] = layer.inputDensityVal();
    density[TensorKind::Output] = 1.0;

    // ---- DRAM <-> L2 boundary. ----
    for (TensorKind t : kAllTensors) {
        cost.tensor_volumes[t] =
            static_cast<double>(layer.tensorVolume(t)) * density[t];
    }
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        // The performance engine already applies the L2 capacity
        // correction (a resident tensor is fetched exactly once) and
        // the density.
        cost.dram_fill_model[t] = perf.dram_fill_model[t];
        cost.dram_reads[t] = perf.dram_fill[t];
        cost.l2_writes[t] = perf.dram_fill[t];
    }
    cost.dram_writes[TensorKind::Output] = perf.final_outputs;
    // Final outputs drain from L2 to DRAM: one L2 read each.
    cost.l2_reads[TensorKind::Output] += perf.final_outputs;

    // ---- L2 <-> L1 boundary (flattened nest). ----
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        cost.l2_reads[t] += perf.l2_supply[t];
        cost.noc_elements += perf.l2_supply[t];
        cost.l1_writes[t] += perf.l1_fill[t];
    }
    {
        const double commits = perf.output_commits;
        cost.noc_elements += commits;
        cost.l2_writes[TensorKind::Output] += commits;
        if (!config.spatial_reduction) {
            // Partials merge in L2 with a read-modify-write each.
            cost.l2_reads[TensorKind::Output] += commits;
        }
        // Temporal reduction across revisits: with an accumulation
        // buffer the partials merge in L2 (read-modify-write); without
        // one, the PEs read the previous partials back.
        const double revisits =
            std::max(0.0, commits - perf.final_outputs);
        if (config.temporal_reduction) {
            if (config.spatial_reduction) {
                // Not already charged by the per-commit RMW above.
                cost.l2_reads[TensorKind::Output] += revisits;
            }
        } else {
            cost.l2_reads[TensorKind::Output] += revisits;
            cost.noc_elements += revisits;
            cost.l1_writes[TensorKind::Output] +=
                revisits *
                (flat.delivered_mult /
                 std::max(1.0, flat.noc_mult[TensorKind::Output]));
        }
    }

    // ---- L1 <-> register (L0) boundary, per PE step. ----
    {
        const RegisterTraffic l0 =
            registerFileTraffic(bound.levels.back(), depthwise);
        const double l0_execs = perf.total_pe_steps * flat.active_pes;
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input})
            cost.l1_reads[t] += l0.l1_reads[t] * l0_execs * density[t];
        cost.l1_writes[TensorKind::Output] += l0.psum_writes * l0_execs;
        cost.l1_reads[TensorKind::Output] += l0.psum_reads * l0_execs;
    }

    // ---- Buffer requirements (double buffering, paper Fig. 8). ----
    {
        double l1_elems = 0.0;
        for (TensorKind t : kAllTensors)
            l1_elems += flat.l1_resident_elems[t];
        cost.l1_bytes_required =
            2.0 * l1_elems * static_cast<double>(config.precision_bytes);

        cost.l2_bytes_required =
            l2BytesRequired(bound, reuse, config.precision_bytes);

        cost.fits_l1 = cost.l1_bytes_required <=
                       static_cast<double>(config.l1_bytes);
        cost.fits_l2 = cost.l2_bytes_required <=
                       static_cast<double>(config.l2_bytes);
    }

    // ---- Reuse factors (paper Fig. 11). ----
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        const double fetches = std::max(1.0, cost.l2_reads[t]);
        cost.reuse_factor[t] = cost.total_macs * density[t] / fetches;
    }
    cost.reuse_factor[TensorKind::Output] =
        cost.total_macs /
        std::max(1.0, cost.l2_writes[TensorKind::Output]);

    // ---- Energy (MAC-energy units). ----
    cost.energy.mac = cost.total_macs * energy_model.macEnergy();
    const double l1r = energy_model.l1ReadEnergy(config.l1_bytes);
    const double l1w = energy_model.l1WriteEnergy(config.l1_bytes);
    const double l2r = energy_model.l2ReadEnergy(config.l2_bytes);
    const double l2w = energy_model.l2WriteEnergy(config.l2_bytes);
    for (TensorKind t : kAllTensors) {
        cost.energy.l1_read[t] = cost.l1_reads[t] * l1r;
        cost.energy.l1_write[t] = cost.l1_writes[t] * l1w;
        cost.energy.l2_read[t] = cost.l2_reads[t] * l2r;
        cost.energy.l2_write[t] = cost.l2_writes[t] * l2w;
    }
    cost.energy.noc =
        cost.noc_elements * energy_model.nocEnergy(config.noc.avgLatency());
    double dram_accesses = 0.0;
    for (TensorKind t : kAllTensors)
        dram_accesses += cost.dram_reads[t] + cost.dram_writes[t];
    cost.energy.dram = dram_accesses * energy_model.dramEnergy();

    return cost;
}

} // namespace maestro
