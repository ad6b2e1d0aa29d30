#include "src/core/flat_analysis.hh"

#include <algorithm>
#include <cmath>

#include "src/common/error.hh"

namespace maestro
{

namespace
{

/**
 * Storage-dim views of a tensor at one level (ownership-aware shifts
 * come from the reuse engine's tensorStorageDims).
 */
const StorageDimView *
findStorage(const StorageDims &dims, Dim map_dim)
{
    for (const auto &sd : dims) {
        if (sd.map_dim == map_dim)
            return &sd;
    }
    return nullptr;
}

/**
 * Slide of one of the PE chunk's storage dims when a given flat loop
 * advances (in that storage dim's own index space). Returns a negative
 * value when the loop does not move this storage dim.
 */
double
loopSlide(const BoundDataflow &bound, const FlatLoop &loop,
          const StorageDimView &pe_sd, TensorKind kind, bool depthwise)
{
    const BoundLevel &level = bound.levels[loop.level];
    if (loop.is_fold) {
        const auto level_dims = tensorStorageDims(level, kind, depthwise);
        const StorageDimView *lsd = findStorage(level_dims, pe_sd.map_dim);
        if (lsd == nullptr || std::abs(lsd->shift) <= 0.0)
            return -1.0;
        // Per fold every unit jumps active_units positions.
        return level.active_units * std::abs(lsd->shift);
    }
    if (loop.dim != pe_sd.map_dim)
        return -1.0;
    // Temporal advance: the PE's chunk slides by the directive's
    // offset (output units for the output tensor's derived dims).
    for (const auto &bd : level.directives) {
        if (bd.dim != loop.dim || bd.spatial())
            continue;
        if (kind == TensorKind::Output &&
            (pe_sd.map_dim == Dim::Y || pe_sd.map_dim == Dim::X)) {
            return bd.out_space
                       ? static_cast<double>(bd.offset_out)
                       : static_cast<double>(bd.offset_in) /
                             static_cast<double>(level.stride);
        }
        return static_cast<double>(bd.offset_in);
    }
    return -1.0;
}

/**
 * True when the flat loop changes the tensor's PE chunk.
 */
bool
loopCoupled(const BoundDataflow &bound, const FlatLoop &loop,
            const TensorInfo &tensors, TensorKind kind, bool depthwise)
{
    const BoundLevel &level = bound.levels[loop.level];
    if (loop.is_fold) {
        const auto dims = tensorStorageDims(level, kind, depthwise);
        for (const auto &sd : dims) {
            if (std::abs(sd.shift) > 0.0)
                return true;
        }
        return false;
    }
    if (tensors.spec(kind).coupled[loop.dim])
        return true;
    if (kind != TensorKind::Output)
        return false;
    // An iterating R/S loop retargets the PE's outputs only in the
    // diagonal case at that level (activation chunk < filter extent).
    if (loop.dim == Dim::R) {
        return level.chunk[Dim::Y] < level.extents[Dim::R];
    }
    if (loop.dim == Dim::S) {
        return level.chunk[Dim::X] < level.extents[Dim::S];
    }
    return false;
}

} // namespace

DimMap<double>
edgeRatios(const BoundDataflow &bound)
{
    DimMap<double> ratio(1.0);
    for (const auto &level : bound.levels) {
        for (Dim d : kAllDims) {
            const double steady = static_cast<double>(level.chunk[d]);
            if (steady > 0.0)
                ratio[d] *= level.avg_chunk[d] / steady;
        }
    }
    return ratio;
}

FlatAnalysis
analyzeFlat(const BoundDataflow &bound,
            const std::vector<LevelReuse> &reuse,
            const TensorInfo &tensors, bool depthwise,
            const AcceleratorConfig &config)
{
    panicIf(bound.levels.size() != reuse.size(),
            "analyzeFlat: level count mismatch");

    FlatAnalysis flat;

    // ---- Flattened loops and advance counts. ----
    {
        std::size_t total_loops = 0;
        for (const LevelReuse &lr : reuse)
            total_loops += lr.loops.size();
        flat.loops.reserve(total_loops);
    }
    for (std::size_t l = 0; l < bound.levels.size(); ++l) {
        for (const LoopInfo &li : reuse[l].loops) {
            FlatLoop fl;
            fl.level = l;
            fl.is_fold = li.is_fold;
            fl.dim = li.dim;
            fl.steps = li.steps;
            flat.loops.push_back(fl);
        }
    }
    {
        double outer = 1.0;
        for (auto &fl : flat.loops) {
            fl.advance_count =
                static_cast<double>(fl.steps - 1) * outer;
            outer *= static_cast<double>(fl.steps);
        }
    }

    // ---- PE chunk volumes. ----
    const BoundLevel &pe_level = bound.levels.back();
    const DimMap<double> edge_ratio = edgeRatios(bound);
    TensorMap<StorageDims> storage;
    for (TensorKind t : kAllTensors) {
        storage[t] = tensorStorageDims(pe_level, t, depthwise);
        flat.pe_chunk[t] = 1.0;
        for (auto &sd : storage[t]) {
            flat.pe_chunk[t] *= sd.chunk;
            // Fold the outer levels' edge ratios into the PE chunk
            // averages (the PE-level view only sees its own edges).
            sd.avg = std::min(
                sd.chunk,
                sd.chunk * edge_ratio[sd.map_dim]);
        }
    }

    // ---- Chip-wide spatial multipliers. `unique` is the union of
    //      all PEs' data, from which multicast (weights, inputs) and
    //      fan-in reduction (outputs) gate what the NoC carries. ----
    flat.delivered_mult = 1.0;
    TensorMap<double> unique_mult(1.0);
    for (std::size_t l = 0; l < bound.levels.size(); ++l) {
        const double active = bound.levels[l].active_units;
        flat.delivered_mult *= active;
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
            const double rho = reuse[l].traffic[t].spatial_unique_ratio;
            unique_mult[t] *= std::max(1.0, active * rho);
        }
        const TensorLevelTraffic &ot =
            reuse[l].traffic[TensorKind::Output];
        if (ot.spatial_reduction) {
            unique_mult[TensorKind::Output] *=
                config.spatial_reduction ? 1.0 : active;
        } else {
            unique_mult[TensorKind::Output] *=
                std::max(1.0, active * ot.spatial_unique_ratio);
        }
    }
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        const bool shared = unique_mult[t] < flat.delivered_mult;
        flat.noc_mult[t] = (shared && config.spatial_multicast)
                               ? unique_mult[t]
                               : flat.delivered_mult;
    }
    flat.noc_mult[TensorKind::Output] = unique_mult[TensorKind::Output];

    // ---- Per-loop per-PE deltas (transition model over the
    //      flattened nest). ----
    for (TensorKind kind : kAllTensors) {
        std::vector<std::size_t> coupled;
        coupled.reserve(flat.loops.size());
        bool coupled_temporal = false;
        for (std::size_t i = 0; i < flat.loops.size(); ++i) {
            if (loopCoupled(bound, flat.loops[i], tensors, kind,
                            depthwise)) {
                coupled.push_back(i);
                coupled_temporal |= !flat.loops[i].is_fold;
            }
        }

        double avg_chunk = 1.0;
        for (const auto &sd : storage[kind])
            avg_chunk *= sd.avg;

        // Fold residency: coupled only through spatial folds means the
        // per-PE fold working set stays in L1 across outer sweeps.
        if (!coupled.empty() && !coupled_temporal) {
            double fold_steps = 1.0;
            for (std::size_t i : coupled) {
                fold_steps *= static_cast<double>(flat.loops[i].steps);
                flat.loops[i].delta_pe[kind] = avg_chunk;
            }
            flat.l1_resident_elems[kind] =
                flat.pe_chunk[kind] * fold_steps;
            flat.l1_fill_per_pe[kind] = avg_chunk * fold_steps;
            continue;
        }
        flat.l1_resident_elems[kind] = flat.pe_chunk[kind];

        for (std::size_t i = 0; i < flat.loops.size(); ++i) {
            FlatLoop &fl = flat.loops[i];
            const bool has_at_or_after =
                !coupled.empty() && coupled.back() >= i;
            if (!has_at_or_after) {
                fl.delta_pe[kind] = 0.0;
                continue;
            }
            if (coupled.back() != i) {
                fl.delta_pe[kind] = avg_chunk;
                continue;
            }
            // Innermost coupled loop: sliding credit on the single
            // storage dim this loop moves.
            double delta = 1.0;
            int moved = 0;
            for (const auto &sd : storage[kind]) {
                const double slide =
                    loopSlide(bound, fl, sd, kind, depthwise);
                if (slide >= 0.0) {
                    ++moved;
                    delta *= std::min(sd.chunk, slide);
                } else {
                    delta *= sd.avg;
                }
            }
            if (moved != 1)
                delta = avg_chunk;
            fl.delta_pe[kind] = delta;
        }

        double total = avg_chunk;
        for (const auto &fl : flat.loops)
            total += fl.advance_count * fl.delta_pe[kind];
        flat.l1_fill_per_pe[kind] = total;
    }
    flat.egress_per_pe = flat.l1_fill_per_pe[TensorKind::Output];

    double active = 1.0;
    for (const auto &level : bound.levels)
        active *= level.active_units;
    flat.active_pes = active;

    flat.final_outputs = reuse.front().outputs_per_exec;

    return flat;
}

} // namespace maestro
