#include "src/core/reuse_analysis.hh"

#include <algorithm>
#include <cmath>

#include "src/common/error.hh"

namespace maestro
{

Count
outputChunkSize(Count act_chunk, Count act_extent, Count filt_chunk,
                Count filt_extent, Count stride)
{
    if (act_chunk >= filt_extent) {
        // Ownership: the chunk produces outputs with the full filter;
        // the filter chunk does not change which outputs are owned.
        return convOutputs(act_chunk, filt_extent, stride);
    }
    // Diagonal/halo: the chunk only contributes partial sums; count
    // the outputs it participates in given the filter chunk.
    const Count window =
        std::min(act_chunk + (filt_extent - filt_chunk), act_extent);
    return convOutputs(window, filt_extent, stride);
}

namespace
{

/** Finds the bound directive for a dim (always present after binding). */
const BoundDirective &
findDirective(const BoundLevel &level, Dim d)
{
    for (const auto &bd : level.directives) {
        if (bd.dim == d)
            return bd;
    }
    panicIf(true, "no directive for dim ", dimName(d));
    return level.directives.front();
}

} // namespace

StorageDims
tensorStorageDims(const BoundLevel &level, TensorKind kind, bool depthwise)
{
    const Count stride = level.stride;
    StorageDims dims;

    auto direct = [&](Dim d) {
        const BoundDirective &bd = findDirective(level, d);
        StorageDimView sd;
        sd.map_dim = d;
        sd.chunk = static_cast<double>(bd.size);
        sd.avg = level.avg_chunk[d];
        sd.extent = static_cast<double>(level.extents[d]);
        sd.shift = static_cast<double>(level.spatial_shift[d]);
        dims.push_back(sd);
    };

    switch (kind) {
      case TensorKind::Weight:
        if (!depthwise)
            direct(Dim::K);
        direct(Dim::C);
        direct(Dim::R);
        direct(Dim::S);
        break;
      case TensorKind::Input:
        direct(Dim::N);
        direct(Dim::C);
        direct(Dim::Y);
        direct(Dim::X);
        break;
      case TensorKind::Output: {
        direct(Dim::N);
        direct(depthwise ? Dim::C : Dim::K);
        // Output rows/columns: derived from the (Y, R) / (X, S) pairs.
        for (auto [act, filt] : {std::pair{Dim::Y, Dim::R},
                                 std::pair{Dim::X, Dim::S}}) {
            const BoundDirective &a = findDirective(level, act);
            const BoundDirective &f = findDirective(level, filt);
            StorageDimView sd;
            sd.map_dim = act;
            sd.chunk = static_cast<double>(
                outputChunkSize(a.size, level.extents[act], f.size,
                                level.extents[filt], stride));
            sd.avg = sd.chunk;
            sd.extent = static_cast<double>(convOutputs(
                level.extents[act], level.extents[filt], stride));
            if (a.size >= level.extents[filt]) {
                // Ownership: outputs move only with the activation
                // map; filter shifts do not retarget them.
                sd.shift = static_cast<double>(
                               level.spatial_shift[act]) /
                           static_cast<double>(stride);
            } else {
                // Diagonal: y' = y - r, so co-mapped equal shifts
                // cancel (Eyeriss row stationary).
                sd.shift = static_cast<double>(outputSpaceShift(
                               level.spatial_shift[act],
                               level.spatial_shift[filt])) /
                           static_cast<double>(stride);
            }
            dims.push_back(sd);
        }
        break;
      }
    }
    return dims;
}

namespace
{

/**
 * Dims that, when advanced temporally, change this tensor's chunk.
 * For the output this includes partially-chunked filter dims, whose
 * advance retargets the produced outputs.
 */
DimMap<bool>
temporalCoupling(const BoundLevel &level, const TensorInfo &tensors,
                 TensorKind kind)
{
    DimMap<bool> coupled;
    for (Dim d : kAllDims)
        coupled[d] = tensors.spec(kind).coupled[d];
    if (kind == TensorKind::Output) {
        // A partial filter chunk retargets outputs only in the
        // diagonal case (activation chunk smaller than the filter);
        // under ownership the activation position fixes the outputs.
        const BoundDirective &r = findDirective(level, Dim::R);
        const BoundDirective &s = findDirective(level, Dim::S);
        const BoundDirective &y = findDirective(level, Dim::Y);
        const BoundDirective &x = findDirective(level, Dim::X);
        if (r.size < level.extents[Dim::R] &&
            y.size < level.extents[Dim::R]) {
            coupled[Dim::R] = true;
        }
        if (s.size < level.extents[Dim::S] &&
            x.size < level.extents[Dim::S]) {
            coupled[Dim::S] = true;
        }
    }
    return coupled;
}

} // namespace

LevelReuse
analyzeLevelReuse(const BoundLevel &level, const TensorInfo &tensors,
                  bool depthwise)
{
    LevelReuse out;
    const Count stride = level.stride;

    // ---- Nest loops (iterating temporal directives + fold loop). ----
    for (std::size_t i = 0; i < level.directives.size(); ++i) {
        const BoundDirective &bd = level.directives[i];
        if (i == level.first_spatial && level.spatial_folds > 1) {
            LoopInfo fold;
            fold.is_fold = true;
            fold.steps = level.spatial_folds;
            out.loops.push_back(fold);
        }
        if (!bd.spatial() && bd.iterating()) {
            LoopInfo li;
            li.is_fold = false;
            li.dim = bd.dim;
            li.steps = bd.steps;
            out.loops.push_back(li);
        }
    }
    double outer_product = 1.0;
    for (auto &loop : out.loops) {
        loop.advance_count =
            static_cast<double>(loop.steps - 1) * outer_product;
        outer_product *= static_cast<double>(loop.steps);
    }

    // ---- Output volume of one level execution. ----
    out.outputs_per_exec =
        static_cast<double>(level.extents[Dim::N]) *
        static_cast<double>(depthwise ? level.extents[Dim::C]
                                      : level.extents[Dim::K]) *
        static_cast<double>(convOutputs(level.extents[Dim::Y],
                                        level.extents[Dim::R], stride)) *
        static_cast<double>(convOutputs(level.extents[Dim::X],
                                        level.extents[Dim::S], stride));

    // ---- Per-tensor spatial structure and temporal deltas. ----
    const double active = level.active_units;
    for (TensorKind kind : kAllTensors) {
        TensorLevelTraffic &t = out.traffic[kind];
        const auto dims = tensorStorageDims(level, kind, depthwise);
        const auto coupled = temporalCoupling(level, tensors, kind);

        t.chunk_volume = 1.0;
        double avg_chunk_volume = 1.0;
        for (const auto &sd : dims) {
            t.chunk_volume *= sd.chunk;
            avg_chunk_volume *= sd.avg;
        }

        // Spatial structure across the level's active units.
        bool any_shift = false;
        double unique = 1.0;
        double total = 1.0;
        for (const auto &sd : dims) {
            const double shift = std::abs(sd.shift);
            if (shift > 0.0) {
                any_shift = true;
                unique *= sd.chunk +
                          (active - 1.0) * std::min(shift, sd.chunk);
            } else {
                unique *= sd.chunk;
            }
            total *= sd.chunk;
        }
        total *= active;
        const bool has_spatial =
            level.first_spatial != BoundLevel::kNoSpatial && active > 1.0;
        if (!has_spatial) {
            t.fully_shared = false;
            t.spatial_unique_ratio = 1.0;
        } else if (!any_shift) {
            t.fully_shared = true;
            t.spatial_unique_ratio = 1.0 / active;
        } else {
            t.fully_shared = false;
            t.spatial_unique_ratio =
                std::min(1.0, total > 0.0 ? unique / total : 1.0);
        }
        if (kind == TensorKind::Output)
            t.spatial_reduction = t.fully_shared;

        // Temporal deltas per nest loop (transition model; see .hh).
        t.delta_per_loop.assign(out.loops.size(), 0.0);
        LevelLoops<std::size_t> coupled_loops;
        bool coupled_temporal = false;
        for (std::size_t i = 0; i < out.loops.size(); ++i) {
            const LoopInfo &loop = out.loops[i];
            const bool is_coupled =
                loop.is_fold ? any_shift : coupled[loop.dim];
            if (is_coupled) {
                coupled_loops.push_back(i);
                coupled_temporal |= !loop.is_fold;
            }
        }

        // Fold residency: a tensor coupled only through a spatial
        // map's fold keeps its (small) per-unit fold working set in
        // the local buffer, so outer loops re-sweep it for free (the
        // paper's Fig. 5(B) "weight stationary" classification).
        if (!coupled_loops.empty() && !coupled_temporal) {
            double fold_steps = 1.0;
            for (std::size_t i : coupled_loops) {
                fold_steps *= static_cast<double>(out.loops[i].steps);
                t.delta_per_loop[i] = avg_chunk_volume;
            }
            t.traffic_per_unit = avg_chunk_volume * fold_steps;
            continue;
        }

        for (std::size_t i = 0; i < out.loops.size(); ++i) {
            const LoopInfo &loop = out.loops[i];
            const bool has_coupled_at_or_after =
                !coupled_loops.empty() && coupled_loops.back() >= i;
            if (!has_coupled_at_or_after) {
                t.delta_per_loop[i] = 0.0;
                continue;
            }
            const bool is_innermost_coupled = coupled_loops.back() == i;
            if (!is_innermost_coupled) {
                // A loop with coupled loops inside it: their reset
                // forces a full chunk refetch.
                t.delta_per_loop[i] = avg_chunk_volume;
                continue;
            }
            // Innermost coupled loop: sliding-delta credit applies.
            if (loop.is_fold) {
                int shifted = 0;
                double partial = 1.0;
                double rest = 1.0;
                for (const auto &sd : dims) {
                    const double shift = std::abs(sd.shift);
                    if (shift > 0.0) {
                        ++shifted;
                        partial = std::min(sd.chunk, active * shift);
                    } else {
                        rest *= sd.avg;
                    }
                }
                t.delta_per_loop[i] =
                    shifted == 1 ? rest * partial : avg_chunk_volume;
            } else {
                // Temporal advance along loop.dim: sweep-exact new
                // data along that storage dim, full chunk elsewhere.
                double delta = 1.0;
                bool found = false;
                for (const auto &sd : dims) {
                    if (sd.map_dim == loop.dim && !found) {
                        found = true;
                        const double new_along =
                            loop.steps > 1
                                ? (sd.extent - sd.chunk) /
                                      static_cast<double>(loop.steps - 1)
                                : sd.chunk;
                        delta *= std::min(sd.chunk,
                                          std::max(0.0, new_along));
                    } else {
                        delta *= sd.avg;
                    }
                }
                if (!found) {
                    // Coupled via a non-storage dim (partial filter
                    // chunk retargeting outputs): full chunk change.
                    delta = avg_chunk_volume;
                }
                t.delta_per_loop[i] = delta;
            }
        }

        t.traffic_per_unit = avg_chunk_volume;
        for (std::size_t i = 0; i < out.loops.size(); ++i) {
            t.traffic_per_unit +=
                out.loops[i].advance_count * t.delta_per_loop[i];
        }
    }

    return out;
}

std::vector<LevelReuse>
analyzeReuse(const BoundDataflow &bound, const TensorInfo &tensors,
             bool depthwise)
{
    std::vector<LevelReuse> out;
    out.reserve(bound.levels.size());
    for (const auto &level : bound.levels)
        out.push_back(analyzeLevelReuse(level, tensors, depthwise));
    return out;
}

} // namespace maestro
