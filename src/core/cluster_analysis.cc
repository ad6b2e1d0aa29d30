#include "src/core/cluster_analysis.hh"

#include "src/common/error.hh"

namespace maestro
{

namespace
{

/** Filter dimension paired with an activation dimension (Y->R, X->S). */
Dim
pairedFilterDim(Dim dim)
{
    return dim == Dim::Y ? Dim::R : Dim::S;
}

/**
 * Binds one map directive within a level scope.
 *
 * @param directive User directive (TemporalMap/SpatialMap).
 * @param layer_dims Layer effective extents (for Sz() references).
 * @param extents This level's scope extents.
 * @param stride Layer convolution stride.
 */
BoundDirective
bindMapDirective(const Directive &directive,
                 const DimMap<Count> &layer_dims,
                 const DimMap<Count> &extents, Count stride)
{
    BoundDirective bound;
    bound.kind = directive.kind;
    bound.dim = directive.dim;

    const Count extent = extents[directive.dim];
    Count size = directive.size.eval(layer_dims);
    Count offset = directive.offset.eval(layer_dims);
    fatalIf(size <= 0, "map size for ", dimName(directive.dim),
                           " evaluates to ", size);
    fatalIf(offset <= 0, "map offset for ", dimName(directive.dim),
                             " evaluates to ", offset);
    size = std::min(size, extent);
    bound.size = size;

    const bool activation_dim =
        directive.dim == Dim::Y || directive.dim == Dim::X;
    const Count filter_extent =
        activation_dim ? extents[pairedFilterDim(directive.dim)] : 0;

    if (activation_dim && size >= filter_extent) {
        // Output-space stepping: the chunk produces outputs on its own;
        // offsets are in output units, scaled by stride in input space.
        bound.out_space = true;
        const Count level_outputs =
            convOutputs(extent, filter_extent, stride);
        const Count chunk_outputs =
            convOutputs(size, filter_extent, stride);
        panicIf(chunk_outputs <= 0, "chunk produces no outputs");
        // Clamp the slide to what the chunk actually produces: a
        // Table-3 style Map(Sz(S), 8) chunk yields only
        // ceil((8-S+1)/stride) output columns at stride > 1, so an
        // unclamped 8-output slide would skip every other column
        // (ROADMAP item 6). At stride 1 the clamp is a no-op.
        bound.offset_out = std::min(offset, chunk_outputs);
        bound.offset_in = bound.offset_out * stride;
        bound.steps = numMapPositions(level_outputs, chunk_outputs,
                                      bound.offset_out);
        const Count edge_outputs =
            edgeChunkSize(level_outputs, chunk_outputs, bound.offset_out);
        bound.edge_size =
            std::min(size, (edge_outputs - 1) * stride + filter_extent);
    } else {
        // Index-space stepping (all non-activation dims, and activation
        // chunks smaller than the filter: the co-mapped diagonal case).
        bound.out_space = false;
        bound.offset_in = offset;
        bound.offset_out = 0;
        bound.steps = numMapPositions(extent, size, offset);
        bound.edge_size = edgeChunkSize(extent, size, offset);
    }
    return bound;
}

} // namespace

BoundDataflow
bindDataflow(const Dataflow &dataflow, const Layer &layer, Count num_pes)
{
    BoundDataflow bound;
    bindDataflow(dataflow, layer, num_pes, bound);
    return bound;
}

void
bindDataflow(const Dataflow &dataflow, const Layer &layer, Count num_pes,
             BoundDataflow &out)
{
    dataflow.validate();
    fatalIf(num_pes <= 0, "bindDataflow: num_pes must be positive");

    const DimMap<Count> layer_dims = layer.effectiveDims();
    const Count stride =
        layer.type() == OpType::TransposedConv ? 1 : layer.strideVal();

    // Evaluate and check every cluster size before binding any map
    // directive, so the first reported error does not depend on the
    // level it sits in.
    const std::vector<Directive> &dirs = dataflow.directives();
    std::size_t num_levels = 1;
    for (const auto &d : dirs) {
        if (d.kind != DirectiveKind::Cluster)
            continue;
        const Count size = d.size.eval(layer_dims);
        fatalIf(size <= 0, "dataflow ", dataflow.name(),
                               ": cluster size evaluates to ", size);
        ++num_levels;
    }

    // Levels kept from an earlier bind keep their directive capacity;
    // every field of every level is rewritten below.
    out.total_pes = 1;
    out.levels.resize(num_levels);
    DimMap<Count> extents = layer_dims;

    // Each level spans the directives up to the next Cluster(c) (or
    // the end). Units per level: level 0 spreads across num_pes / c0
    // clusters, level i across c_{i-1} / c_i sub-clusters, the last
    // across c_last PEs (paper Sec. 3.2). Cluster sizes clamp to the
    // units available, like map sizes clamp to dimension extents:
    // Cluster(64) on a 32-PE array degrades to one 32-PE cluster.
    Count parent_units = num_pes;
    std::size_t begin = 0;
    for (std::size_t lvl = 0; lvl < num_levels; ++lvl) {
        std::size_t end = begin;
        while (end < dirs.size() && dirs[end].kind != DirectiveKind::Cluster)
            ++end;
        const Count cluster_size =
            end < dirs.size()
                ? std::min(dirs[end].size.eval(layer_dims), parent_units)
                : 1;

        BoundLevel &level = out.levels[lvl];
        level.num_units = parent_units / cluster_size;
        level.extents = extents;
        level.chunk = DimMap<Count>();
        level.avg_chunk = DimMap<double>();
        level.spatial_shift = DimMap<Count>();
        level.stride = stride;
        level.first_spatial = BoundLevel::kNoSpatial;
        level.directives.clear();
        level.directives.reserve(kNumDims);
        out.total_pes *= level.num_units;

        DimMap<bool> mapped(false);
        for (std::size_t i = begin; i < end; ++i) {
            const BoundDirective bd =
                bindMapDirective(dirs[i], layer_dims, extents, stride);
            mapped[bd.dim] = true;
            level.directives.push_back(bd);
        }
        // Infer full-extent TemporalMaps for unmapped dims (paper's
        // omittable descriptions), appended innermost so they never
        // iterate (steps == 1).
        for (Dim d : kAllDims) {
            if (mapped[d])
                continue;
            BoundDirective bd;
            bd.kind = DirectiveKind::TemporalMap;
            bd.dim = d;
            bd.size = extents[d];
            bd.offset_in = extents[d];
            bd.steps = 1;
            bd.edge_size = extents[d];
            bd.inferred = true;
            level.directives.push_back(bd);
        }

        // Chunk sizes, spatial structure, and step totals.
        Count spatial_steps = 0;
        for (std::size_t i = 0; i < level.directives.size(); ++i) {
            const BoundDirective &bd = level.directives[i];
            level.chunk[bd.dim] = bd.size;
            level.avg_chunk[bd.dim] =
                (static_cast<double>(bd.size) * (bd.steps - 1) +
                 bd.edge_size) /
                static_cast<double>(bd.steps);
            if (bd.spatial()) {
                level.spatial_shift[bd.dim] = bd.offset_in;
                spatial_steps = std::max(spatial_steps, bd.steps);
                if (level.first_spatial == BoundLevel::kNoSpatial)
                    level.first_spatial = i;
            }
        }
        if (spatial_steps > 0) {
            level.spatial_steps = spatial_steps;
            level.spatial_folds = ceilDiv(spatial_steps, level.num_units);
            level.active_units = static_cast<double>(spatial_steps) /
                                 static_cast<double>(level.spatial_folds);
        } else {
            // No spatial map: only one unit of this level does useful
            // work; the rest idle.
            level.spatial_steps = 1;
            level.spatial_folds = 1;
            level.active_units = 1.0;
        }

        level.total_steps = level.spatial_folds;
        for (const auto &bd : level.directives) {
            if (!bd.spatial())
                level.total_steps *= bd.steps;
        }

        extents = level.chunk;
        parent_units = cluster_size;
        begin = end + 1;
    }
}

} // namespace maestro
