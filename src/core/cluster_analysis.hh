/**
 * @file
 * Cluster analysis engine (paper Sec. 4.1, Fig. 7).
 *
 * Binds a (possibly symbolic) dataflow to a concrete layer and PE
 * count, producing one BoundLevel per cluster level:
 *
 *  - splits the directive list at Cluster() directives,
 *  - evaluates Sz()-expressions against the layer's effective extents,
 *  - infers directives omitted by the user (a full-extent TemporalMap
 *    appended innermost, per the paper's "omittable descriptions"),
 *  - applies stride to Y/X maps (offsets on Y/X are in output units
 *    when the chunk can produce outputs on its own; see below),
 *  - computes step counts, edge chunks, folding, and unit utilization.
 *
 * Stepping semantics for Y and X: a chunk of m input rows with the
 * level's filter extent R produces out(m) = floor((m - R)/stride) + 1
 * output rows. When m >= R the directive steps through *output space*:
 * each advance shifts the window by offset x stride input rows and the
 * position count covers all output rows of the level. When m < R the
 * chunk alone produces no outputs (the Eyeriss-style diagonal, where Y
 * and R are co-mapped spatially) and the directive steps through input
 * space directly. All other dimensions always step through their own
 * index space.
 */

#ifndef MAESTRO_CORE_CLUSTER_ANALYSIS_HH
#define MAESTRO_CORE_CLUSTER_ANALYSIS_HH

#include <vector>

#include "src/core/dataflow.hh"
#include "src/model/layer.hh"

namespace maestro
{

/**
 * A map directive bound to concrete sizes for one level.
 */
struct BoundDirective
{
    /** TemporalMap or SpatialMap (Cluster directives become levels). */
    DirectiveKind kind = DirectiveKind::TemporalMap;

    /** Mapped dimension. */
    Dim dim = Dim::N;

    /** Chunk size in the dimension's index space, clamped to extent. */
    Count size = 1;

    /** Input-space shift between consecutive positions. */
    Count offset_in = 1;

    /** Output-space shift (Y/X in output-space stepping mode only). */
    Count offset_out = 0;

    /** True when stepping through output space (see file comment). */
    bool out_space = false;

    /** Number of distinct positions. */
    Count steps = 1;

    /** Chunk size at the last position (edge case). */
    Count edge_size = 1;

    /** True when this directive was inferred rather than user-given. */
    bool inferred = false;

    /** True for SpatialMap. */
    bool spatial() const { return kind == DirectiveKind::SpatialMap; }

    /** True when this directive takes more than one position. */
    bool iterating() const { return steps > 1; }
};

/**
 * One cluster level of a bound dataflow.
 */
struct BoundLevel
{
    /** Number of sub-units (sub-clusters, or PEs at the last level). */
    Count num_units = 1;

    /** Dimension extents of this level's scope. */
    DimMap<Count> extents;

    /** Per-unit steady-state chunk size of every dimension. */
    DimMap<Count> chunk;

    /** Average chunk size of every dimension across positions. */
    DimMap<double> avg_chunk;

    /** Unit-to-unit input-space shift per dim (0 when not spatial). */
    DimMap<Count> spatial_shift;

    /** Directives in order, inferred ones appended innermost. */
    std::vector<BoundDirective> directives;

    /** Combined position count of the co-mapped spatial directives. */
    Count spatial_steps = 1;

    /** Sequential rounds needed to fold spatial positions onto units. */
    Count spatial_folds = 1;

    /** Average number of active units per fold. */
    double active_units = 1.0;

    /** Total temporal steps of one level execution (incl. folds). */
    Count total_steps = 1;

    /** Convolution stride (shared by all levels of a layer). */
    Count stride = 1;

    /** Index into `directives` of the first spatial map, or npos. */
    std::size_t first_spatial = kNoSpatial;

    /** Sentinel for "no spatial directive at this level". */
    static constexpr std::size_t kNoSpatial = static_cast<std::size_t>(-1);

    /** True when any directive spatially maps the given dim. */
    bool spatiallyMapped(Dim d) const { return spatial_shift[d] != 0; }
};

/**
 * A dataflow fully bound to a layer and accelerator size.
 */
struct BoundDataflow
{
    /** Levels from outermost (level 0) to innermost (PE level). */
    std::vector<BoundLevel> levels;

    /** Total PEs actually usable given the clustering. */
    Count total_pes = 1;

    /** The innermost level (whose units are PEs). */
    const BoundLevel &peLevel() const { return levels.back(); }
};

/**
 * Cluster analysis engine entry point.
 *
 * @param dataflow Validated dataflow description.
 * @param layer Layer providing dimension extents and stride.
 * @param num_pes Total PEs of the accelerator.
 * @return The bound dataflow, one BoundLevel per cluster level.
 * @throws Error if cluster sizes do not divide the PE array sensibly
 *         or a map size evaluates non-positive.
 */
BoundDataflow bindDataflow(const Dataflow &dataflow, const Layer &layer,
                           Count num_pes);

/**
 * The same binding, written into caller-owned storage: a search binds
 * candidate after candidate into one BoundDataflow, and its levels
 * keep their directive capacity across binds. Every field of every
 * level is rewritten, so nothing carries over from an earlier bind. A
 * bind that throws leaves `out` partly written, for the next bind to
 * overwrite.
 */
void bindDataflow(const Dataflow &dataflow, const Layer &layer,
                  Count num_pes, BoundDataflow &out);

} // namespace maestro

#endif // MAESTRO_CORE_CLUSTER_ANALYSIS_HH
