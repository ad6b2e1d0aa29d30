/**
 * @file
 * The data-centric dataflow representation of paper Sec. 3.
 *
 * A dataflow is an ordered list of directives:
 *
 *  - SpatialMap(size, offset) dim  — distributes chunks of `dim` across
 *    the sub-units (clusters or PEs) of the current level;
 *  - TemporalMap(size, offset) dim — iterates chunks of `dim` across
 *    time steps, with all units of the level seeing the same chunk;
 *  - Cluster(n)                    — groups the units below into
 *    logical clusters of n, opening a new (inner) cluster level;
 *  - directive *order* encodes the loop order (data movement order).
 *
 * Sizes and offsets may reference layer dimensions symbolically
 * (`Sz(R)`, `8 + Sz(S) - 1`) as the paper's Table 3 does, so one
 * dataflow description applies to every layer of a network.
 */

#ifndef MAESTRO_CORE_DATAFLOW_HH
#define MAESTRO_CORE_DATAFLOW_HH

#include <optional>
#include <string>
#include <vector>

#include "src/core/dims.hh"

namespace maestro
{

/**
 * A size or offset expression: constant + optional Sz(dim) reference,
 * evaluated against a layer's effective dimension extents.
 *
 * Covers every form used in the paper (constants, Sz(R), 8+Sz(S)-1).
 */
struct SizeExpr
{
    /** Constant addend. */
    Count constant = 0;

    /** Referenced dimension, if any; contributes Sz(dim). */
    std::optional<Dim> dim;

    /** A pure constant expression. */
    static SizeExpr of(Count value) { return {value, std::nullopt}; }

    /** Sz(dim) + add. */
    static SizeExpr
    sizeOf(Dim d, Count add = 0)
    {
        return {add, d};
    }

    /**
     * Evaluates against dimension extents.
     *
     * @param extents Effective extents of the bound layer.
     * @return The concrete value (callers validate positivity).
     */
    Count
    eval(const DimMap<Count> &extents) const
    {
        return constant + (dim ? extents[*dim] : 0);
    }

    /** Renders as DSL text, e.g. "Sz(R)" or "7+Sz(S)". */
    std::string toString() const;

    /** Structural equality. */
    bool operator==(const SizeExpr &other) const = default;
};

/** Kind of a dataflow directive. */
enum class DirectiveKind : std::uint8_t
{
    TemporalMap,
    SpatialMap,
    Cluster,
};

/**
 * One directive of a dataflow description.
 *
 * Map directives carry a dimension, size, and offset; cluster
 * directives carry only a size (the sub-cluster width).
 */
struct Directive
{
    DirectiveKind kind = DirectiveKind::TemporalMap;
    Dim dim = Dim::N;   ///< mapped dimension (maps only)
    SizeExpr size;      ///< chunk size (maps) or cluster width
    SizeExpr offset;    ///< shift between consecutive positions (maps)

    /** Builds a TemporalMap directive. */
    static Directive temporal(Dim dim, SizeExpr size, SizeExpr offset);

    /** Builds a SpatialMap directive. */
    static Directive spatial(Dim dim, SizeExpr size, SizeExpr offset);

    /** Builds a Cluster directive. */
    static Directive cluster(SizeExpr size);

    /** Renders as one line of DSL text. */
    std::string toString() const;

    /** Structural equality. */
    bool operator==(const Directive &other) const = default;
};

/**
 * A named dataflow: the ordered directive list of paper Sec. 3.1-3.2.
 */
class Dataflow
{
  public:
    /** Creates an empty dataflow with the given name. */
    explicit Dataflow(std::string name);

    /** Creates a dataflow from a directive list. */
    Dataflow(std::string name, std::vector<Directive> directives);

    /** Dataflow name (e.g., "KC-P"). */
    const std::string &name() const { return name_; }

    /** Appends a directive. @return *this for chaining. */
    Dataflow &add(Directive directive);

    /** The ordered directive list. */
    const std::vector<Directive> &directives() const { return directives_; }

    /**
     * Rewrites the size and offset of the map directive at `index`,
     * keeping its kind and dim, so a search can retile one directive
     * list in place instead of building a new one per candidate.
     * Aborts when `index` is out of range or names a Cluster.
     */
    void setMapSize(std::size_t index, SizeExpr size, SizeExpr offset);

    /** Number of cluster levels (1 + number of Cluster directives). */
    std::size_t numLevels() const;

    /**
     * Structural validation, independent of any layer:
     *  - at least one map directive per level,
     *  - no dimension mapped twice within one level,
     *  - no Cluster directive as the last directive,
     *  - map sizes/offsets that are pure constants must be positive.
     *
     * @throws Error describing the first violation.
     */
    void validate() const;

    /** Renders the full DSL text block. */
    std::string toString() const;

    /** Structural equality (name excluded). */
    bool sameDirectives(const Dataflow &other) const;

  private:
    std::string name_;
    std::vector<Directive> directives_;
};

} // namespace maestro

#endif // MAESTRO_CORE_DATAFLOW_HH
