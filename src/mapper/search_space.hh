/**
 * @file
 * The decoupled mapping space of the dataflow search engine (mapper
 * v2), after Marvel's observation that the space splits into an
 * off-chip subspace (tile-size ladders per temporal dimension) and an
 * on-chip subspace (loop order, spatial dimension, cluster size)
 * that can be enumerated and pruned independently before taking the
 * cross product.
 *
 * On-chip subspace. A level-0 directive list orders the four
 * iterating dimensions {K, C, Y, X}; one of them is the SpatialMap,
 * the others are TemporalMaps; R and S ride along as full-extent
 * single-step TemporalMaps; an optional Cluster(n) opens an inner
 * level with one inner SpatialMap. The *declared* order space is all
 * permutations of the seven dims (N and the full R/S maps included),
 * but full-extent single-step maps never become loops of the flat
 * nest (reuse_analysis builds loops only from directives with
 * steps > 1, and the spatial fold loop keeps its position relative to
 * the iterating loops), so every placement of N/R/S analyzes
 * bit-identically: symmetry canonicalization keeps one representative
 * per class — 7! = 5040 declared orders collapse to 4! = 24.
 *
 * Off-chip subspace. Each temporally mapped dimension draws a tile
 * from a per-dimension ladder: K/C tiles are plain index-space chunks
 * (TemporalMap(t, t) d), Y/X tiles are output-space chunks
 * (TemporalMap(Sz(R)+t-1, t) Y produces t output rows per step; t = 1
 * is the standard sliding window). Ladder entries that meet or exceed
 * the layer extent all clamp to the same full-extent map (binding
 * clamps size to the scope extent), so the clipped ladder is deduped
 * per dimension before the cross product — the second per-side prune.
 *
 * Cross-product stage. Candidates surviving the per-side prunes are
 * crossed; two residual equivalence classes are removed there:
 * choices whose tile rides on the spatially mapped dimension (the
 * spatial chunk is fixed, so every ladder entry builds the same
 * directive list) are skipped by construction, and anything else that
 * still binds identically (e.g. a clamped tile colliding with a
 * different loop order) is caught by the canonical mapping key — a
 * compact byte encoding of the *bound* dataflow that drops directives
 * which bind to full-extent single-step temporal maps, the bound
 * analog of core/pipeline.hh's structural dataflowFingerprint.
 * Candidates are built unnamed: the search names only the mappings
 * it ranks, from their directive lists (candidateName), so no
 * candidate pays for text it never shows.
 *
 * Classes. The cross product is walked one class at a time (the
 * level-0 spatial dim and the inner-level choice; see kSearchClasses),
 * and each candidate is built when the walk reaches it and dropped
 * after; candidateAt rebuilds one from its enumeration index.
 *
 * Capacity cut. l1_bytes_required >= 2 * precision * sum of PE-level
 * storage chunks (flat_analysis only ever scales the resident set UP
 * from the chunk product, via fold residency), so that bound — cheap
 * to compute from a binding, no reuse/flat/cost stages — is a
 * conservative feasibility cut: it only removes candidates the
 * analyzer would reject for the same reason, which keeps the pruned
 * search byte-identical to the exhaustive oracle.
 */

#ifndef MAESTRO_MAPPER_SEARCH_SPACE_HH
#define MAESTRO_MAPPER_SEARCH_SPACE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/cluster_analysis.hh"
#include "src/core/dataflow.hh"
#include "src/hw/accelerator.hh"
#include "src/model/layer.hh"

namespace maestro
{
namespace mapper
{

/** Knobs bounding the declared mapping space. */
struct SpaceOptions
{
    /** Cluster sizes to try; 1 means a single-level dataflow. */
    std::vector<Count> cluster_sizes = {1, 4, 16, 64};

    /** Tile ladder for temporally mapped channel dims (K, C). */
    std::vector<Count> channel_tiles = {1, 8, 64};

    /** Output-rows/cols-per-step ladder for temporal Y/X maps. */
    std::vector<Count> activation_tiles = {1, 4};
};

/** One canonical on-chip choice (post symmetry collapse). */
struct OnChipChoice
{
    /** Order of the four iterating dims at level 0 (outer first). */
    std::array<Dim, 4> order{Dim::K, Dim::C, Dim::Y, Dim::X};

    /** Index into `order` of the SpatialMap dimension. */
    std::size_t spatial_pos = 0;

    /** Cluster size (1 = no Cluster directive, single level). */
    Count cluster_size = 1;

    /** Inner-level SpatialMap dim (meaningful when cluster_size > 1). */
    Dim inner_spatial = Dim::K;

    /** The spatially mapped level-0 dimension. */
    Dim spatialDim() const { return order[spatial_pos]; }
};

/**
 * The pruned sides of the decoupled space for one layer, plus the
 * coverage accounting of the declared (unpruned) space.
 */
struct SearchSpace
{
    /** Canonical on-chip choices, in deterministic enumeration
     *  order (loop-order lexicographic, then spatial position, then
     *  cluster config). */
    std::vector<OnChipChoice> onchip;

    /** Per-dimension tile ladders after extent clipping and
     *  per-dimension dedup (ascending, unique). Only K/C/Y/X entries
     *  are populated. */
    DimMap<std::vector<Count>> ladders;

    /** Declared on-chip points: 7! orders x spatial choice x cluster
     *  configs, before symmetry collapse. */
    double onchip_declared = 0.0;

    /** Declared off-chip points: product of the raw ladder sizes. */
    double offchip_declared = 0.0;

    /** Declared cross-product size (the mapper's coverage unit). */
    double covered = 0.0;
};

/**
 * Builds the pruned decoupled space for one layer: enumerates both
 * sides, applies the per-side prunes (symmetry canonicalization on
 * the on-chip side, extent clipping + dedup on the off-chip side),
 * and records the declared-space accounting.
 */
SearchSpace buildSearchSpace(const Layer &layer,
                             const SpaceOptions &options);

/**
 * Most candidates one search may visit. The search builds each
 * candidate inside its class's shard and keeps none, so this bounds
 * work, not memory. On VGG16 CONV11 (Release, 4-vCPU x86-64 guest) a
 * runtime search costs about 0.75 µs of one thread per candidate and
 * an energy search, which scores every candidate, about 1.9 µs, so a
 * search at the bound stays under half a second. No layer's default
 * space comes near it: at most 312 on-chip choices for each of the
 * four spatial dims, times 12, 12, 18 and 18 tile tuples, is 18,720.
 */
inline constexpr std::size_t kMaxCandidates = 200000;

/**
 * How many candidates the cross product of `space` holds (SIZE_MAX
 * when the count does not fit), computed without building any.
 */
std::size_t candidateCount(const SearchSpace &space);

/**
 * How many search classes the cross product splits into. A class is
 * the on-chip choices sharing a level-0 spatial dim and an
 * inner-level choice (a cluster's inner spatial dim, or single level):
 * four spatial dims times five inner-level choices. Loop order and
 * cluster size are not part of it, so a class holds every loop order
 * and every cluster size of its dims. canonicalMappingKey encodes
 * every level's SpatialMap with its dim and closes each level, so
 * candidates of different classes never share a key, and a class
 * dedups on its own keys exactly as the whole space would. Cluster
 * sizes must not split a class: on a small array Cluster(16) and
 * Cluster(64) bind alike.
 */
inline constexpr std::size_t kSearchClasses = 20;

/**
 * Builds the candidates of class `cls` (in [0, kSearchClasses)) one
 * at a time, in enumeration order, and calls visit(dataflow, index)
 * on each, `index` being its position in the whole cross product (the
 * ranking tiebreak). Tiles riding on the spatially mapped dimension
 * are skipped by construction (they cannot change the directive
 * list), so every candidate is a distinct directive list. Candidates
 * carry no name; candidateName derives it when one is needed. Each
 * on-chip choice's directive list is built once and retiled in place
 * for each of its tile tuples, so `dataflow` is valid only for the
 * duration of the call.
 *
 * @throws Error when candidateCount(space) exceeds kMaxCandidates,
 *         before building any.
 */
void forEachCandidate(
    const SearchSpace &space, std::size_t cls,
    const std::function<void(const Dataflow &, std::size_t)> &visit);

/**
 * Rebuilds the candidate forEachCandidate yields at enumeration index
 * `index`.
 *
 * @throws Error when `index` is not below candidateCount(space).
 */
Dataflow candidateAt(const SearchSpace &space, std::size_t index);

/**
 * The name of a candidate, derived from its directive list: loop
 * order, spatial dim, cluster size and inner spatial dim, then the
 * tile of every temporally mapped iterating dim (e.g.
 * "M-KCYX-sC-c16iK-tK8C1Y1X4").
 */
std::string candidateName(const Dataflow &dataflow);

/**
 * Canonical mapping key of a bound candidate: per level, the unit
 * count and then every directive that can influence the analysis
 * (spatial maps, and temporal maps that either iterate or bind to
 * less than their scope extent) as its kind, dim, size, offset_in,
 * offset_out, out_space, steps and edge_size. Integers are LEB128
 * varints of their full 64 bits, kind and dim share one nonzero tag
 * byte, and a zero byte closes each level, so the key is an exact
 * (injective) encoding of those fields: two bound dataflows share a
 * key iff they agree on all of them. Directive lists differing only
 * in the placement of full-extent single-step temporal maps share a
 * key and analyze bit-identically (see file comment). Never empty.
 */
std::string canonicalMappingKey(const BoundDataflow &bound);

/**
 * The canonical mapping keys one search shard holds, for its symmetry
 * dedup. Key bytes (canonicalMappingKey's, encoded by the same code)
 * live in one arena behind an open-addressing index on their FNV-1a
 * hash, and a hash match is confirmed on the full bytes, so the dedup
 * is exact. Inserting allocates only when the arena or the index
 * grows. Not thread-safe: each shard owns its own set.
 */
class MappingKeySet
{
  public:
    /**
     * Adds the canonical key of `bound`.
     *
     * @return True when the set did not hold that key yet.
     */
    bool insert(const BoundDataflow &bound);

    /** How many distinct keys the set holds. */
    std::size_t size() const { return size_; }

  private:
    /** One index entry; length 0 marks a free slot (no key is
     *  empty). */
    struct Slot
    {
        std::uint64_t hash = 0;
        std::size_t offset = 0;
        std::size_t length = 0;
    };

    /** Doubles the index and re-places every held key. */
    void grow();

    std::string arena_;
    std::vector<Slot> slots_;
    unsigned shift_ = 0; ///< 64 - log2(slots_.size())
    std::size_t size_ = 0;
};

/**
 * Conservative lower bound on cost_analysis's l1_bytes_required:
 * 2 * precision * sum over tensors of the PE-level storage-chunk
 * product. Never exceeds the analyzer's reported requirement.
 *
 * @return The bound in bytes.
 */
double l1LowerBoundBytes(const BoundDataflow &bound, const Layer &layer,
                         const AcceleratorConfig &config);

} // namespace mapper
} // namespace maestro

#endif // MAESTRO_MAPPER_SEARCH_SPACE_HH
