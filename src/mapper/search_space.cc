#include "src/mapper/search_space.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>

#include "src/common/error.hh"
#include "src/common/hash.hh"
#include "src/core/reuse_analysis.hh"

namespace maestro
{
namespace mapper
{

namespace
{

SizeExpr
c(Count value)
{
    return SizeExpr::of(value);
}

SizeExpr
sz(Dim d, Count add = 0)
{
    return SizeExpr::sizeOf(d, add);
}

/** The tiled (non-spatial) dims of an on-chip choice, in their
 *  loop-order positions. */
std::array<Dim, 3>
tiledDims(const OnChipChoice &oc)
{
    std::array<Dim, 3> tiled{};
    std::size_t n = 0;
    for (std::size_t pos = 0; pos < oc.order.size(); ++pos)
        if (pos != oc.spatial_pos)
            tiled[n++] = oc.order[pos];
    return tiled;
}

/** The four iterating dims, in canonical enumeration order. */
constexpr std::array<Dim, 4> kIterDims = {Dim::K, Dim::C, Dim::Y,
                                          Dim::X};

/** 7! — the declared loop orders over all seven dims. */
constexpr double kDeclaredOrders = 5040.0;

/** Clips a ladder to the extent and drops the duplicates the clamp
 *  creates (binding clamps sizes to the scope extent, so every entry
 *  >= extent builds the same bound map). */
std::vector<Count>
clipLadder(const std::vector<Count> &ladder, Count extent)
{
    std::vector<Count> out;
    for (Count t : ladder) {
        const Count clipped = std::clamp<Count>(t, 1, extent);
        if (std::find(out.begin(), out.end(), clipped) == out.end())
            out.push_back(clipped);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** The SpatialMap directive of a level-0 / inner-level dimension. */
Directive
spatialDirective(Dim d)
{
    if (d == Dim::Y)
        return Directive::spatial(Dim::Y, sz(Dim::R), c(1));
    if (d == Dim::X)
        return Directive::spatial(Dim::X, sz(Dim::S), c(1));
    return Directive::spatial(d, c(1), c(1));
}

/** The TemporalMap directive of a dimension at tile size t. */
Directive
temporalDirective(Dim d, Count t)
{
    if (d == Dim::Y)
        return t == 1 ? Directive::temporal(Dim::Y, sz(Dim::R), c(1))
                      : Directive::temporal(Dim::Y, sz(Dim::R, t - 1),
                                            c(t));
    if (d == Dim::X)
        return t == 1 ? Directive::temporal(Dim::X, sz(Dim::S), c(1))
                      : Directive::temporal(Dim::X, sz(Dim::S, t - 1),
                                            c(t));
    return Directive::temporal(d, c(t), c(t));
}

/**
 * Writes `value` at `out` as an LEB128 varint: seven bits per byte,
 * low groups first, the high bit set on every byte but the last.
 * Taken over the two's-complement bits, so it is injective on all of
 * Count; at most kMaxVarintBytes bytes. Returns the end of the write.
 */
char *
putVarint(char *out, Count value)
{
    auto bits = static_cast<std::uint64_t>(value);
    while (bits >= 0x80) {
        *out++ = static_cast<char>((bits & 0x7f) | 0x80);
        bits >>= 7;
    }
    *out++ = static_cast<char>(bits);
    return out;
}

/** Most bytes a varint of 64 bits takes (ceil(64 / 7)). */
constexpr std::size_t kMaxVarintBytes = 10;

/** Most bytes one level's key takes: the unit count, then a tag and
 *  six varints for each of at most kNumDims directives (binding leaves
 *  one per dim), then the closing zero. */
constexpr std::size_t kMaxLevelKeyBytes =
    kMaxVarintBytes + kNumDims * (1 + 6 * kMaxVarintBytes) + 1;

/** Appends the key of one bound level to `key`: encoded into a bounded
 *  local buffer and appended once (see canonicalMappingKey). */
void
appendLevelKey(std::string &key, const BoundLevel &level)
{
    panicIf(level.directives.size() > kNumDims, "mapping key: ",
            level.directives.size(), " directives in one level");
    char buf[kMaxLevelKeyBytes];
    char *end = putVarint(buf, level.num_units);
    for (const BoundDirective &bd : level.directives) {
        // Full-extent single-step temporal maps are loop-order inert:
        // they contribute only their (extent-sized) chunk, exactly
        // like the binder's inferred maps (see header).
        if (!bd.spatial() && bd.steps <= 1 &&
            bd.size >= level.extents[bd.dim])
            continue;
        *end++ = static_cast<char>(1 + 2 * static_cast<int>(bd.dim) +
                                   (bd.spatial() ? 1 : 0));
        end = putVarint(end, bd.size);
        end = putVarint(end, bd.offset_in);
        end = putVarint(end, bd.offset_out);
        end = putVarint(end, bd.out_space ? 1 : 0);
        end = putVarint(end, bd.steps);
        end = putVarint(end, bd.edge_size);
    }
    *end++ = '\0';
    key.append(buf, static_cast<std::size_t>(end - buf));
}

/** Appends the canonical mapping key of `bound` to `key`. */
void
appendMappingKey(std::string &key, const BoundDataflow &bound)
{
    for (const BoundLevel &level : bound.levels)
        appendLevelKey(key, level);
}

/** The search class of an on-chip choice, in [0, kSearchClasses):
 *  its level-0 spatial dim, then its inner-level choice. */
std::size_t
searchClass(const OnChipChoice &oc)
{
    const auto slot = [](Dim d) {
        return static_cast<std::size_t>(
            std::find(kIterDims.begin(), kIterDims.end(), d) -
            kIterDims.begin());
    };
    const std::size_t inner =
        oc.cluster_size > 1 ? 1 + slot(oc.inner_spatial) : 0;
    return slot(oc.spatialDim()) * (1 + kIterDims.size()) + inner;
}

/** Tile tuples of an on-chip choice: the product of its tiled dims'
 *  ladder sizes (candidateCount checks the product fits). */
std::size_t
tupleCount(const SearchSpace &space, const OnChipChoice &oc)
{
    std::size_t tuples = 1;
    for (Dim d : tiledDims(oc))
        tuples *= space.ladders[d].size();
    return tuples;
}

/**
 * The directive list of on-chip choice `oc`, its tiled maps at tile 1
 * until setTiles retiles them.
 */
Dataflow
onChipDataflow(const OnChipChoice &oc)
{
    std::vector<Directive> dirs;
    dirs.reserve(oc.cluster_size > 1 ? 8 : 6);
    for (std::size_t pos = 0; pos < oc.order.size(); ++pos) {
        const Dim d = oc.order[pos];
        if (pos == oc.spatial_pos)
            dirs.push_back(spatialDirective(d));
        else
            dirs.push_back(temporalDirective(d, 1));
    }
    dirs.push_back(Directive::temporal(Dim::R, sz(Dim::R), sz(Dim::R)));
    dirs.push_back(Directive::temporal(Dim::S, sz(Dim::S), sz(Dim::S)));
    if (oc.cluster_size > 1) {
        dirs.push_back(Directive::cluster(c(oc.cluster_size)));
        dirs.push_back(spatialDirective(oc.inner_spatial));
    }
    return Dataflow(std::string(), std::move(dirs));
}

/**
 * Retiles `df`, built by onChipDataflow(oc), in place to the candidate
 * at tile tuple `tuple`: an odometer over the tiled dims in their
 * loop-order positions, innermost tile fastest.
 */
void
setTiles(Dataflow &df, const SearchSpace &space, const OnChipChoice &oc,
         std::size_t tuple)
{
    for (std::size_t pos = oc.order.size(); pos-- > 0;) {
        if (pos == oc.spatial_pos)
            continue;
        const Dim d = oc.order[pos];
        const std::vector<Count> &ladder = space.ladders[d];
        const Directive tiled =
            temporalDirective(d, ladder[tuple % ladder.size()]);
        df.setMapSize(pos, tiled.size, tiled.offset);
        tuple /= ladder.size();
    }
}

} // namespace

SearchSpace
buildSearchSpace(const Layer &layer, const SpaceOptions &options)
{
    SearchSpace space;

    // ---- On-chip side. ----
    // Cluster configurations: one single-level entry (emitted once,
    // however many <=1 sizes the option list holds) plus, per real
    // cluster size, one choice of inner spatial dim.
    double cluster_configs = 0.0;
    bool single_level_done = false;
    std::vector<std::pair<Count, std::optional<Dim>>> clusters;
    for (Count cs : options.cluster_sizes) {
        if (cs <= 1) {
            if (!single_level_done) {
                clusters.emplace_back(1, std::nullopt);
                cluster_configs += 1.0;
                single_level_done = true;
            }
            continue;
        }
        for (Dim inner : kIterDims)
            clusters.emplace_back(cs, inner);
        cluster_configs += static_cast<double>(kIterDims.size());
    }

    // Canonical orders: permutations of {K, C, Y, X} in lexicographic
    // order; N/R/S placements are symmetry-collapsed (see header).
    std::array<Dim, 4> order = kIterDims;
    do {
        for (std::size_t spatial_pos = 0; spatial_pos < order.size();
             ++spatial_pos) {
            for (const auto &[cs, inner] : clusters) {
                OnChipChoice choice;
                choice.order = order;
                choice.spatial_pos = spatial_pos;
                choice.cluster_size = cs;
                choice.inner_spatial = inner.value_or(Dim::K);
                space.onchip.push_back(choice);
            }
        }
    } while (std::next_permutation(
        order.begin(), order.end(), [](Dim a, Dim b) {
            return static_cast<int>(a) < static_cast<int>(b);
        }));

    space.onchip_declared = kDeclaredOrders *
                            static_cast<double>(kIterDims.size()) *
                            cluster_configs;

    // ---- Off-chip side. ----
    space.ladders[Dim::K] =
        clipLadder(options.channel_tiles, layer.effectiveDim(Dim::K));
    space.ladders[Dim::C] =
        clipLadder(options.channel_tiles, layer.effectiveDim(Dim::C));
    space.ladders[Dim::Y] =
        clipLadder(options.activation_tiles, layer.outputY());
    space.ladders[Dim::X] =
        clipLadder(options.activation_tiles, layer.outputX());

    space.offchip_declared =
        static_cast<double>(options.channel_tiles.size()) *
        static_cast<double>(options.channel_tiles.size()) *
        static_cast<double>(options.activation_tiles.size()) *
        static_cast<double>(options.activation_tiles.size());

    space.covered = space.onchip_declared * space.offchip_declared;
    return space;
}

std::size_t
candidateCount(const SearchSpace &space)
{
    std::size_t total = 0;
    for (const OnChipChoice &oc : space.onchip) {
        std::size_t tuples = 1;
        for (Dim d : tiledDims(oc))
            if (__builtin_mul_overflow(tuples, space.ladders[d].size(),
                                       &tuples))
                return SIZE_MAX;
        if (__builtin_add_overflow(total, tuples, &total))
            return SIZE_MAX;
    }
    return total;
}

void
forEachCandidate(
    const SearchSpace &space, std::size_t cls,
    const std::function<void(const Dataflow &, std::size_t)> &visit)
{
    const std::size_t total = candidateCount(space);
    fatalIf(total > kMaxCandidates, "the mapping space has ", total,
            " candidates, over the bound of ", kMaxCandidates,
            "; narrow the tile, activation-tile or cluster lists");
    std::size_t first = 0;
    for (const OnChipChoice &oc : space.onchip) {
        const std::size_t tuples = tupleCount(space, oc);
        if (searchClass(oc) == cls) {
            // One directive list per on-chip choice, retiled in place
            // for each tile tuple.
            Dataflow df = onChipDataflow(oc);
            for (std::size_t tuple = 0; tuple < tuples; ++tuple) {
                setTiles(df, space, oc, tuple);
                visit(df, first + tuple);
            }
        }
        first += tuples;
    }
}

Dataflow
candidateAt(const SearchSpace &space, std::size_t index)
{
    for (const OnChipChoice &oc : space.onchip) {
        const std::size_t tuples = tupleCount(space, oc);
        if (index < tuples) {
            Dataflow df = onChipDataflow(oc);
            setTiles(df, space, oc, index);
            return df;
        }
        index -= tuples;
    }
    throw Error("candidate index out of range");
}

std::string
candidateName(const Dataflow &dataflow)
{
    // Level 0 opens with the four iterating dims in loop order; the
    // one SpatialMap among them is the spatial choice, and every
    // TemporalMap's offset is its tile (K/C: (t, t); Y/X: t output
    // rows per step). A Cluster(n) is followed by the inner SpatialMap.
    const std::vector<Directive> &dirs = dataflow.directives();
    std::string name = "M-";
    Dim spatial = Dim::K;
    DimMap<Count> tiles;
    for (std::size_t pos = 0; pos < kIterDims.size(); ++pos) {
        const Directive &d = dirs[pos];
        name += dimName(d.dim);
        if (d.kind == DirectiveKind::SpatialMap)
            spatial = d.dim;
        else
            tiles[d.dim] = d.offset.constant;
    }
    name += "-s";
    name += dimName(spatial);
    for (std::size_t pos = kIterDims.size(); pos + 1 < dirs.size(); ++pos) {
        if (dirs[pos].kind != DirectiveKind::Cluster)
            continue;
        name += "-c";
        name += std::to_string(dirs[pos].size.constant);
        name += "i";
        name += dimName(dirs[pos + 1].dim);
    }
    name += "-t";
    for (Dim d : kIterDims) {
        if (d == spatial)
            continue;
        name += dimName(d);
        name += std::to_string(tiles[d]);
    }
    return name;
}

std::string
canonicalMappingKey(const BoundDataflow &bound)
{
    // Built in a per-thread buffer so the returned key is one
    // allocation of exactly its size.
    thread_local std::string key;
    key.clear();
    appendMappingKey(key, bound);
    return key;
}

bool
MappingKeySet::insert(const BoundDataflow &bound)
{
    if (2 * (size_ + 1) > slots_.size())
        grow();
    // The key is encoded at the arena's end and kept there only when
    // it is new.
    const std::size_t offset = arena_.size();
    appendMappingKey(arena_, bound);
    const std::string_view key(arena_.data() + offset,
                               arena_.size() - offset);
    const std::uint64_t hash = hashBytes(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash >> shift_;; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.length == 0) {
            slot = {hash, offset, key.size()};
            ++size_;
            return true;
        }
        if (slot.hash == hash &&
            std::string_view(arena_.data() + slot.offset, slot.length) ==
                key) {
            arena_.resize(offset);
            return false;
        }
    }
}

void
MappingKeySet::grow()
{
    // Doubles the index and re-places every held key by its stored
    // hash; slots hold arena offsets, so keys never move. The first
    // call sizes both for a few hundred keys of a few dozen bytes, so
    // a class of a thousand keys grows each only a few times.
    std::vector<Slot> old = std::move(slots_);
    if (old.empty())
        arena_.reserve(4096);
    slots_.assign(old.empty() ? 256 : 2 * old.size(), Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.length == 0)
            continue;
        std::size_t i = slot.hash >> shift_;
        while (slots_[i].length != 0)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

double
l1LowerBoundBytes(const BoundDataflow &bound, const Layer &layer,
                  const AcceleratorConfig &config)
{
    const bool depthwise = layer.type() == OpType::DepthwiseConv;
    double elems = 0.0;
    for (TensorKind t : kAllTensors) {
        double chunk = 1.0;
        for (const StorageDimView &sd :
             tensorStorageDims(bound.peLevel(), t, depthwise))
            chunk *= sd.chunk;
        elems += chunk;
    }
    return 2.0 * elems * static_cast<double>(config.precision_bytes);
}

} // namespace mapper
} // namespace maestro
