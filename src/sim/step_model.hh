/**
 * @file
 * The simulator's abstract step machine, shared by the exact walker
 * and the periodic fast path.
 *
 * The reference simulator's semantics are: flatten the bound loop
 * nest into an odometer (`Nest`), and at every position compute the
 * representative PE's concrete tensor chunks (`ChunkResolver`), the
 * rectangle-diff traffic against the previous position, the exact MAC
 * count, and the per-step delay. This module isolates that per-step
 * semantics as a pure function of (current position, previous
 * position): `StepEngine::step`. Both simulation paths call the same
 * function, so a step's contribution is bit-identical no matter which
 * path evaluates it — the precondition for the fast path's
 * class-count extrapolation to be byte-identical to the walker
 * (DESIGN.md §9).
 */

#ifndef MAESTRO_SIM_STEP_MODEL_HH
#define MAESTRO_SIM_STEP_MODEL_HH

#include <array>
#include <cstddef>
#include <vector>

#include "src/common/error.hh"
#include "src/core/cluster_analysis.hh"
#include "src/hw/accelerator.hh"
#include "src/model/layer.hh"

namespace maestro
{
namespace sim
{

/** A half-open index interval [start, start + size). */
struct Interval
{
    Count start = 0;
    Count size = 0;

    bool empty() const { return size <= 0; }
};

/** Overlap size of two intervals. */
Count overlap(const Interval &a, const Interval &b);

/** One loop of the flattened simulation nest. */
struct SimLoop
{
    std::size_t level = 0;
    bool is_fold = false;
    Dim dim = Dim::N; // temporal loops only
    Count steps = 1;

    /** Originating directive (null for fold loops). */
    const BoundDirective *directive = nullptr;
};

/**
 * A tensor's concrete chunk: one interval per storage dim, held in
 * place (no tensor has more than four storage dims).
 */
struct Rect
{
    std::array<Interval, 4> dims{};
    std::size_t rank = 0; ///< storage dims in use

    /** Appends the next storage dim's interval. */
    void push(const Interval &iv)
    {
        if (rank == dims.size()) [[unlikely]]
            panicWith("sim rect has more than four storage dims");
        dims[rank++] = iv;
    }

    double volume() const;

    /** Volume of this rect not covered by `prev` (rectangle diff). */
    double newVolume(const Rect &prev) const;
};

/**
 * The flattened nest: an odometer over every iterating temporal
 * directive plus one fold loop per spatially-folded level.
 */
class Nest
{
  public:
    explicit Nest(const BoundDataflow &bound);

    const std::vector<SimLoop> &loops() const { return loops_; }

    double totalSteps() const;

    /** Advances the odometer; false when the nest is exhausted. */
    bool advance();

    /** Jumps the odometer to an arbitrary position tuple. */
    void setPositions(const std::vector<Count> &pos);

    /** Sets one loop's position. */
    void setPosition(std::size_t i, Count p) { pos_[i] = p; }

    /**
     * Odometer-decrements `pos` in place (the position of the
     * previous step). @return false when `pos` was all zeros.
     */
    bool decrement(std::vector<Count> &pos) const;

    /** Fold position of a level (0 when it has no fold loop). */
    Count foldPos(std::size_t level) const
    {
        const std::size_t i = fold_loop_[level];
        return i == kNoLoop ? 0 : pos_[i];
    }

    /** Temporal position of a dim at a level (0 when not iterating). */
    Count dimPos(std::size_t level, Dim dim) const
    {
        const std::size_t i = dim_loop_[level][dim];
        return i == kNoLoop ? 0 : pos_[i];
    }

    /** True when any level-0 loop differs from `prev`. */
    bool level0Changed(const std::vector<Count> &prev) const;

    const std::vector<Count> &positions() const { return pos_; }

  private:
    static constexpr std::size_t kNoLoop = static_cast<std::size_t>(-1);

    std::vector<SimLoop> loops_;
    std::vector<Count> pos_;
    /** Per level: index of its fold loop, or kNoLoop. */
    std::vector<std::size_t> fold_loop_;
    /** Per level and dim: index of its temporal loop, or kNoLoop. */
    std::vector<DimMap<std::size_t>> dim_loop_;
    /** Loops [0, level0_loops_) are level 0's. */
    std::size_t level0_loops_ = 0;
};

/**
 * Concrete chunk resolver for the representative PE (unit 0 of every
 * level) or for level-0 granularity (deeper levels at full extent).
 */
class ChunkResolver
{
  public:
    ChunkResolver(const BoundDataflow &bound, const Layer &layer,
                  bool depthwise);

    /**
     * Absolute interval of a dimension down to `depth` levels (deeper
     * levels kept at their full chunk extent).
     */
    Interval dimInterval(const Nest &nest, Dim d,
                         std::size_t depth) const;

    /**
     * Every dimension's `dimInterval` at once: one pass down the
     * levels narrows all seven.
     */
    DimMap<Interval> intervals(const Nest &nest, std::size_t depth) const;

    /** Weight chunk of one resolution (`intervals`). */
    Rect weightRect(const DimMap<Interval> &iv) const;

    /** Input chunk of one resolution. */
    Rect inputRect(const DimMap<Interval> &iv) const;

    /**
     * Output positions along one axis touched/owned by an
     * (activation, filter) interval pair.
     */
    Interval outputInterval(const Interval &act, const Interval &filt,
                            Count filt_full, Count out_extent) const;

    /** Output chunk of one resolution. */
    Rect outputRect(const DimMap<Interval> &iv) const;

    /**
     * Exact MACs of the representative PE, from its resolution at
     * the PE depth: valid (y, r) pairs enumerated over the filter
     * chunk.
     */
    double peMacs(const DimMap<Interval> &iv) const;

    Count stride() const { return stride_; }
    Count filterFull(Dim d) const
    {
        return d == Dim::Y ? r_full_ : s_full_;
    }

  private:
    /** Narrows `iv` to level `l`'s chunk of `d` at the nest's position. */
    void narrow(Interval &iv, const Nest &nest, std::size_t l,
                Dim d) const;

    double axisPairs(const Interval &act, const Interval &filt,
                     Count filt_full, Count out_extent) const;

    const BoundDataflow &bound_;
    /** Per level and dim: its first directive (null when absent). */
    std::vector<DimMap<const BoundDirective *>> directive_;
    bool depthwise_;
    Count stride_ = 1;
    Count r_full_ = 1;
    Count s_full_ = 1;
    Count out_y_ = 1;
    Count out_x_ = 1;
};

/**
 * Everything one nest position contributes to the simulation tallies.
 * Two steps with bit-equal contributions are interchangeable, which
 * is exactly what the periodic path's step classes assert.
 */
struct StepContribution
{
    double macs = 0.0;
    double active = 0.0; ///< active PEs this step
    double cycles = 0.0;
    double noc_busy = 0.0;
    double compute_cycles = 0.0;
    double l2_supply_w = 0.0;
    double l2_supply_i = 0.0;
    double output_commits = 0.0;
    double dram_fill_w = 0.0;
    double dram_fill_i = 0.0;

    bool operator==(const StepContribution &o) const
    {
        return macs == o.macs && active == o.active &&
               cycles == o.cycles && noc_busy == o.noc_busy &&
               compute_cycles == o.compute_cycles &&
               l2_supply_w == o.l2_supply_w &&
               l2_supply_i == o.l2_supply_i &&
               output_commits == o.output_commits &&
               dram_fill_w == o.dram_fill_w &&
               dram_fill_i == o.dram_fill_i;
    }
    bool operator!=(const StepContribution &o) const
    {
        return !(*this == o);
    }
};

/**
 * Carried state of one step: its position tuple, the representative
 * PE's chunks, and the level-0 granularity chunks as of the last
 * level-0 change.
 */
struct StepState
{
    std::vector<Count> pos;
    TensorMap<Rect> pe;
    TensorMap<Rect> top;
};

/**
 * Evaluates step contributions. Holds the per-level steady sharing
 * multipliers precomputed from the ownership-aware storage-dim
 * shifts, so a step's contribution is a pure function of the nest
 * position and the previous step's state.
 */
class StepEngine
{
  public:
    StepEngine(const BoundDataflow &bound, const Layer &layer,
               const AcceleratorConfig &config, bool depthwise);

    const ChunkResolver &resolver() const { return resolver_; }
    std::size_t depth() const { return depth_; }

    /**
     * Contribution of the step at the nest's current position.
     * `prev` is the previous step's state (null for the init step);
     * `out`, when non-null, receives this step's state.
     */
    StepContribution step(const Nest &nest, const StepState *prev,
                          StepState *out) const;

    /**
     * Synthesizes the carried state for an arbitrary position into
     * `out` (the fast path derives a class representative's
     * predecessor state without walking to it, reusing one state for
     * every class). The nest must already be positioned.
     */
    void stateAt(const Nest &nest, StepState &out) const;

    /**
     * Concrete spatial position count of one level given the current
     * scope (edge chunks at outer levels shrink inner extents).
     */
    Count spatialStepsNow(const Nest &nest, std::size_t l) const;

    /** Active units of a level at the current fold position/scope. */
    double activeUnits(const Nest &nest, std::size_t l) const;

  private:
    const BoundDataflow &bound_;
    const Layer &layer_;
    const AcceleratorConfig &config_;
    ChunkResolver resolver_;
    std::size_t depth_;
    TensorMap<std::vector<double>> unique_ratio_;
    std::vector<bool> out_reduction_;
    double vector_width_ = 1.0;
    double density_ = 1.0;
};

} // namespace sim
} // namespace maestro

#endif // MAESTRO_SIM_STEP_MODEL_HH
