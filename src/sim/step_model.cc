#include "src/sim/step_model.hh"

#include <algorithm>
#include <cmath>

#include "src/common/error.hh"
#include "src/common/math_util.hh"
#include "src/core/reuse_analysis.hh"

namespace maestro
{
namespace sim
{

Count
overlap(const Interval &a, const Interval &b)
{
    const Count lo = std::max(a.start, b.start);
    const Count hi = std::min(a.start + a.size, b.start + b.size);
    return std::max<Count>(0, hi - lo);
}

double
Rect::volume() const
{
    double v = 1.0;
    for (std::size_t i = 0; i < rank; ++i)
        v *= static_cast<double>(std::max<Count>(0, dims[i].size));
    return v;
}

double
Rect::newVolume(const Rect &prev) const
{
    if (prev.rank != rank)
        return volume();
    double ov = 1.0;
    for (std::size_t i = 0; i < rank; ++i)
        ov *= static_cast<double>(overlap(dims[i], prev.dims[i]));
    return volume() - ov;
}

Nest::Nest(const BoundDataflow &bound)
    : fold_loop_(bound.levels.size(), kNoLoop),
      dim_loop_(bound.levels.size(), DimMap<std::size_t>(kNoLoop))
{
    for (std::size_t l = 0; l < bound.levels.size(); ++l) {
        const BoundLevel &level = bound.levels[l];
        for (std::size_t i = 0; i < level.directives.size(); ++i) {
            if (i == level.first_spatial && level.spatial_folds > 1) {
                fold_loop_[l] = loops_.size();
                loops_.push_back(
                    {l, true, Dim::N, level.spatial_folds, nullptr});
            }
            const BoundDirective &bd = level.directives[i];
            if (!bd.spatial() && bd.iterating()) {
                // dimPos reads a (level, dim)'s first loop.
                if (dim_loop_[l][bd.dim] == kNoLoop)
                    dim_loop_[l][bd.dim] = loops_.size();
                loops_.push_back({l, false, bd.dim, bd.steps, &bd});
            }
        }
        if (l == 0)
            level0_loops_ = loops_.size();
    }
    pos_.assign(loops_.size(), 0);
}

double
Nest::totalSteps() const
{
    double total = 1.0;
    for (const auto &loop : loops_)
        total *= static_cast<double>(loop.steps);
    return total;
}

bool
Nest::advance()
{
    for (std::size_t i = loops_.size(); i-- > 0;) {
        if (++pos_[i] < loops_[i].steps)
            return true;
        pos_[i] = 0;
    }
    return false;
}

void
Nest::setPositions(const std::vector<Count> &pos)
{
    panicIf(pos.size() != pos_.size(), "sim position arity mismatch");
    pos_ = pos;
}

bool
Nest::decrement(std::vector<Count> &pos) const
{
    for (std::size_t i = pos.size(); i-- > 0;) {
        if (pos[i] > 0) {
            --pos[i];
            return true;
        }
        pos[i] = loops_[i].steps - 1;
    }
    // All zeros: restore and report exhaustion.
    for (std::size_t i = 0; i < pos.size(); ++i)
        pos[i] = 0;
    return false;
}

bool
Nest::level0Changed(const std::vector<Count> &prev) const
{
    for (std::size_t i = 0; i < level0_loops_; ++i) {
        if (pos_[i] != prev[i])
            return true;
    }
    return false;
}

ChunkResolver::ChunkResolver(const BoundDataflow &bound,
                             const Layer &layer, bool depthwise)
    : bound_(bound), directive_(bound.levels.size()),
      depthwise_(depthwise)
{
    for (std::size_t l = 0; l < bound.levels.size(); ++l) {
        for (const auto &bd : bound.levels[l].directives) {
            if (directive_[l][bd.dim] == nullptr)
                directive_[l][bd.dim] = &bd;
        }
    }
    stride_ = layer.type() == OpType::TransposedConv
                  ? 1
                  : layer.strideVal();
    r_full_ = layer.dim(Dim::R);
    s_full_ = layer.dim(Dim::S);
    out_y_ = convOutputs(layer.effectiveDim(Dim::Y), r_full_, stride_);
    out_x_ = convOutputs(layer.effectiveDim(Dim::X), s_full_, stride_);
}

void
ChunkResolver::narrow(Interval &iv, const Nest &nest, std::size_t l,
                      Dim d) const
{
    const BoundDirective *dir = directive_[l][d];
    if (dir == nullptr) [[unlikely]]
        panicWith("missing directive in sim");
    // A spatial directive's position is unit 0's in the current fold.
    const Count p = dir->spatial()
                        ? nest.foldPos(l) * bound_.levels[l].num_units
                        : nest.dimPos(l, d);
    const Count extent = iv.size;
    Count local_start = p * dir->offset_in;
    if (local_start > std::max<Count>(0, extent - 1))
        local_start = std::max<Count>(0, extent - 1);
    iv.start += local_start;
    iv.size = std::min<Count>(dir->size, extent - local_start);
}

Interval
ChunkResolver::dimInterval(const Nest &nest, Dim d,
                           std::size_t depth) const
{
    Interval iv{0, bound_.levels[0].extents[d]};
    for (std::size_t l = 0; l < depth; ++l)
        narrow(iv, nest, l, d);
    return iv;
}

DimMap<Interval>
ChunkResolver::intervals(const Nest &nest, std::size_t depth) const
{
    DimMap<Interval> iv;
    for (Dim d : kAllDims)
        iv[d] = {0, bound_.levels[0].extents[d]};
    for (std::size_t l = 0; l < depth; ++l) {
        for (Dim d : kAllDims)
            narrow(iv[d], nest, l, d);
    }
    return iv;
}

Rect
ChunkResolver::weightRect(const DimMap<Interval> &iv) const
{
    Rect r;
    if (!depthwise_)
        r.push(iv[Dim::K]);
    r.push(iv[Dim::C]);
    r.push(iv[Dim::R]);
    r.push(iv[Dim::S]);
    return r;
}

Rect
ChunkResolver::inputRect(const DimMap<Interval> &iv) const
{
    Rect r;
    r.push(iv[Dim::N]);
    r.push(iv[Dim::C]);
    r.push(iv[Dim::Y]);
    r.push(iv[Dim::X]);
    return r;
}

Interval
ChunkResolver::outputInterval(const Interval &act, const Interval &filt,
                              Count filt_full, Count out_extent) const
{
    Interval iv;
    if (act.empty() || filt.empty())
        return iv;
    if (act.size >= filt_full) {
        // Ownership: outputs producible with the full filter.
        iv.start = (act.start + stride_ - 1) / stride_;
        const Count last = (act.start + act.size - filt_full) / stride_;
        iv.size = std::max<Count>(0, last - iv.start + 1);
    } else {
        // Diagonal: outputs this partial window contributes to.
        const Count lo_raw = act.start - (filt.start + filt.size - 1);
        const Count lo =
            std::max<Count>(0, (lo_raw + stride_ - 1) / stride_);
        const Count hi =
            (act.start + act.size - 1 - filt.start) / stride_;
        iv.start = lo;
        iv.size = std::max<Count>(0, hi - lo + 1);
    }
    // Clamp to the layer's output extent.
    const Count hi = std::min<Count>(iv.start + iv.size, out_extent);
    iv.start = std::min(iv.start, out_extent);
    iv.size = std::max<Count>(0, hi - iv.start);
    return iv;
}

Rect
ChunkResolver::outputRect(const DimMap<Interval> &iv) const
{
    Rect r;
    r.push(iv[Dim::N]);
    r.push(iv[depthwise_ ? Dim::C : Dim::K]);
    r.push(outputInterval(iv[Dim::Y], iv[Dim::R], r_full_, out_y_));
    r.push(outputInterval(iv[Dim::X], iv[Dim::S], s_full_, out_x_));
    return r;
}

double
ChunkResolver::peMacs(const DimMap<Interval> &iv) const
{
    const double pairs_y =
        axisPairs(iv[Dim::Y], iv[Dim::R], r_full_, out_y_);
    const double pairs_x =
        axisPairs(iv[Dim::X], iv[Dim::S], s_full_, out_x_);
    return static_cast<double>(iv[Dim::N].size) *
           static_cast<double>(iv[Dim::K].size) *
           static_cast<double>(iv[Dim::C].size) * pairs_y * pairs_x;
}

double
ChunkResolver::axisPairs(const Interval &act, const Interval &filt,
                         Count filt_full, Count out_extent) const
{
    if (act.empty() || filt.empty())
        return 0.0;
    const Interval outs =
        outputInterval(act, filt, filt_full, out_extent);
    if (outs.empty())
        return 0.0;
    double pairs = 0.0;
    for (Count r = filt.start; r < filt.start + filt.size; ++r) {
        // y = y' * stride + r must fall inside the act interval.
        const Count y_lo =
            std::max<Count>(outs.start * stride_ + r, act.start);
        const Count y_hi =
            std::min<Count>((outs.start + outs.size - 1) * stride_ + r,
                            act.start + act.size - 1);
        if (y_hi < y_lo)
            continue;
        pairs += static_cast<double>((y_hi - y_lo) / stride_ + 1);
    }
    return pairs;
}

StepEngine::StepEngine(const BoundDataflow &bound, const Layer &layer,
                       const AcceleratorConfig &config, bool depthwise)
    : bound_(bound), layer_(layer), config_(config),
      resolver_(bound, layer, depthwise), depth_(bound.levels.size())
{
    vector_width_ = static_cast<double>(config.vector_width);
    density_ = layer.inputDensityVal() * layer.weightDensityVal();

    // Per-level steady sharing multipliers (multicast/reduction), from
    // the ownership-aware storage-dim shifts.
    out_reduction_.assign(depth_, false);
    for (TensorKind t : kAllTensors)
        unique_ratio_[t].assign(depth_, 1.0);
    for (std::size_t l = 0; l < depth_; ++l) {
        const BoundLevel &level = bound.levels[l];
        for (TensorKind t : kAllTensors) {
            const auto dims = tensorStorageDims(level, t, depthwise);
            double unique = 1.0;
            double total = 1.0;
            const double a = level.active_units;
            bool any_shift = false;
            for (const auto &sd : dims) {
                const double shift = std::abs(sd.shift);
                if (shift > 0.0) {
                    any_shift = true;
                    unique *=
                        sd.chunk + (a - 1.0) * std::min(shift, sd.chunk);
                } else {
                    unique *= sd.chunk;
                }
                total *= sd.chunk;
            }
            total *= a;
            const bool has_spatial =
                level.first_spatial != BoundLevel::kNoSpatial && a > 1.0;
            double ratio = 1.0;
            if (has_spatial) {
                ratio = any_shift
                            ? std::min(1.0, total > 0.0 ? unique / total
                                                        : 1.0)
                            : 1.0 / a;
            }
            unique_ratio_[t][l] = ratio;
            if (t == TensorKind::Output)
                out_reduction_[l] = has_spatial && !any_shift;
        }
    }
}

Count
StepEngine::spatialStepsNow(const Nest &nest, std::size_t l) const
{
    const BoundLevel &level = bound_.levels[l];
    if (level.first_spatial == BoundLevel::kNoSpatial)
        return 1;
    Count steps = 1;
    for (const auto &bd : level.directives) {
        if (!bd.spatial())
            continue;
        const Count extent = resolver_.dimInterval(nest, bd.dim, l).size;
        if (extent <= 0)
            continue;
        Count st;
        if (bd.out_space) {
            const Dim filt = bd.dim == Dim::Y ? Dim::R : Dim::S;
            const Count filt_extent =
                resolver_.dimInterval(nest, filt, l).size;
            const Count outs =
                convOutputs(extent, filt_extent, level.stride);
            const Count chunk_outs = convOutputs(
                std::min(bd.size, extent), filt_extent, level.stride);
            st = chunk_outs > 0
                     ? numMapPositions(outs, chunk_outs, bd.offset_out)
                     : 1;
        } else {
            st = numMapPositions(extent, std::min(bd.size, extent),
                                 bd.offset_in);
        }
        steps = std::max(steps, st);
    }
    return steps;
}

double
StepEngine::activeUnits(const Nest &nest, std::size_t l) const
{
    const BoundLevel &level = bound_.levels[l];
    const Count steps = spatialStepsNow(nest, l);
    const Count fold = nest.foldPos(l);
    const Count remaining = steps - fold * level.num_units;
    return static_cast<double>(std::clamp<Count>(
        remaining, steps > 1 ? 0 : 1, level.num_units));
}

void
StepEngine::stateAt(const Nest &nest, StepState &out) const
{
    out.pos = nest.positions();
    const DimMap<Interval> pe_iv = resolver_.intervals(nest, depth_);
    out.pe[TensorKind::Weight] = resolver_.weightRect(pe_iv);
    out.pe[TensorKind::Input] = resolver_.inputRect(pe_iv);
    out.pe[TensorKind::Output] = resolver_.outputRect(pe_iv);
    const DimMap<Interval> top_iv = resolver_.intervals(nest, 1);
    out.top[TensorKind::Weight] = resolver_.weightRect(top_iv);
    out.top[TensorKind::Input] = resolver_.inputRect(top_iv);
}

StepContribution
StepEngine::step(const Nest &nest, const StepState *prev,
                 StepState *out) const
{
    const bool first = prev == nullptr;
    StepContribution c;

    // Per-step active-unit counts and chip-wide sharing multipliers.
    // `repl` is the product of every level's active units: the step's
    // active PEs.
    double act0 = 1.0;
    double repl = 1.0;
    TensorMap<double> unique_mult(1.0);
    double out_mult = 1.0;
    for (std::size_t l = 0; l < depth_; ++l) {
        const double a = std::max(1.0, activeUnits(nest, l));
        if (l == 0)
            act0 = a;
        repl *= a;
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
            unique_mult[t] *= std::max(1.0, a * unique_ratio_[t][l]);
        }
        if (out_reduction_[l]) {
            out_mult *= config_.spatial_reduction ? 1.0 : a;
        } else {
            out_mult *= std::max(
                1.0, a * unique_ratio_[TensorKind::Output][l]);
        }
    }

    TensorMap<double> noc_mult;
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        noc_mult[t] = config_.spatial_multicast ? unique_mult[t] : repl;
    }

    // Representative-PE chunks and their new data.
    const DimMap<Interval> pe_iv = resolver_.intervals(nest, depth_);
    TensorMap<Rect> pe;
    pe[TensorKind::Weight] = resolver_.weightRect(pe_iv);
    pe[TensorKind::Input] = resolver_.inputRect(pe_iv);
    pe[TensorKind::Output] = resolver_.outputRect(pe_iv);

    double noc_in = 0.0;
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        const double fresh =
            first ? pe[t].volume() : pe[t].newVolume(prev->pe[t]);
        const double dens = t == TensorKind::Input
                                ? layer_.inputDensityVal()
                                : layer_.weightDensityVal();
        const double supplied = fresh * noc_mult[t] * dens;
        if (t == TensorKind::Weight)
            c.l2_supply_w += supplied;
        else
            c.l2_supply_i += supplied;
        noc_in += supplied;
    }
    // Output egress: the part of the previous chunk not retained.
    double out_elems = 0.0;
    if (!first) {
        out_elems = prev->pe[TensorKind::Output].newVolume(
            pe[TensorKind::Output]);
    }
    c.output_commits += out_elems * out_mult;

    // DRAM side (level-0 granularity chunks).
    const bool level0_changed =
        first || nest.level0Changed(prev->pos);
    TensorMap<Rect> top;
    if (level0_changed) {
        const DimMap<Interval> top_iv = resolver_.intervals(nest, 1);
        top[TensorKind::Weight] = resolver_.weightRect(top_iv);
        top[TensorKind::Input] = resolver_.inputRect(top_iv);
        for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
            const double fresh = first
                                     ? top[t].volume()
                                     : top[t].newVolume(prev->top[t]);
            const double dens = t == TensorKind::Input
                                    ? layer_.inputDensityVal()
                                    : layer_.weightDensityVal();
            const double mult =
                std::max(1.0, act0 * unique_ratio_[t][0]);
            if (t == TensorKind::Weight)
                c.dram_fill_w += fresh * mult * dens;
            else
                c.dram_fill_i += fresh * mult * dens;
        }
    }

    // Per-step delay.
    const double macs_pe = resolver_.peMacs(pe_iv) * density_;
    c.macs = macs_pe * repl;
    c.active = repl;

    const double compute =
        std::ceil(std::max(1.0, macs_pe) / vector_width_);
    const double d_in = config_.noc.delay(noc_in);
    const double d_out = config_.noc.delay(out_elems * out_mult);
    if (first) {
        c.cycles = d_in + compute + d_out;
    } else {
        c.cycles = std::max({d_in, compute, d_out});
    }
    c.noc_busy = d_in + d_out;
    c.compute_cycles = compute;

    if (out != nullptr) {
        out->pos = nest.positions();
        out->pe = pe;
        out->top = level0_changed ? top : prev->top;
    }
    return c;
}

} // namespace sim
} // namespace maestro
