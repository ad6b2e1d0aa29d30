#include "src/sim/reference_sim.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/error.hh"
#include "src/core/cost_analysis.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/sim/step_classes.hh"
#include "src/sim/step_model.hh"

namespace maestro
{

namespace
{

/** One step class: member count times the shared contribution. */
struct LeafTally
{
    double count = 0.0;
    sim::StepContribution c;
};

/**
 * Combines the leaves into totals. Both paths produce their leaves
 * in the same (lexicographic key) order with bit-equal counts and
 * contributions, so this shared reduction is where byte-identity is
 * inherited rather than re-proven.
 */
SimResult
combineLeaves(const std::vector<LeafTally> &leaves)
{
    SimResult r;
    double active_sum = 0.0;
    for (const LeafTally &leaf : leaves) {
        const double n = leaf.count;
        r.cycles += n * leaf.c.cycles;
        r.macs += n * leaf.c.macs;
        r.steps += n;
        active_sum += n * leaf.c.active;
        r.l2_supply[TensorKind::Weight] += n * leaf.c.l2_supply_w;
        r.l2_supply[TensorKind::Input] += n * leaf.c.l2_supply_i;
        r.output_commits += n * leaf.c.output_commits;
        r.dram_fill[TensorKind::Weight] += n * leaf.c.dram_fill_w;
        r.dram_fill[TensorKind::Input] += n * leaf.c.dram_fill_i;
        r.noc_busy += n * leaf.c.noc_busy;
        r.compute_cycles += n * leaf.c.compute_cycles;
    }
    r.step_classes = static_cast<double>(leaves.size());
    r.avg_active_pes = r.steps > 0.0 ? active_sum / r.steps : 0.0;
    return r;
}

std::string
describePosition(const std::vector<Count> &pos)
{
    std::ostringstream out;
    out << "(";
    for (std::size_t i = 0; i < pos.size(); ++i)
        out << (i ? "," : "") << pos[i];
    out << ")";
    return out.str();
}

/**
 * The oracle: walks every nest position, classifies it through the
 * same partition tree the fast path enumerates, and asserts every
 * class member contributes bit-identically to the class's first
 * (representative) member. A violation means the periodic
 * classification is wrong for this workload and raises Error instead
 * of silently diverging.
 */
std::vector<LeafTally>
exactLeaves(const sim::StepEngine &engine, const BoundDataflow &bound,
            sim::Nest &nest)
{
    sim::ClassTree tree(engine, bound);
    std::map<std::vector<Count>, LeafTally> tally;
    sim::StepState states[2];
    std::vector<Count> key;
    bool first = true;
    int cur = 0;
    while (true) {
        const sim::StepContribution c = engine.step(
            nest, first ? nullptr : &states[1 - cur], &states[cur]);
        tree.classify(nest.positions(), key);
        auto [it, inserted] = tally.try_emplace(key);
        if (inserted) {
            it->second.count = 1.0;
            it->second.c = c;
        } else {
            fatalIf(it->second.c != c, "sim step-class invariant violated at position ",
                        describePosition(nest.positions()),
                        ": contribution differs from the class "
                        "representative");
            it->second.count += 1.0;
        }
        first = false;
        cur = 1 - cur;
        if (!nest.advance())
            break;
    }
    std::vector<LeafTally> leaves;
    leaves.reserve(tally.size());
    for (const auto &[k, leaf] : tally)
        leaves.push_back(leaf);
    return leaves;
}

/**
 * The periodic fast path: enumerate the step classes, evaluate one
 * representative per class (synthesizing its predecessor's state at
 * the odometer-decremented position), and weight by member count.
 */
std::vector<LeafTally>
fastLeaves(const sim::StepEngine &engine, const BoundDataflow &bound,
           double max_classes)
{
    sim::ClassTree tree(engine, bound);
    sim::Nest cur(bound);
    sim::Nest prev(bound);
    std::vector<Count> prev_pos;
    sim::StepState prev_state;
    std::vector<LeafTally> leaves;
    tree.enumerate(
        max_classes,
        [&](const std::vector<Count> &rep, double count) {
            cur.setPositions(rep);
            prev_pos = rep;
            sim::StepContribution c;
            if (!cur.decrement(prev_pos)) {
                // The all-zeros class is the init step.
                c = engine.step(cur, nullptr, nullptr);
            } else {
                prev.setPositions(prev_pos);
                engine.stateAt(prev, prev_state);
                c = engine.step(cur, &prev_state, nullptr);
            }
            leaves.push_back({count, c});
        });
    return leaves;
}

} // namespace

SimResult
simulateLayer(const Layer &layer, const Dataflow &dataflow,
              const AcceleratorConfig &config, const SimOptions &options)
{
    layer.validate();
    config.validate();
    const bool depthwise = layer.type() == OpType::DepthwiseConv;
    const BoundDataflow bound =
        bindDataflow(dataflow, layer, config.num_pes);
    const sim::StepEngine engine(bound, layer, config, depthwise);

    std::vector<LeafTally> leaves;
    if (options.exact) {
        sim::Nest nest(bound);
        fatalIf(nest.totalSteps() > options.max_steps, "simulation nest has ", nest.totalSteps(),
                    " steps, exceeding the guard of ",
                    options.max_steps);
        leaves = exactLeaves(engine, bound, nest);
    } else {
        leaves = fastLeaves(engine, bound, options.max_steps);
    }
    SimResult result = combineLeaves(leaves);

    // L2 capacity correction: a tensor the L2 can pin alongside the
    // schedule's streaming working set is fetched from DRAM exactly
    // once. The walker itself tracks only the previous level-0 rect
    // (no capacity), so cyclic revisits of a pinnable tensor surface
    // as organic refetches; the clamp removes them under the same
    // residency rule the analytical model uses (l2Resident).
    const double l2_required = l2BytesRequired(
        bound, analyzeReuse(bound, analyzeTensors(layer), depthwise),
        config.precision_bytes);
    for (TensorKind t : {TensorKind::Weight, TensorKind::Input}) {
        const double volume =
            static_cast<double>(layer.tensorVolume(t)) *
            (t == TensorKind::Input ? layer.inputDensityVal()
                                    : layer.weightDensityVal());
        if (l2Resident(volume, config.precision_bytes,
                       static_cast<double>(config.l2_bytes),
                       l2_required))
            result.dram_fill[t] = std::min(result.dram_fill[t], volume);
        result.dram_busy +=
            result.dram_fill[t] / config.offchip.bandwidth();
    }
    // Final outputs drain to DRAM through the same interface.
    result.dram_busy +=
        static_cast<double>(layer.tensorVolume(TensorKind::Output)) /
        config.offchip.bandwidth();

    // The off-chip interface overlaps with on-chip execution under
    // double buffering: runtime is bounded below by its busy time.
    result.cycles = std::max(result.cycles, result.dram_busy);
    return result;
}

} // namespace maestro
