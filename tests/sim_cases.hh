/**
 * @file
 * Shared cases of the simulator tests: a SimResult rendered bit for
 * bit, crossval triples rendered that way, and a three-level DSL
 * dataflow (the catalog's dataflows have at most two levels).
 */

#ifndef MAESTRO_TESTS_SIM_CASES_HH
#define MAESTRO_TESTS_SIM_CASES_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/error.hh"
#include "src/dataflows/catalog.hh"
#include "src/frontend/parser.hh"
#include "src/sim/crossval.hh"
#include "src/sim/reference_sim.hh"

namespace maestro
{
namespace simtest
{

/**
 * Every SimResult field as a C99 hex float (`%a`), space-separated:
 * two rows are equal exactly when every bit of every field is.
 */
inline std::string
resultBits(const SimResult &r)
{
    std::string row;
    const auto put = [&row](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, row.empty() ? "%a" : " %a", v);
        row += buf;
    };
    put(r.cycles);
    put(r.steps);
    put(r.step_classes);
    put(r.macs);
    put(r.avg_active_pes);
    for (TensorKind t : kAllTensors)
        put(r.l2_supply[t]);
    put(r.output_commits);
    for (TensorKind t : kAllTensors)
        put(r.dram_fill[t]);
    put(r.dram_busy);
    put(r.noc_busy);
    put(r.compute_cycles);
    return row;
}

/**
 * The row of crossval triple (seed, index) on the periodic or the
 * exact path. A triple the simulator rejects renders as its message.
 */
inline std::string
tripleBits(std::uint64_t seed, std::uint64_t index, bool exact)
{
    const crossval::TripleSpec spec = crossval::sampleTriple(seed, index);
    SimOptions options;
    options.exact = exact;
    try {
        return resultBits(simulateLayer(spec.layer(),
                                        dataflows::byName(spec.dataflow),
                                        spec.config(), options));
    } catch (const Error &e) {
        return std::string("error: ") + e.what();
    }
}

/** One (layer, dataflow, hardware) simulation input. */
struct SimCase
{
    Layer layer;
    Dataflow dataflow;
    AcceleratorConfig config;
};

/**
 * A three-level dataflow: K across 4 clusters of 16 PEs, C across
 * their 4 clusters of 4 with Y sliding inside, X across the 4 PEs.
 * On a K32 C16 16x16 3x3 pad-1 conv at 64 PEs every level has a
 * fold loop: 2,048 steps in 480 step classes.
 */
inline SimCase
threeLevelCase()
{
    crossval::TripleSpec spec;
    spec.k = 32;
    spec.c = 16;
    spec.y = spec.x = 16;
    spec.r = spec.s = 3;
    spec.pad = 1;
    spec.num_pes = 64;
    const frontend::ParsedFile parsed = frontend::parseString(
        "Dataflow ThreeLevel {\n"
        "  SpatialMap(1,1) K;\n"
        "  Cluster(16);\n"
        "  SpatialMap(1,1) C;\n"
        "  TemporalMap(Sz(R),1) Y;\n"
        "  Cluster(4);\n"
        "  SpatialMap(Sz(S),1) X;\n"
        "}\n");
    return {spec.layer(), parsed.dataflows.at("ThreeLevel"),
            spec.config()};
}

} // namespace simtest
} // namespace maestro

#endif // MAESTRO_TESTS_SIM_CASES_HH
