/**
 * @file
 * Frozen mapper searches: for four (layer, objective, capacity) cases
 * over the default space, the search statistics and every ranked
 * entry's name, directive text and objective value ("%a", so exact).
 *
 * The values were captured from the mapper whose canonical keys and
 * candidate names were still formatted text. The pruned-vs-oracle
 * tests derive their oracle's dedup from the same canonical key, so a
 * key that merges or splits equivalence classes moves both sides
 * alike and passes them; here it moves pruned_symmetry and the ranked
 * list. Both modes name their results the same way, so only frozen
 * names catch a naming change. The runtime rows' pruned_bound and
 * evaluated counts pin the bound prune's reach.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/mapper/mapper.hh"
#include "src/model/zoo.hh"

namespace maestro
{
namespace
{

/** One frozen ranked entry. */
struct GoldenMapping
{
    const char *name;
    const char *objective; ///< "%a" of objective_value
    const char *directives; ///< Dataflow::toString()
};

/** One frozen mapLayer call at the paper-study config. */
struct GoldenSearch
{
    const char *model;
    const char *layer;
    mapper::Objective objective;
    bool enforce_l1;

    /** generated, pruned_symmetry, pruned_capacity, pruned_bound,
     *  evaluated, rejected. */
    std::size_t stats[6];

    std::vector<GoldenMapping> ranked;
};

// VGG16 CONV11 / runtime is the search benchmark's call.
const GoldenSearch kGoldenSearches[] = {
    {"vgg16", "CONV11", mapper::Objective::Runtime, false,
     {18720, 0, 0, 14035, 4685, 0},
     {
         {"M-KCYX-sK-tC8Y1X1", "0x1.c8f102ap+20",
          "SpatialMap(1,1) K;\n"
          "TemporalMap(8,8) C;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-KCXY-sK-tC8Y1X1", "0x1.c8f102ap+20",
          "SpatialMap(1,1) K;\n"
          "TemporalMap(8,8) C;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-CKYX-sK-tC8Y1X1", "0x1.c8f102ap+20",
          "TemporalMap(8,8) C;\n"
          "SpatialMap(1,1) K;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-CKXY-sK-tC8Y1X1", "0x1.c8f102ap+20",
          "TemporalMap(8,8) C;\n"
          "SpatialMap(1,1) K;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-KCYX-sK-tC1Y1X1", "0x1.c9155054p+20",
          "SpatialMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-KCXY-sK-tC1Y1X1", "0x1.c9155054p+20",
          "SpatialMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-CKYX-sK-tC1Y1X1", "0x1.c9155054p+20",
          "TemporalMap(1,1) C;\n"
          "SpatialMap(1,1) K;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-CKXY-sK-tC1Y1X1", "0x1.c9155054p+20",
          "TemporalMap(1,1) C;\n"
          "SpatialMap(1,1) K;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-KCYX-sC-c64iK-tK64Y1X1", "0x1.c94b5054p+20",
          "TemporalMap(64,64) K;\n"
          "SpatialMap(1,1) C;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCXY-sC-c64iK-tK64Y1X1", "0x1.c94b5054p+20",
          "TemporalMap(64,64) K;\n"
          "SpatialMap(1,1) C;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
     }},
    {"vgg16", "CONV1", mapper::Objective::Runtime, false,
     {13728, 5824, 0, 4940, 2964, 0},
     {
         {"M-KYXC-sY-c16iK-tK64C1X1", "0x1.4ac3dc2f05398p+18",
          "TemporalMap(64,64) K;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KYXC-sX-c16iK-tK64C1Y1", "0x1.4ac3dc2f05398p+18",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KXYC-sX-c16iK-tK64C1Y1", "0x1.4ac3dc2f05398p+18",
          "TemporalMap(64,64) K;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KXYC-sY-c16iK-tK64C1X1", "0x1.4ac3dc2f05398p+18",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KYCX-sX-c16iK-tK64C1Y1", "0x1.4ac3de9249249p+18",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KXCY-sY-c16iK-tK64C1X1", "0x1.4ac3de9249249p+18",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KYCX-sY-c16iK-tK64C1X1", "0x1.4ac424b7d3fc2p+18",
          "TemporalMap(64,64) K;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KXCY-sX-c16iK-tK64C1Y1", "0x1.4ac424b7d3fc2p+18",
          "TemporalMap(64,64) K;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KYXC-sY-c16iK-tK64C1X4", "0x1.4ac478bc14e5ep+18",
          "TemporalMap(64,64) K;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(3+Sz(S),4) X;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KYXC-sX-c16iK-tK64C1Y4", "0x1.4ac478bc14e5ep+18",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(3+Sz(R),4) Y;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(16);\n"
          "SpatialMap(1,1) K;\n"},
     }},
    {"mobilenetv2", "B2_dw", mapper::Objective::Energy, true,
     {8736, 3744, 1200, 0, 3792, 0},
     {
         {"M-KCYX-sY-tK1C1X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-KCYX-sY-tK1C8X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(8,8) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
         {"M-KCYX-sY-c4iK-tK1C1X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(4);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCYX-sY-c4iK-tK1C8X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(8,8) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(4);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCYX-sY-c4iC-tK1C1X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(4);\n"
          "SpatialMap(1,1) C;\n"},
         {"M-KCYX-sY-c4iY-tK1C1X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(4);\n"
          "SpatialMap(Sz(R),1) Y;\n"},
         {"M-KCYX-sY-c4iY-tK1C8X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(8,8) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(4);\n"
          "SpatialMap(Sz(R),1) Y;\n"},
         {"M-KCYX-sY-c4iX-tK1C1X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(4);\n"
          "SpatialMap(Sz(S),1) X;\n"},
         {"M-KCYX-sY-c4iX-tK1C8X1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(8,8) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(4);\n"
          "SpatialMap(Sz(S),1) X;\n"},
         {"M-KCYX-sX-tK1C1Y1", "0x1.1a60e570a3d7p+26",
          "TemporalMap(1,1) K;\n"
          "TemporalMap(1,1) C;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"},
     }},
    {"alexnet", "CONV1", mapper::Objective::Edp, true,
     {13728, 3744, 4320, 0, 5664, 240},
     {
         {"M-KCYX-sY-c64iK-tK64C3X4", "0x1.08ccd49a29191p+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(3,3) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(3+Sz(S),4) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCXY-sX-c64iK-tK64C3Y4", "0x1.08ccd49a29191p+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(3,3) C;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(3+Sz(R),4) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCYX-sY-c64iK-tK64C3X1", "0x1.0946b97ad938bp+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(3,3) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCXY-sX-c64iK-tK64C3Y1", "0x1.0946b97ad938bp+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(3,3) C;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCYX-sY-c64iK-tK64C1X1", "0x1.11c42329eed3p+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCXY-sX-c64iK-tK64C1Y1", "0x1.11c42329eed3p+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-CKYX-sY-c64iK-tK64C1X1", "0x1.11e6a9072baep+48",
          "TemporalMap(1,1) C;\n"
          "TemporalMap(64,64) K;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-CKXY-sX-c64iK-tK64C1Y1", "0x1.11e6a9072baep+48",
          "TemporalMap(1,1) C;\n"
          "TemporalMap(64,64) K;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(Sz(R),1) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCYX-sY-c64iK-tK64C1X4", "0x1.1241a54b19c4bp+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(R),1) Y;\n"
          "TemporalMap(3+Sz(S),4) X;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
         {"M-KCXY-sX-c64iK-tK64C1Y4", "0x1.1241a54b19c4bp+48",
          "TemporalMap(64,64) K;\n"
          "TemporalMap(1,1) C;\n"
          "SpatialMap(Sz(S),1) X;\n"
          "TemporalMap(3+Sz(R),4) Y;\n"
          "TemporalMap(Sz(R),Sz(R)) R;\n"
          "TemporalMap(Sz(S),Sz(S)) S;\n"
          "Cluster(64);\n"
          "SpatialMap(1,1) K;\n"},
     }},
};

std::string
hexFloat(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

TEST(Mapper, GoldenSearchesMatchFrozenRankings)
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    for (const GoldenSearch &g : kGoldenSearches) {
        SCOPED_TRACE(std::string(g.model) + " " + g.layer);
        const Network net = zoo::byName(g.model);
        mapper::MapperOptions options;
        options.enforce_l1_capacity = g.enforce_l1;
        const mapper::MapperResult res =
            mapLayer(analyzer, net.layer(g.layer), g.objective, options);

        EXPECT_EQ(res.stats.generated, g.stats[0]);
        EXPECT_EQ(res.stats.pruned_symmetry, g.stats[1]);
        EXPECT_EQ(res.stats.pruned_capacity, g.stats[2]);
        EXPECT_EQ(res.stats.pruned_bound, g.stats[3]);
        EXPECT_EQ(res.stats.evaluated, g.stats[4]);
        EXPECT_EQ(res.stats.rejected, g.stats[5]);
        ASSERT_EQ(res.ranked.size(), g.ranked.size());
        for (std::size_t i = 0; i < g.ranked.size(); ++i) {
            SCOPED_TRACE(i);
            const mapper::MappedDataflow &md = res.ranked[i];
            EXPECT_EQ(md.dataflow.name(), g.ranked[i].name);
            EXPECT_EQ(hexFloat(md.objective_value), g.ranked[i].objective);
            EXPECT_EQ(md.dataflow.toString(), g.ranked[i].directives);
        }
    }
}

} // namespace
} // namespace maestro
