/**
 * @file
 * Unit tests for the hardware models: NoC pipe model, energy tables
 * and capacity scaling, area/power regressions.
 */

#include <gtest/gtest.h>

#include "src/common/error.hh"
#include "src/hw/area_power.hh"
#include "src/hw/energy.hh"

namespace maestro
{
namespace
{

TEST(Noc, PipeDelay)
{
    const NocModel pipe(8.0, 2.0);
    EXPECT_DOUBLE_EQ(pipe.delay(0.0), 0.0);
    EXPECT_DOUBLE_EQ(pipe.delay(16.0), 4.0);
    EXPECT_DOUBLE_EQ(pipe.delay(1.0), 2.125);
}

TEST(Noc, Presets)
{
    // Mesh: bisection bandwidth n, average latency n (paper Sec. 4.2).
    const NocModel mesh = NocModel::mesh(8);
    EXPECT_DOUBLE_EQ(mesh.bandwidth(), 8.0);
    EXPECT_DOUBLE_EQ(mesh.avgLatency(), 8.0);
    // Eyeriss-style hierarchical bus: 3x channel bandwidth.
    const NocModel hbus = NocModel::hierarchicalBus(4.0);
    EXPECT_DOUBLE_EQ(hbus.bandwidth(), 12.0);
    // Crossbar: ports x per-port width.
    EXPECT_DOUBLE_EQ(NocModel::crossbar(16, 2.0).bandwidth(), 32.0);
}

TEST(Noc, RejectsBadParameters)
{
    EXPECT_THROW(NocModel(0.0, 1.0), Error);
    EXPECT_THROW(NocModel(-1.0, 1.0), Error);
    EXPECT_THROW(NocModel(1.0, -1.0), Error);
}

TEST(Energy, RelativeMagnitudes)
{
    // The literature-standard ordering: MAC < L1 < L2 < DRAM.
    const EnergyModel e;
    EXPECT_LT(e.macEnergy(), e.l1ReadEnergy(2048));
    EXPECT_LT(e.l1ReadEnergy(2048), e.l2ReadEnergy(1 << 20));
    EXPECT_LT(e.l2ReadEnergy(1 << 20), e.dramEnergy());
}

TEST(Energy, CapacityScaling)
{
    // Cacti-style sqrt scaling: 4x the capacity -> 2x the energy.
    const EnergyModel e;
    EXPECT_NEAR(e.l1ReadEnergy(4 * 2048), 2.0 * e.l1ReadEnergy(2048),
                1e-9);
    EXPECT_NEAR(e.l2ReadEnergy((1 << 20) / 4),
                0.5 * e.l2ReadEnergy(1 << 20), 1e-9);
}

TEST(Energy, BreakdownAccumulation)
{
    EnergyBreakdown a;
    a.mac = 1.0;
    a.l1_read[TensorKind::Weight] = 2.0;
    a.noc = 3.0;
    EnergyBreakdown b;
    b.mac = 4.0;
    b.dram = 5.0;
    a += b;
    EXPECT_DOUBLE_EQ(a.mac, 5.0);
    EXPECT_DOUBLE_EQ(a.total(), 5.0 + 2.0 + 3.0 + 5.0);
}

TEST(AreaPower, MonotoneInEveryAxis)
{
    const AreaPowerModel model;
    AcceleratorConfig base = AcceleratorConfig::paperStudy();
    const double a0 = model.area(base);
    const double p0 = model.power(base);

    AcceleratorConfig more_pes = base;
    more_pes.num_pes *= 2;
    EXPECT_GT(model.area(more_pes), a0);
    EXPECT_GT(model.power(more_pes), p0);

    AcceleratorConfig more_l1 = base;
    more_l1.l1_bytes *= 2;
    EXPECT_GT(model.area(more_l1), a0);

    AcceleratorConfig more_bw = base;
    more_bw.noc = NocModel(base.noc.bandwidth() * 2, 1.0);
    EXPECT_GT(model.area(more_bw), a0);
    EXPECT_GT(model.power(more_bw), p0);
}

TEST(AreaPower, EyerissLikeFitsPaperBudget)
{
    // The Fig. 13 budget (16 mm^2 / 450 mW) must admit an
    // Eyeriss-class design under our calibration.
    const AreaPowerModel model;
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissLike();
    EXPECT_LT(model.area(cfg), 16.0);
    EXPECT_LT(model.power(cfg), 450.0);
}

TEST(AreaPower, MinBoundsAreLowerBounds)
{
    // The DSE's subtree screen: the PE array with its L1s plus the L2
    // and bus at the smallest L2 and bandwidth, summed in area()'s and
    // power()'s order. It is exactly the cheapest design's area and
    // power, and never exceeds a design with a larger L2 or bandwidth.
    const AreaPowerModel model;
    const Count min_l2 = 16 * 1024;
    const double min_bw = 1.0;
    for (const Count pes : {8, 104, 168, 256, 512}) {
        for (const Count vector_width : {1, 4}) {
            for (const Count l1 : {64, 512, 15936, 16 * 1024}) {
                for (const double clock : {1.0, 0.7}) {
                    const double area_bound =
                        model.peArea(pes, vector_width, l1) +
                        model.l2FixedArea() +
                        model.l2CapacityArea(min_l2) +
                        model.busArea(min_bw);
                    const double power_bound =
                        model.pePower(pes, vector_width, l1, clock) +
                        model.l2Power(min_l2, clock) +
                        model.busPower(min_bw, clock);
                    for (const Count l2 : {min_l2, Count{110592},
                                           Count{2 << 20}}) {
                        for (const double bw : {min_bw, 7.25, 64.0}) {
                            AcceleratorConfig cfg;
                            cfg.num_pes = pes;
                            cfg.vector_width = vector_width;
                            cfg.l1_bytes = l1;
                            cfg.l2_bytes = l2;
                            cfg.noc = NocModel(bw, 1.0);
                            cfg.clock_ghz = clock;
                            EXPECT_LE(area_bound, model.area(cfg))
                                << pes << " PEs, L2 " << l2 << ", BW "
                                << bw;
                            EXPECT_LE(power_bound, model.power(cfg))
                                << pes << " PEs, L2 " << l2 << ", BW "
                                << bw << ", clock " << clock;
                            if (l2 == min_l2 && bw == min_bw) {
                                EXPECT_EQ(area_bound, model.area(cfg))
                                    << pes << " PEs, L1 " << l1;
                                EXPECT_EQ(power_bound, model.power(cfg))
                                    << pes << " PEs, L1 " << l1
                                    << ", clock " << clock;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(Accelerator, ValidateRejectsBadConfigs)
{
    AcceleratorConfig cfg;
    cfg.num_pes = 0;
    EXPECT_THROW(cfg.validate(), Error);
    cfg = AcceleratorConfig();
    cfg.vector_width = 0;
    EXPECT_THROW(cfg.validate(), Error);
    cfg = AcceleratorConfig();
    cfg.clock_ghz = 0.0;
    EXPECT_THROW(cfg.validate(), Error);
}

} // namespace
} // namespace maestro
