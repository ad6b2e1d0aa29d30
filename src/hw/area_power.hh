/**
 * @file
 * Area and power model for the DSE tool (paper Sec. 5.2).
 *
 * The paper synthesizes building blocks (float/fixed MAC, bus, bus
 * arbiter, scratchpads) at 28 nm and fits regressions: bus cost grows
 * linearly with width, arbiter cost quadratically (matrix arbiter),
 * SRAM cost linearly with capacity plus a per-instance overhead. We
 * use the same functional forms with coefficients calibrated so an
 * Eyeriss-like design (168 PEs, 0.5 KiB L1, 108 KiB L2) lands at the
 * paper's constraint point of 16 mm^2 / 450 mW, which the Fig. 13
 * reproduction uses as its area/power budget.
 *
 * This model is the one owner of the formula. It prices a design per
 * axis, and area()/power(), both DSE sweeps and their budget screens
 * compose the same terms in the same association:
 *
 *   area  = (((peArea + l2FixedArea) + l2CapacityArea) + busArea)
 *   power = ((pePower + l2Power) + busPower)
 *
 * so a design's area and power are the same bits whichever of them
 * computes it. The terms are inline: the sweeps call them from their
 * loops.
 */

#ifndef MAESTRO_HW_AREA_POWER_HH
#define MAESTRO_HW_AREA_POWER_HH

#include "src/hw/accelerator.hh"

namespace maestro
{

/**
 * Regression coefficients for the building blocks.
 */
struct AreaPowerCoefficients
{
    // Area in mm^2.
    double mac_area = 0.06;           ///< one PE datapath + control
    double sram_area_per_kib = 0.006; ///< scratchpad storage per KiB
    double sram_area_fixed = 0.0004;  ///< per-instance periphery
    double bus_area_per_lane = 0.002; ///< linear in NoC width
    double arbiter_area_coeff = 2e-6; ///< quadratic in PE count

    // Power in mW (peak, at the reference 1 GHz clock).
    double mac_power = 1.3;            ///< one active PE datapath
    double sram_power_per_kib = 0.25;  ///< scratchpad per KiB
    double sram_power_fixed = 0.05;    ///< per-instance overhead
    double bus_power_per_lane = 0.6;   ///< linear in NoC width
    double arbiter_power_coeff = 1e-5; ///< quadratic in PE count
};

/**
 * Evaluates accelerator area and power from a configuration.
 */
class AreaPowerModel
{
  public:
    /** Uses the built-in calibrated coefficients. */
    AreaPowerModel() = default;

    /** Uses custom coefficients. */
    explicit AreaPowerModel(AreaPowerCoefficients coeffs);

    /** Total chip area in mm^2. */
    double area(const AcceleratorConfig &config) const;

    /** Peak power in mW at the configured clock. */
    double power(const AcceleratorConfig &config) const;

    /**
     * Area of the PE array with its L1s: `num_pes` datapaths of
     * `vector_width` MACs with their fixed SRAM periphery, plus the
     * arbiter, then an L1 of `l1_bytes` per PE.
     */
    double
    peArea(Count num_pes, Count vector_width, Count l1_bytes) const
    {
        const double pes = static_cast<double>(num_pes);
        return pes * (coeffs_.mac_area *
                          static_cast<double>(vector_width) +
                      coeffs_.sram_area_fixed) +
               coeffs_.arbiter_area_coeff * pes * pes +
               pes * coeffs_.sram_area_per_kib * kib(l1_bytes);
    }

    /** Power of the PE array with its L1s (see peArea). */
    double
    pePower(Count num_pes, Count vector_width, Count l1_bytes,
            double clock_ghz) const
    {
        const double pes = static_cast<double>(num_pes);
        return pes *
                   (coeffs_.mac_power *
                        static_cast<double>(vector_width) +
                    coeffs_.sram_power_fixed) *
                   clock_ghz +
               coeffs_.arbiter_power_coeff * pes * pes * clock_ghz +
               pes * coeffs_.sram_power_per_kib * kib(l1_bytes) *
                   clock_ghz;
    }

    /** The L2's per-instance area, added before its capacity part. */
    double l2FixedArea() const { return coeffs_.sram_area_fixed; }

    /** The L2's capacity area. */
    double
    l2CapacityArea(Count l2_bytes) const
    {
        return coeffs_.sram_area_per_kib * kib(l2_bytes);
    }

    /** The L2's power, per-instance and capacity parts together. */
    double
    l2Power(Count l2_bytes, double clock_ghz) const
    {
        return (coeffs_.sram_power_fixed +
                coeffs_.sram_power_per_kib * kib(l2_bytes)) *
               clock_ghz;
    }

    /** The bus's area at a NoC bandwidth (lanes). */
    double
    busArea(double bandwidth) const
    {
        return coeffs_.bus_area_per_lane * bandwidth;
    }

    /** The bus's power at a NoC bandwidth (lanes). */
    double
    busPower(double bandwidth, double clock_ghz) const
    {
        return coeffs_.bus_power_per_lane * bandwidth * clock_ghz;
    }

  private:
    /** KiB of a byte count (the SRAM terms are per KiB). */
    static double
    kib(Count bytes)
    {
        return static_cast<double>(bytes) / 1024.0;
    }

    AreaPowerCoefficients coeffs_;
};

} // namespace maestro

#endif // MAESTRO_HW_AREA_POWER_HH
