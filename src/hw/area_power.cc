#include "src/hw/area_power.hh"

namespace maestro
{

AreaPowerModel::AreaPowerModel(AreaPowerCoefficients coeffs)
    : coeffs_(coeffs)
{
}

double
AreaPowerModel::area(const AcceleratorConfig &config) const
{
    return peArea(config.num_pes, config.vector_width,
                  config.l1_bytes) +
           l2FixedArea() + l2CapacityArea(config.l2_bytes) +
           busArea(config.noc.bandwidth());
}

double
AreaPowerModel::power(const AcceleratorConfig &config) const
{
    return pePower(config.num_pes, config.vector_width,
                   config.l1_bytes, config.clock_ghz) +
           l2Power(config.l2_bytes, config.clock_ghz) +
           busPower(config.noc.bandwidth(), config.clock_ghz);
}

} // namespace maestro
