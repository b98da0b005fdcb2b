#include "sim/ap.hpp"

#include "traffic/diurnal.hpp"

namespace wlm::sim {

ApRuntime::ApRuntime(const deploy::ApConfig& config, NetworkId network,
                     deploy::Industry industry, std::size_t queue_limit)
    : config_(&config), network_(network), industry_(industry),
      tunnel_(config.id, queue_limit) {}

void ApRuntime::set_tx_duty(double duty_24, double duty_5) {
  tx_duty_24_ = duty_24;
  tx_duty_5_ = duty_5;
}

double ApRuntime::tx_duty(phy::Band band, double hour) const {
  const double base = band == phy::Band::k5GHz ? tx_duty_5_ : tx_duty_24_;
  return base * traffic::diurnal_multiplier(hour, industry_);
}

RadioEnvironment ApRuntime::environment(double hour) const {
  return RadioEnvironment{&config_->environment, peers_,
                          traffic::diurnal_multiplier(hour, industry_)};
}

}  // namespace wlm::sim
