// Per-AP runtime state: configuration, associated clients, link table,
// tunnel to the backend, and offered-load bookkeeping.
#pragma once

#include <span>
#include <vector>

#include "backend/tunnel.hpp"
#include "classify/classifier.hpp"
#include "deploy/generator.hpp"
#include "deploy/population.hpp"
#include "mac/association.hpp"
#include "probe/link_table.hpp"
#include "sim/radio_env.hpp"

namespace wlm::sim {

/// A client currently associated to this AP (the row view used when adding).
struct AssociatedClient {
  deploy::ClientDevice device;
  phy::Band band = phy::Band::k2_4GHz;
  double rssi_at_ap_dbm = -70.0;
  classify::OsType detected_os = classify::OsType::kUnknown;
};

/// Struct-of-arrays storage for an AP's associated clients. The weekly
/// report loop re-reads every client once per reporting period, touching
/// only a few fields per pass; parallel columns keep those passes on dense,
/// homogeneous memory instead of striding over whole AssociatedClient
/// records (DESIGN.md §4f). Columns are index-aligned: entry i of every
/// column describes the same client.
class ClientColumns {
 public:
  void add(AssociatedClient client) {
    devices_.push_back(std::move(client.device));
    bands_.push_back(client.band);
    rssi_at_ap_dbm_.push_back(client.rssi_at_ap_dbm);
    detected_os_.push_back(client.detected_os);
  }

  [[nodiscard]] std::size_t size() const { return devices_.size(); }
  [[nodiscard]] bool empty() const { return devices_.empty(); }

  [[nodiscard]] std::span<const deploy::ClientDevice> devices() const { return devices_; }
  [[nodiscard]] std::span<const phy::Band> bands() const { return bands_; }
  [[nodiscard]] std::span<const double> rssi_at_ap_dbm() const { return rssi_at_ap_dbm_; }
  [[nodiscard]] std::span<const classify::OsType> detected_os() const { return detected_os_; }

  /// Materializes row i (tests and cold paths; hot loops walk the columns).
  [[nodiscard]] AssociatedClient row(std::size_t i) const {
    return AssociatedClient{devices_[i], bands_[i], rssi_at_ap_dbm_[i], detected_os_[i]};
  }

 private:
  std::vector<deploy::ClientDevice> devices_;
  std::vector<phy::Band> bands_;
  std::vector<double> rssi_at_ap_dbm_;
  std::vector<classify::OsType> detected_os_;
};

class ApRuntime {
 public:
  /// `config` is the fleet's own generated config, kept by address: it must
  /// outlive the runtime. `queue_limit` bounds the device-side tunnel queue
  /// (see backend::Tunnel).
  ApRuntime(const deploy::ApConfig& config, NetworkId network, deploy::Industry industry,
            std::size_t queue_limit = 4096);

  [[nodiscard]] const deploy::ApConfig& config() const { return *config_; }
  [[nodiscard]] ApId id() const { return config_->id; }
  [[nodiscard]] NetworkId network() const { return network_; }
  [[nodiscard]] deploy::Industry industry() const { return industry_; }

  [[nodiscard]] backend::Tunnel& tunnel() { return tunnel_; }
  [[nodiscard]] const backend::Tunnel& tunnel() const { return tunnel_; }
  [[nodiscard]] probe::LinkTable& link_table() { return link_table_; }
  [[nodiscard]] const probe::LinkTable& link_table() const { return link_table_; }

  void set_peers(std::vector<FleetPeer> peers) { peers_ = std::move(peers); }
  [[nodiscard]] const std::vector<FleetPeer>& peers() const { return peers_; }

  /// Offered-load duty on each band's serving channel (busy-hour average).
  void set_tx_duty(double duty_24, double duty_5);
  [[nodiscard]] double tx_duty(phy::Band band, double hour) const;

  void add_client(AssociatedClient client) { clients_.add(std::move(client)); }
  [[nodiscard]] const ClientColumns& clients() const { return clients_; }

  /// Radio environment for this AP (peers' duties scaled for the hour).
  [[nodiscard]] RadioEnvironment environment(double hour) const;

 private:
  const deploy::ApConfig* config_;
  NetworkId network_;
  deploy::Industry industry_;
  backend::Tunnel tunnel_;
  probe::LinkTable link_table_;
  std::vector<FleetPeer> peers_;
  ClientColumns clients_;
  double tx_duty_24_ = 0.0;
  double tx_duty_5_ = 0.0;
};

}  // namespace wlm::sim
