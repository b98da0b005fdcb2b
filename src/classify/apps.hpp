// Application catalog: the top-40 applications of the paper's Table 5, their
// categories (Table 6), identification hints used by the rule engine, and
// the per-epoch usage calibration the traffic generator targets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace wlm::classify {

/// Application categories, exactly the paper's Table 6 rows.
enum class Category : std::uint8_t {
  kOther = 0,
  kVideoMusic,
  kFileSharing,
  kSocial,
  kEmail,
  kVoipConferencing,
  kP2p,
  kSoftwareUpdates,
  kGaming,
  kSports,
  kNews,
  kOnlineBackup,
  kBlogging,
  kWebFileSharing,
};

inline constexpr int kCategoryCount = 14;

[[nodiscard]] std::string_view category_name(Category c);

/// Stable application identifiers. kUnclassified is the rule engine's miss
/// result before fallback buckets are applied; 1..N index the catalog.
enum class AppId : std::uint16_t {
  kUnclassified = 0,
  kMiscWeb,
  kYouTube,
  kNetflix,
  kMiscSecureWeb,
  kNonWebTcp,
  kITunes,
  kMiscVideo,
  kWindowsFileSharing,
  kCdn,
  kUdp,
  kFacebook,
  kGoogleHttps,
  kAppleFileSharing,
  kAppleCom,
  kGoogle,
  kGoogleDrive,
  kDropbox,
  kSoftwareUpdates,
  kInstagram,
  kBitTorrent,
  kSkype,
  kMiscAudio,
  kPandora,
  kRtmp,
  kGmail,
  kMicrosoftCom,
  kTumblr,
  kSpotify,
  kOutlookMail,
  kDropcam,
  kHulu,
  kSteam,
  kTwitter,
  kEncryptedP2p,
  kEncryptedTcp,
  kRemoteDesktop,
  kEspn,
  kXfinityTv,
  kOtherWebEmail,
  kSkydrive,
  // Not in the top-40 table but referenced in the paper's prose / categories.
  kOnlineBackup,
  kBloggingApp,
  kWebFileShareApp,
  kXboxLive,
};

/// Per-epoch usage calibration derived from Table 5 (2015 column and the
/// year-over-year increase column, from which the 2014 value follows).
struct UsageStats {
  double terabytes = 0.0;     // total bytes over the study week, TB
  double download_frac = 0.0; // fraction of bytes that are downstream
  double clients = 0.0;       // distinct clients using the app that week
};

struct AppInfo {
  AppId id = AppId::kUnclassified;
  std::string_view name;
  Category category = Category::kOther;
  /// Domain suffixes that identify this app in DNS/SNI/HTTP-Host metadata.
  std::vector<std::string_view> domains;
  /// Well-known TCP / UDP ports (used when no hostname metadata exists).
  std::vector<std::uint16_t> tcp_ports;
  std::vector<std::uint16_t> udp_ports;
  UsageStats y2015;
  UsageStats y2014;
  /// Cells reconstructed where the source table was illegible.
  bool reconstructed = false;
};

/// The full catalog (index 0 is a sentinel for kUnclassified).
[[nodiscard]] std::span<const AppInfo> app_catalog();

[[nodiscard]] const AppInfo& app_info(AppId id);

}  // namespace wlm::classify
