#include "classify/apps.hpp"

#include <cassert>

namespace wlm::classify {

std::string_view category_name(Category c) {
  switch (c) {
    case Category::kOther:
      return "Other";
    case Category::kVideoMusic:
      return "Video & music";
    case Category::kFileSharing:
      return "File sharing";
    case Category::kSocial:
      return "Social web & photo sharing";
    case Category::kEmail:
      return "Email";
    case Category::kVoipConferencing:
      return "VoIP & video conferencing";
    case Category::kP2p:
      return "Peer-to-peer (P2P)";
    case Category::kSoftwareUpdates:
      return "Software & anti-virus updates";
    case Category::kGaming:
      return "Gaming";
    case Category::kSports:
      return "Sports";
    case Category::kNews:
      return "News";
    case Category::kOnlineBackup:
      return "Online backup";
    case Category::kBlogging:
      return "Blogging";
    case Category::kWebFileSharing:
      return "Web file sharing";
  }
  return "?";
}

namespace {

struct Row {
  AppId id;
  std::string_view name;
  Category cat;
  std::vector<std::string_view> domains;
  std::vector<std::uint16_t> tcp;
  std::vector<std::uint16_t> udp;
  double tb2015;
  double down_frac;
  double clients2015;
  double tb_increase;       // fraction, e.g. 0.76 for "+76%"
  double clients_increase;  // fraction
  bool reconstructed = false;
};

std::vector<AppInfo> build_catalog() {
  // Table 5 transcription. Rows whose cells were illegible in the source
  // scan carry reconstructed=true; their values were chosen to be
  // self-consistent (TB ~= clients * MB/client) and to satisfy the paper's
  // prose (video 34% of bytes at 97% download, overall 82% download, ...).
  const std::vector<Row> rows = {
      {AppId::kMiscWeb, "Miscellaneous web", Category::kOther, {}, {80, 8080}, {},
       327, 0.77, 4'623'630, 0.51, 0.37, true},
      {AppId::kYouTube, "YouTube", Category::kVideoMusic,
       {"youtube.com", "googlevideo.com", "ytimg.com"}, {}, {},
       218, 0.97, 3'861'000, 0.75, 0.45, true},
      {AppId::kNetflix, "Netflix", Category::kVideoMusic,
       {"netflix.com", "nflxvideo.net", "nflximg.com"}, {}, {},
       188, 0.98, 161'014, 0.76, 0.19},
      {AppId::kMiscSecureWeb, "Miscellaneous secure web", Category::kOther, {}, {443}, {},
       147, 0.80, 5'115'023, 0.94, 0.40, true},
      {AppId::kNonWebTcp, "Non-web TCP", Category::kOther, {}, {}, {},
       136, 0.68, 1'551'023, 0.76, 0.40, true},
      {AppId::kITunes, "iTunes", Category::kVideoMusic,
       {"itunes.apple.com", "mzstatic.com", "itunes.com"}, {}, {},
       102, 0.98, 2'230'787, 0.66, 0.38},
      {AppId::kMiscVideo, "Miscellaneous video", Category::kVideoMusic, {}, {}, {},
       98, 0.91, 1'383'386, 0.61, 0.76},
      {AppId::kWindowsFileSharing, "Windows file sharing", Category::kFileSharing,
       {}, {445, 139}, {137, 138},
       87, 0.66, 740'591, 0.48, 0.31},
      {AppId::kCdn, "CDNs", Category::kOther,
       {"akamai.net", "akamaihd.net", "cloudfront.net", "edgecast.com", "fastly.net"}, {}, {},
       75, 0.72, 3'157'028, 0.81, 0.46},
      {AppId::kUdp, "UDP", Category::kOther, {}, {}, {},
       61, 0.61, 3'705'171, 0.60, 0.69},
      {AppId::kFacebook, "Facebook", Category::kSocial,
       {"facebook.com", "fbcdn.net", "fbstatic-a.akamaihd.net", "messenger.com"}, {}, {},
       57, 0.93, 3'579'926, 0.61, 0.35, true},
      {AppId::kGoogleHttps, "Google HTTPS", Category::kOther,
       {"googleapis.com", "gstatic.com", "googleusercontent.com"}, {}, {},
       49, 0.85, 3'953'002, 0.67, 0.44},
      {AppId::kAppleFileSharing, "Apple file sharing", Category::kFileSharing,
       {}, {548}, {5353},
       42, 0.44, 21'951, 0.18, -0.017},
      {AppId::kAppleCom, "apple.com", Category::kOther,
       {"apple.com", "icloud.com"}, {}, {},
       37, 0.94, 2'763'663, 0.79, 0.32},
      {AppId::kGoogle, "Google", Category::kOther,
       {"google.com", "google-analytics.com", "doubleclick.net"}, {}, {},
       34, 0.85, 3'804'317, 0.19, 0.39},
      {AppId::kGoogleDrive, "Google Drive", Category::kOther,
       {"drive.google.com", "docs.google.com"}, {}, {},
       24, 0.79, 1'325'938, 3.74, 1.38},
      {AppId::kDropbox, "Dropbox", Category::kFileSharing,
       {"dropbox.com", "dropboxstatic.com", "dropboxusercontent.com"}, {}, {},
       23, 0.60, 369'068, -0.015, 0.29},
      {AppId::kSoftwareUpdates, "Software updates", Category::kSoftwareUpdates,
       {"windowsupdate.com", "swcdn.apple.com", "update.microsoft.com", "avast.com",
        "symantecliveupdate.com"}, {}, {},
       18, 0.98, 689'677, 0.36, 0.16},
      {AppId::kInstagram, "Instagram", Category::kSocial,
       {"instagram.com", "cdninstagram.com"}, {}, {},
       17, 0.96, 831'935, 0.45, 0.50},
      {AppId::kBitTorrent, "BitTorrent", Category::kP2p, {}, {6881, 6882, 6883}, {6881},
       13, 0.58, 38'294, -0.085, 0.15},
      {AppId::kSkype, "Skype", Category::kVoipConferencing,
       {"skype.com", "skypeassets.com"}, {}, {3478, 3479},
       13, 0.49, 392'878, 0.48, 0.27},
      {AppId::kMiscAudio, "Miscellaneous audio", Category::kVideoMusic, {}, {}, {},
       13, 0.97, 460'262, 0.54, 0.60},
      {AppId::kPandora, "Pandora", Category::kVideoMusic,
       {"pandora.com", "p-cdn.com"}, {}, {},
       12, 0.97, 182'753, 0.25, 0.34},
      {AppId::kRtmp, "RTMP (Adobe Flash)", Category::kOther, {}, {1935}, {},
       12, 0.96, 141'403, 0.10, 0.062},
      {AppId::kGmail, "Gmail", Category::kEmail,
       {"mail.google.com", "gmail.com"}, {}, {},
       12, 0.74, 1'337'755, 0.26, 0.42},
      {AppId::kMicrosoftCom, "microsoft.com", Category::kOther,
       {"microsoft.com", "msn.com", "live.com"}, {}, {},
       11, 0.94, 861'136, 0.15, 0.34},
      {AppId::kTumblr, "Tumblr", Category::kOther,
       {"tumblr.com", "media.tumblr.com"}, {}, {},
       11, 0.97, 270'482, 0.31, 0.21},
      {AppId::kSpotify, "Spotify", Category::kVideoMusic,
       {"spotify.com", "scdn.co"}, {4070}, {},
       11, 0.98, 209'219, 1.42, 1.15},
      {AppId::kOutlookMail, "Windows Live Hotmail and Outlook", Category::kEmail,
       {"hotmail.com", "outlook.com", "mail.live.com"}, {}, {},
       9.0, 0.64, 366'272, 2.16, 1.08},
      {AppId::kDropcam, "Dropcam", Category::kVoipConferencing,
       {"dropcam.com", "nexusapi.dropcam.com"}, {}, {},
       8.0, 0.05, 2'940, 0.72, 1.55},
      {AppId::kHulu, "Hulu", Category::kVideoMusic,
       {"hulu.com", "hulustream.com"}, {}, {},
       6.9, 0.98, 51'667, 1.02, 1.00},
      {AppId::kSteam, "Steam", Category::kGaming,
       {"steampowered.com", "steamcontent.com", "steamstatic.com"}, {27030, 27031}, {27015},
       6.6, 0.98, 21'011, 0.47, 0.45},
      {AppId::kTwitter, "Twitter", Category::kSocial,
       {"twitter.com", "twimg.com", "t.co"}, {}, {},
       6.4, 0.91, 1'925'505, 0.67, 0.34},
      {AppId::kEncryptedP2p, "Encrypted P2P", Category::kP2p, {}, {}, {},
       6.3, 0.97, 81'673, 0.17, 0.23},
      {AppId::kEncryptedTcp, "Encrypted TCP (SSL)", Category::kOther, {}, {}, {},
       6.0, 0.65, 1'441'775, 0.50, 0.49},
      {AppId::kRemoteDesktop, "Remote desktop", Category::kOther, {}, {3389, 5900}, {},
       5.5, 0.88, 93'876, 0.66, 0.13},
      {AppId::kEspn, "ESPN", Category::kSports,
       {"espn.com", "espn.go.com", "espncdn.com"}, {}, {},
       5.1, 0.98, 202'971, 1.22, 0.41},
      {AppId::kXfinityTv, "Xfinity TV", Category::kVideoMusic,
       {"xfinity.com", "comcast.net", "xfinitytv.comcast.net"}, {}, {},
       4.9, 0.98, 12'802, 0.87, 0.27},
      {AppId::kOtherWebEmail, "Other web-based email", Category::kEmail,
       {"mail.yahoo.com", "aol.com", "mail.ru"}, {}, {},
       4.7, 0.49, 277'919, -0.064, 0.23},
      {AppId::kSkydrive, "Microsoft Skydrive", Category::kFileSharing,
       {"skydrive.live.com", "onedrive.live.com", "storage.live.com"}, {}, {},
       4.4, 0.25, 269'437, -0.10, 0.12},
      // Category-only applications appearing in Table 6 / prose but not the
      // top-40 list; modeled so category rollups include them.
      {AppId::kOnlineBackup, "Online backup", Category::kOnlineBackup,
       {"backblaze.com", "crashplan.com", "carbonite.com"}, {}, {},
       2.9, 0.042, 7'576, 0.10, 0.26},
      {AppId::kBloggingApp, "Blogging", Category::kBlogging,
       {"wordpress.com", "blogger.com", "blogspot.com"}, {}, {},
       0.74, 0.97, 487'085, -0.34, -0.021},
      {AppId::kWebFileShareApp, "Web file sharing", Category::kWebFileSharing,
       {"mediafire.com", "hotfile.com", "rapidshare.com"}, {}, {},
       0.32, 0.98, 10'822, -0.27, -0.22},
      {AppId::kXboxLive, "Xbox Live", Category::kGaming,
       {"xboxlive.com", "xbox.com"}, {3074}, {3074, 88},
       4.0, 0.96, 110'000, 0.49, 0.30, true},
  };

  std::vector<AppInfo> catalog;
  catalog.resize(rows.size() + 1);  // slot 0 = kUnclassified sentinel
  catalog[0].name = "(unclassified)";
  for (const auto& r : rows) {
    AppInfo info;
    info.id = r.id;
    info.name = r.name;
    info.category = r.cat;
    info.domains = r.domains;
    info.tcp_ports = r.tcp;
    info.udp_ports = r.udp;
    info.y2015 = UsageStats{r.tb2015, r.down_frac, r.clients2015};
    info.y2014 = UsageStats{r.tb2015 / (1.0 + r.tb_increase), r.down_frac,
                            r.clients2015 / (1.0 + r.clients_increase)};
    info.reconstructed = r.reconstructed;
    const auto idx = static_cast<std::size_t>(r.id);
    assert(idx < catalog.size());
    catalog[idx] = std::move(info);
  }
  return catalog;
}

const std::vector<AppInfo>& catalog_storage() {
  static const std::vector<AppInfo> catalog = build_catalog();
  return catalog;
}

}  // namespace

std::span<const AppInfo> app_catalog() { return catalog_storage(); }

const AppInfo& app_info(AppId id) {
  const auto& catalog = catalog_storage();
  const auto idx = static_cast<std::size_t>(id);
  assert(idx < catalog.size());
  return catalog[idx];
}

}  // namespace wlm::classify
