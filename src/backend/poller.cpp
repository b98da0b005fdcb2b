#include "backend/poller.hpp"

#include <algorithm>

#include "failsafe/failpoint.hpp"
#include "telemetry/profile.hpp"
#include "wire/encoder.hpp"
#include "wire/framing.hpp"

namespace wlm::backend {

void Poller::attach(Tunnel& tunnel) {
  tunnels_.push_back(&tunnel);
  TunnelCounters counters;
  counters.ap = tunnel.ap();
  counters_.push_back(counters);
}

void Poller::bind_telemetry(telemetry::MetricsRegistry* metrics,
                            telemetry::FlightRecorder* recorder) {
  metrics_ = metrics;
  recorder_ = recorder;
}

void Poller::poll_all(std::size_t per_tunnel_budget, bool ignore_backoff) {
  // Supervision trigger site: a poll cycle is where a real collector talks
  // to the outside world, so it is where injected crashes/stalls land.
  failsafe::failpoint("poller.poll");
  std::uint64_t cycle_frames = 0;
  for (std::size_t i = 0; i < tunnels_.size(); ++i) {
    Tunnel* tunnel = tunnels_[i];
    TunnelCounters& tc = counters_[i];
    if (!ignore_backoff && tc.backoff_remaining > 0) {
      --tc.backoff_remaining;
      ++tc.cycles_backed_off;
      ++stats_.polls_skipped_backoff;
      if (metrics_) metrics_->counter("wlm_poller_polls_skipped_backoff_total").inc();
      continue;
    }
    const auto frames = tunnel->poll(per_tunnel_budget);
    cycle_frames += frames.size();
    bool saw_corrupt = false;
    for (const auto& frame : frames) {
      ++tc.frames_polled;
      // Walk the frame in place: report payloads are parsed straight out of
      // the polled buffer, so a clean harvest copies no payload bytes.
      wire::FrameWalker walker(frame);
      while (const auto payload = walker.next()) {
        if (auto report = wire::decode_report(*payload)) {
          store_->add(std::move(*report));
          ++stats_.reports_stored;
          ++tc.reports_stored;
          if (metrics_) metrics_->counter("wlm_poller_reports_stored_total").inc();
        } else {
          ++stats_.malformed_reports;
          ++tc.malformed_reports;
          saw_corrupt = true;
          if (metrics_) metrics_->counter("wlm_poller_malformed_reports_total").inc();
        }
      }
      if (walker.corrupt_frames() > 0) {
        stats_.corrupt_frames += walker.corrupt_frames();
        tc.corrupt_frames += walker.corrupt_frames();
        saw_corrupt = true;
        if (metrics_) {
          metrics_->counter("wlm_poller_corrupt_frames_total").inc(walker.corrupt_frames());
          // Per-tunnel attribution only for tunnels that actually misbehave,
          // so metric cardinality stays proportional to trouble, not fleet
          // size.
          metrics_->counter("wlm_poller_tunnel_corrupt_total", tc.ap.value())
              .inc(walker.corrupt_frames());
        }
      } else {
        // Only cleanly framed data counts as harvested; a frame that failed
        // its CRC delivered nothing.
        ++stats_.frames_harvested;
        stats_.bytes_harvested += frame.size();
        telemetry::work_tally().frames.fetch_add(1, std::memory_order_relaxed);
        if (metrics_) {
          metrics_->counter("wlm_poller_frames_harvested_total").inc();
          metrics_->counter("wlm_poller_bytes_harvested_total").inc(frame.size());
        }
      }
    }
    if (metrics_ && !frames.empty()) {
      metrics_->counter("wlm_poller_frames_polled_total").inc(frames.size());
    }
    if (saw_corrupt) {
      const bool was_quarantined = tc.quarantined;
      tc.backoff_level = std::min(tc.backoff_level + 1, kMaxBackoffLevel);
      tc.backoff_remaining = (1 << tc.backoff_level) - 1;
      tc.quarantined = tc.backoff_level >= kQuarantineBackoffLevel;
      if (metrics_) {
        metrics_->gauge("wlm_poller_backoff_level", tc.ap.value())
            .set(static_cast<double>(tc.backoff_level));
        metrics_->gauge("wlm_poller_quarantined", tc.ap.value())
            .set(tc.quarantined ? 1.0 : 0.0);
      }
      if (recorder_ && tc.quarantined && !was_quarantined) {
        recorder_->record({telemetry::SpanKind::kQuarantine, tc.ap.value(), now_us_,
                           now_us_, static_cast<std::uint64_t>(tc.backoff_level)});
      }
    } else if (!frames.empty()) {
      // A clean poll proves the device recovered; stop punishing it.
      const bool was_backed_off = tc.backoff_level > 0;
      tc.backoff_level = 0;
      tc.backoff_remaining = 0;
      tc.quarantined = false;
      if (metrics_ && was_backed_off) {
        metrics_->gauge("wlm_poller_backoff_level", tc.ap.value()).set(0.0);
        metrics_->gauge("wlm_poller_quarantined", tc.ap.value()).set(0.0);
      }
    }
  }
  if (metrics_) {
    metrics_->counter("wlm_poller_poll_cycles_total").inc();
    metrics_
        ->histogram("wlm_poller_frames_per_poll",
                    {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
        .observe(static_cast<double>(cycle_frames));
  }
  if (recorder_) {
    recorder_->record(
        {telemetry::SpanKind::kPoll, 0, now_us_, now_us_, cycle_frames});
  }
}

bool Poller::restore(const PollerStats& stats, const std::vector<TunnelCounters>& counters,
                     std::int64_t now_us) {
  if (counters.size() != tunnels_.size()) return false;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (counters[i].ap != tunnels_[i]->ap()) return false;
  }
  stats_ = stats;
  counters_ = counters;
  now_us_ = now_us;
  return true;
}

const TunnelCounters* Poller::counters_for(ApId ap) const {
  for (const auto& tc : counters_) {
    if (tc.ap == ap) return &tc;
  }
  return nullptr;
}

std::vector<std::uint8_t> frame_report(const wire::ApReport& report) {
  // Thread-local scratch: the encoder's buffer capacity survives across the
  // millions of reports a shard frames, and each worker thread owns its own
  // scratch so parallel shards never contend.
  thread_local wire::Encoder encoder;
  wire::encode_report_into(report, encoder);
  std::vector<std::uint8_t> framed;
  framed.reserve(encoder.size() + wire::frame_overhead(encoder.size()));
  wire::append_frame(framed, encoder.bytes());
  return framed;
}

}  // namespace wlm::backend
