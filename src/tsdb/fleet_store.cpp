#include "tsdb/fleet_store.hpp"

#include <algorithm>
#include <cstdio>
#include <sys/stat.h>

#include "ckpt/container.hpp"

namespace wlm::tsdb {

void FleetStore::append_store(std::uint32_t network_id, backend::ReportStore&& store) {
  if (store.report_count() == 0) return;
  Network& net = networks_[network_id];
  SegmentWriter writer(network_id, net.next_batch_seq);
  store.for_each([&writer](const wire::ApReport& r) { writer.add(r); });
  const std::vector<std::uint32_t> seg_aps = writer.ap_ids();
  Segment seg;
  seg.network_id = network_id;
  seg.batch_seq = net.next_batch_seq;
  seg.n_reports = writer.report_count();
  stats_.raw_wire_bytes += writer.raw_wire_bytes();
  seg.bytes = writer.seal();
  seg.size = seg.bytes.size();
  index_segment(std::move(seg), seg_aps);
  store = backend::ReportStore{};
}

Error FleetStore::adopt_segment(std::vector<std::uint8_t> bytes) {
  if (auto err = SegmentReader::validate(bytes)) return err;
  SegmentHeader hdr;
  if (auto err = SegmentReader::read_header(bytes, hdr)) return err;
  std::vector<std::uint32_t> seg_aps;
  if (auto err = SegmentReader::ap_ids(bytes, seg_aps)) return err;
  Segment seg;
  seg.network_id = hdr.network_id;
  seg.batch_seq = hdr.batch_seq;
  seg.n_reports = hdr.n_reports;
  seg.size = bytes.size();
  seg.bytes = std::move(bytes);
  stats_.raw_wire_bytes += hdr.raw_wire_bytes;
  index_segment(std::move(seg), seg_aps);
  return {};
}

void FleetStore::index_segment(Segment seg, const std::vector<std::uint32_t>& seg_aps) {
  Network& net = networks_[seg.network_id];
  net.next_batch_seq = std::max(net.next_batch_seq, seg.batch_seq + 1);
  net.segment_idx.push_back(segments_.size());
  net.reports += seg.n_reports;
  std::vector<std::uint32_t> merged;
  merged.reserve(net.ap_ids.size() + seg_aps.size());
  std::set_union(net.ap_ids.begin(), net.ap_ids.end(), seg_aps.begin(), seg_aps.end(),
                 std::back_inserter(merged));
  net.ap_ids = std::move(merged);
  stats_.segments_sealed += 1;
  stats_.resident_bytes += seg.size;
  stats_.reports += seg.n_reports;
  segments_.push_back(std::move(seg));
}

void FleetStore::drop_network(std::uint32_t network_id) {
  const auto it = networks_.find(network_id);
  if (it == networks_.end()) return;
  for (const std::size_t i : it->second.segment_idx) {
    Segment& seg = segments_[i];
    stats_.reports -= seg.n_reports;
    if (seg.spill_file.empty()) {
      stats_.resident_bytes -= seg.size;
    } else {
      stats_.spilled_bytes -= seg.size;
    }
    // The segment record stays (spill offsets of later segments must not
    // shift) but is orphaned: no network indexes it any more.
    seg.bytes = {};
    seg.n_reports = 0;
    seg.size = 0;
  }
  networks_.erase(it);
}

Error FleetStore::maybe_spill() {
  if (mem_ceiling_bytes_ == 0) return {};
  // Sealed segments get a quarter of the ceiling; the live shards still
  // simulating own the rest.
  if (stats_.resident_bytes <= mem_ceiling_bytes_ / 4) return {};

  std::vector<std::size_t> resident;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].spill_file.empty() && !segments_[i].bytes.empty()) resident.push_back(i);
  }
  if (resident.empty()) return {};

  char name[64];
  std::snprintf(name, sizeof name, "tsdb_spill_%06llu.ckpt",
                static_cast<unsigned long long>(next_spill_seq_));
  ::mkdir(spill_dir_.c_str(), 0777);  // best effort; the write below reports failures
  const std::string path = spill_dir_ + "/" + name;

  ckpt::Writer writer;
  for (const std::size_t i : resident) {
    writer.add_section(ckpt::SectionTag::kTsdbSegments, segments_[i].bytes);
  }
  std::vector<std::uint64_t> offsets;
  const std::vector<std::uint8_t> container = writer.finish(&offsets);
  if (const auto err = ckpt::write_file_atomic(path, container)) {
    return {Status::kIo, err.detail};
  }

  for (std::size_t k = 0; k < resident.size(); ++k) {
    Segment& seg = segments_[resident[k]];
    seg.spill_file = path;
    seg.spill_offset = offsets[k];
    seg.bytes = {};
    stats_.resident_bytes -= seg.size;
    stats_.spilled_bytes += seg.size;
    stats_.segments_spilled += 1;
  }
  stats_.spill_files += 1;
  next_spill_seq_ += 1;
  return {};
}

void FleetStore::clear() {
  segments_.clear();
  networks_.clear();
  stats_ = {};
  next_spill_seq_ = 0;
  last_error_ = {};
}

FleetStore::SegmentInfo FleetStore::info(std::size_t i) const {
  const Segment& seg = segments_[i];
  return SegmentInfo{seg.network_id, seg.batch_seq, seg.n_reports, seg.size,
                     !seg.spill_file.empty()};
}

Error FleetStore::segment_bytes(std::size_t i, std::vector<std::uint8_t>& out) const {
  return load_segment(segments_[i], out);
}

Error FleetStore::load_segment(const Segment& seg, std::vector<std::uint8_t>& out) const {
  if (seg.spill_file.empty()) {
    out = seg.bytes;
    return {};
  }
  std::FILE* f = std::fopen(seg.spill_file.c_str(), "rb");
  if (f == nullptr) return {Status::kIo, "cannot open spill file " + seg.spill_file};
  out.resize(seg.size);
  // fseeko, not fseek: spill files at paper scale run past 2 GiB, where a
  // `long` offset truncates on 32-bit/LLP64 targets.
  const bool sought = ::fseeko(f, static_cast<off_t>(seg.spill_offset), SEEK_SET) == 0;
  const std::size_t got = sought ? std::fread(out.data(), 1, out.size(), f) : 0;
  std::fclose(f);
  if (got != out.size()) {
    return {Status::kIo, "short read from spill file " + seg.spill_file};
  }
  // The segment guards itself (block CRCs + trailer CRC); a stale or
  // corrupt spill range cannot decode silently.
  return {};
}

bool FleetStore::materialize(const Network& net, backend::ReportStore& out) const {
  std::vector<std::uint8_t> scratch;
  for (const std::size_t i : net.segment_idx) {
    const Segment& seg = segments_[i];
    if (seg.n_reports == 0) continue;
    std::span<const std::uint8_t> bytes = seg.bytes;
    if (!seg.spill_file.empty()) {
      if (auto err = load_segment(seg, scratch)) {
        if (last_error_.ok()) last_error_ = err;
        return false;
      }
      bytes = scratch;
    }
    const auto err =
        SegmentReader::for_each(bytes, [&out](wire::ApReport&& r) { out.add(std::move(r)); });
    if (err.status != Status::kOk) {
      if (last_error_.ok()) last_error_ = err;
      return false;
    }
  }
  return true;
}

std::size_t FleetStore::ap_count() const {
  std::size_t n = 0;
  for (const auto& [id, net] : networks_) n += net.ap_ids.size();
  return n;
}

void FleetStore::for_each(const std::function<void(const wire::ApReport&)>& fn) const {
  for (const auto& [id, net] : networks_) {
    backend::ReportStore scratch;
    if (!materialize(net, scratch)) return;
    scratch.for_each(fn);
  }
}

void FleetStore::for_each_in(SimTime from, SimTime to,
                             const std::function<void(const wire::ApReport&)>& fn) const {
  for (const auto& [id, net] : networks_) {
    backend::ReportStore scratch;
    if (!materialize(net, scratch)) return;
    scratch.for_each_in(from, to, fn);
  }
}

void FleetStore::for_each_ap(
    const std::function<void(ApId, const std::vector<wire::ApReport>&)>& fn) const {
  for (const auto& [id, net] : networks_) {
    backend::ReportStore scratch;
    if (!materialize(net, scratch)) return;
    scratch.for_each_ap(fn);
  }
}

}  // namespace wlm::tsdb
