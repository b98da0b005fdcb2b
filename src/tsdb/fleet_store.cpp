#include "tsdb/fleet_store.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fcntl.h>
#include <mutex>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "ckpt/container.hpp"

namespace wlm::tsdb {

FleetStore::Sealed FleetStore::seal(std::uint32_t network_id, std::uint32_t batch_seq,
                                    backend::ReportStore&& store) {
  Sealed out;
  if (store.report_count() == 0) return out;
  SegmentWriter writer(network_id, batch_seq);
  store.for_each([&writer](const wire::ApReport& r) { writer.add(r); });
  store = backend::ReportStore{};
  out.network_id = network_id;
  out.batch_seq = batch_seq;
  out.n_reports = writer.report_count();
  out.raw_wire_bytes = writer.raw_wire_bytes();
  out.ap_ids = writer.ap_ids();
  out.bytes = writer.seal();
  return out;
}

std::uint32_t FleetStore::next_batch_seq(std::uint32_t network_id) const {
  const auto it = networks_.find(network_id);
  return it == networks_.end() ? 0 : it->second.next_batch_seq;
}

void FleetStore::append_store(std::uint32_t network_id, backend::ReportStore&& store) {
  add_sealed(seal(network_id, next_batch_seq(network_id), std::move(store)));
}

Error FleetStore::adopt_segment(std::span<const std::uint8_t> bytes) {
  SegmentHeader hdr;
  Sealed sealed;
  if (auto err = SegmentReader::validate(bytes, &hdr, &sealed.ap_ids)) return err;
  sealed.network_id = hdr.network_id;
  sealed.batch_seq = hdr.batch_seq;
  sealed.n_reports = hdr.n_reports;
  sealed.raw_wire_bytes = hdr.raw_wire_bytes;
  sealed.bytes.assign(bytes.begin(), bytes.end());
  add_sealed(std::move(sealed));
  return {};
}

void FleetStore::add_sealed(Sealed&& sealed) {
  if (sealed.bytes.empty()) return;
  Network& net = networks_[sealed.network_id];
  net.next_batch_seq = std::max(net.next_batch_seq, sealed.batch_seq + 1);
  net.segment_idx.push_back(segments_.size());
  net.reports += sealed.n_reports;
  std::vector<std::uint32_t> merged;
  merged.reserve(net.ap_ids.size() + sealed.ap_ids.size());
  std::set_union(net.ap_ids.begin(), net.ap_ids.end(), sealed.ap_ids.begin(),
                 sealed.ap_ids.end(), std::back_inserter(merged));
  net.ap_ids = std::move(merged);
  Segment seg;
  seg.network_id = sealed.network_id;
  seg.batch_seq = sealed.batch_seq;
  seg.n_reports = sealed.n_reports;
  seg.raw_wire_bytes = sealed.raw_wire_bytes;
  seg.size = sealed.bytes.size();
  seg.bytes = std::move(sealed.bytes);
  stats_.segments_sealed += 1;
  stats_.resident_bytes += seg.size;
  stats_.raw_wire_bytes += seg.raw_wire_bytes;
  stats_.reports += seg.n_reports;
  segments_.push_back(std::move(seg));
}

void FleetStore::drop_network(std::uint32_t network_id) {
  const auto it = networks_.find(network_id);
  if (it == networks_.end()) return;
  for (const std::size_t i : it->second.segment_idx) {
    Segment& seg = segments_[i];
    stats_.segments_sealed -= 1;
    stats_.raw_wire_bytes -= seg.raw_wire_bytes;
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
    seg.raw_wire_bytes = 0;
    seg.size = 0;
  }
  networks_.erase(it);
}

Error FleetStore::maybe_spill() {
  if (mem_ceiling_bytes_ == 0) return {};
  // Sealed segments get a quarter of the ceiling; the live shards still
  // simulating own the rest.
  if (stats_.resident_bytes <= mem_ceiling_bytes_ / 4) return {};

  // The container is sized from the resident segments before any is
  // framed, so it is allocated once instead of growing by doubling.
  std::vector<std::size_t> resident;
  std::size_t framed = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].spill_file.empty() && !segments_[i].bytes.empty()) {
      resident.push_back(i);
      framed += ckpt::Writer::framed_size(ckpt::SectionTag::kTsdbSegments, segments_[i].size);
    }
  }
  if (resident.empty()) return {};

  char name[64];
  std::snprintf(name, sizeof name, "tsdb_spill_%06llu.ckpt",
                static_cast<unsigned long long>(next_spill_seq_));
  ::mkdir(spill_dir_.c_str(), 0777);  // best effort; the write below reports failures
  const std::string path = spill_dir_ + "/" + name;

  ckpt::Writer writer;
  writer.reserve(framed);
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

FleetStore::SegmentInfo FleetStore::info(std::size_t i) const {
  const Segment& seg = segments_[i];
  return SegmentInfo{seg.network_id, seg.batch_seq, seg.n_reports, seg.size,
                     !seg.spill_file.empty()};
}

/// The spill files of one read pass. Each is opened on first use and read
/// with pread, so the pass's decode threads share one descriptor per file
/// instead of opening the file once per segment.
class FleetStore::SpillHandles {
 public:
  SpillHandles() = default;
  SpillHandles(const SpillHandles&) = delete;
  SpillHandles& operator=(const SpillHandles&) = delete;
  ~SpillHandles() {
    for (const auto& [path, fd] : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  /// The descriptor of `path`, or -1 when it cannot be opened.
  int open(const std::string& path) {
    const std::lock_guard lock(mu_);
    const auto [it, inserted] = fds_.try_emplace(path, -1);
    if (inserted) it->second = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    return it->second;
  }

 private:
  std::mutex mu_;
  std::map<std::string, int> fds_;  // -1: the open failed
};

Error FleetStore::segment_bytes(std::size_t i, std::vector<std::uint8_t>& out) const {
  const Segment& seg = segments_[i];
  if (seg.spill_file.empty()) {
    out = seg.bytes;
    return {};
  }
  SpillHandles files;
  return load_spilled(seg, files, out);
}

Error FleetStore::for_each_segment(
    const std::function<void(std::size_t, std::span<const std::uint8_t>)>& fn) const {
  SpillHandles files;
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seg.size == 0) continue;
    if (seg.spill_file.empty()) {
      fn(i, seg.bytes);
      continue;
    }
    if (auto err = load_spilled(seg, files, scratch)) return err;
    fn(i, scratch);
  }
  return {};
}

Error FleetStore::load_spilled(const Segment& seg, SpillHandles& files,
                               std::vector<std::uint8_t>& out) {
  const int fd = files.open(seg.spill_file);
  if (fd < 0) return {Status::kIo, "cannot open spill file " + seg.spill_file};
  out.resize(seg.size);
  // pread takes a 64-bit off_t: spill files at paper scale run past 2 GiB.
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + got, out.size() - got,
                              static_cast<off_t>(seg.spill_offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (got != out.size()) {
    return {Status::kIo, "short read from spill file " + seg.spill_file};
  }
  // The segment guards itself (block CRCs + trailer CRC); a stale or
  // corrupt spill range cannot decode silently.
  return {};
}

Error FleetStore::materialize(const Network& net, SpillHandles& files,
                              backend::ReportStore& out) const {
  std::vector<std::uint8_t> scratch;
  for (const std::size_t i : net.segment_idx) {
    const Segment& seg = segments_[i];
    if (seg.n_reports == 0) continue;
    std::span<const std::uint8_t> bytes = seg.bytes;
    if (!seg.spill_file.empty()) {
      if (auto err = load_spilled(seg, files, scratch)) return err;
      bytes = scratch;
    }
    if (auto err = SegmentReader::for_each(
            bytes, [&out](wire::ApReport&& r) { out.add(std::move(r)); })) {
      return err;
    }
  }
  return {};
}

namespace {

/// One network's place in the read-ahead window.
struct Decoded {
  backend::ReportStore store;
  Error err;
  std::exception_ptr thrown;  // a helper's exception, rethrown by the caller
  bool ready = false;         // set under the window's lock
};

}  // namespace

void FleetStore::visit(const std::function<void(const backend::ReportStore&)>& deliver) const {
  std::vector<const Network*> nets;
  nets.reserve(networks_.size());
  for (const auto& [id, net] : networks_) nets.push_back(&net);
  const std::size_t helpers =
      std::min(static_cast<std::size_t>(read_threads_ - 1), nets.empty() ? 0 : nets.size() - 1);
  // Network i decodes into slot i % window, which is free once network
  // i - window has been delivered; so at most `window` decoded networks
  // exist at a time.
  const std::size_t window = 8 * (helpers + 1);
  std::vector<Decoded> slots(window);
  SpillHandles files;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t next_claim = 0;      // first network nobody has started decoding
  std::size_t next_delivery = 0;   // first network not yet delivered
  bool stop = false;

  const auto helper = [&] {
    std::unique_lock lock(mu);
    while (true) {
      cv.wait(lock, [&] {
        return stop || next_claim >= nets.size() || next_claim < next_delivery + window;
      });
      if (stop || next_claim >= nets.size()) return;
      const std::size_t i = next_claim++;
      lock.unlock();
      Decoded& slot = slots[i % window];
      try {
        slot.err = materialize(*nets[i], files, slot.store);
      } catch (...) {
        slot.thrown = std::current_exception();
      }
      lock.lock();
      slot.ready = true;
      cv.notify_all();
    }
  };

  // Joins every helper on any way out of this function, the callback's
  // exceptions included, before the state they share goes away.
  std::vector<std::thread> pool;
  struct Joiner {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& stop;
    std::vector<std::thread>& pool;
    ~Joiner() {
      {
        const std::lock_guard lock(mu);
        stop = true;
      }
      cv.notify_all();
      for (auto& t : pool) t.join();
    }
  } joiner{mu, cv, stop, pool};
  pool.reserve(helpers);
  for (std::size_t t = 0; t < helpers; ++t) pool.emplace_back(helper);

  for (std::size_t i = 0; i < nets.size(); ++i) {
    Decoded& slot = slots[i % window];
    {
      std::unique_lock lock(mu);
      if (next_claim == i) {
        // No helper got to it yet: decode it here rather than wait.
        ++next_claim;
        lock.unlock();
        slot.err = materialize(*nets[i], files, slot.store);
      } else {
        cv.wait(lock, [&] { return slot.ready; });
      }
    }
    if (slot.thrown) std::rethrow_exception(slot.thrown);
    if (slot.err) {
      if (last_error_.ok()) last_error_ = slot.err;
      return;
    }
    deliver(slot.store);
    slot = {};
    {
      const std::lock_guard lock(mu);
      next_delivery = i + 1;
    }
    cv.notify_all();
  }
}

std::size_t FleetStore::ap_count() const {
  std::size_t n = 0;
  for (const auto& [id, net] : networks_) n += net.ap_ids.size();
  return n;
}

void FleetStore::for_each(const std::function<void(const wire::ApReport&)>& fn) const {
  visit([&fn](const backend::ReportStore& scratch) { scratch.for_each(fn); });
}

void FleetStore::for_each_in(SimTime from, SimTime to,
                             const std::function<void(const wire::ApReport&)>& fn) const {
  visit([&](const backend::ReportStore& scratch) { scratch.for_each_in(from, to, fn); });
}

}  // namespace wlm::tsdb
