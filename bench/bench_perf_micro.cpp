// Micro-benchmarks of the hot pipeline stages: flow classification, wire
// encode/decode, framing, medium observation, and the probe window.
//
// The custom main additionally runs the two-tier classification contrast
// (RuleIndex + VerdictCache vs the linear reference,
// RuleSet::classify(extract_metadata(...)), on the same fragment stream)
// and appends one JSON record to $WLM_CLASSIFY_BENCH_JSON
// (default ./BENCH_classify.json): flows/s for both, the speedup, the
// cache hit/miss/evict counters, and the slow-path latency histogram.
// $WLM_CLASSIFY_BENCH_FLOWS overrides the stream size.
//
// It also runs the SINR->PER table contrast (guarded table draws vs the
// scalar oracle on one decision stream, identical decisions enforced) and
// appends a record to $WLM_PER_BENCH_JSON (default ./BENCH_per.json);
// $WLM_PER_BENCH_EVALS overrides that stream size.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "backend/poller.hpp"
#include "classify/classifier.hpp"
#include "classify/rules.hpp"
#include "classify/verdict_cache.hpp"
#include "mac/medium.hpp"
#include "phy/modulation.hpp"
#include "phy/per_table.hpp"
#include "probe/window.hpp"
#include "scan/spectral.hpp"
#include "traffic/flowgen.hpp"
#include "wire/framing.hpp"
#include "wire/messages.hpp"

namespace {

using namespace wlm;

std::vector<classify::FlowSample> make_samples(std::size_t n) {
  traffic::FlowGenerator gen{Rng{42}};
  Rng rng{7};
  std::vector<classify::FlowSample> samples;
  const auto catalog = classify::app_catalog();
  traffic::GeneratedFlow flow;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& info = catalog[1 + rng.next_u64() % (catalog.size() - 1)];
    gen.make_flow_into(info.id, classify::OsType::kWindows, 1000, 9000, flow);
    samples.push_back(flow.sample);
  }
  return samples;
}

void BM_ClassifyFlow(benchmark::State& state) {
  const auto samples = make_samples(512);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify::classify_flow(samples[i++ % samples.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassifyFlow);

// The same fragment stream the fleet runtime feeds the classifier: flows
// with volume-derived fragment counts and per-flow keys.
struct FragmentStream {
  std::vector<traffic::GeneratedFlow> flows;
  std::vector<classify::FlowKey> keys;
  std::size_t fragments = 0;
};

FragmentStream make_fragment_stream(std::size_t n_flows) {
  traffic::FlowGenerator gen{Rng{2015}};
  Rng rng{99991};
  FragmentStream stream;
  const auto& catalog = classify::app_catalog();
  for (std::size_t i = 0; i < n_flows; ++i) {
    const auto& info = catalog[rng.next_u64() % catalog.size()];
    const auto os = static_cast<classify::OsType>(i % classify::kOsTypeCount);
    gen.make_flow_into(info.id, os, rng.next_u64() % (1u << 22), rng.next_u64() % (1u << 26),
                       stream.flows.emplace_back());
    const auto& flow = stream.flows.back();
    stream.keys.push_back(classify::FlowKey{
        0xB16'0000'0000ULL + i, static_cast<std::uint32_t>(i % 251), flow.dst_host,
        flow.src_port, flow.sample.dst_port,
        flow.sample.transport == classify::Transport::kUdp ? std::uint8_t{17}
                                                           : std::uint8_t{6}});
    stream.fragments += flow.fragments;
  }
  return stream;
}

std::uint64_t run_stream(classify::TwoTierClassifier& tier, const FragmentStream& stream) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < stream.flows.size(); ++i) {
    const auto& flow = stream.flows[i];
    for (std::uint16_t f = 0; f < flow.fragments; ++f) {
      acc += static_cast<std::uint64_t>(tier.classify(stream.keys[i], flow.sample));
    }
  }
  return acc;
}

/// The same stream through the linear reference: every fragment reparsed
/// and scanned against the whole rule list, no index and no cache.
std::uint64_t run_stream_reference(const FragmentStream& stream) {
  std::uint64_t acc = 0;
  for (const auto& flow : stream.flows) {
    for (std::uint16_t f = 0; f < flow.fragments; ++f) {
      acc += static_cast<std::uint64_t>(
          classify::RuleSet::standard().classify(classify::extract_metadata(flow.sample)));
    }
  }
  return acc;
}

void BM_ClassifyTwoTierIndexed(benchmark::State& state) {
  const auto stream = make_fragment_stream(512);
  for (auto _ : state) {
    classify::TwoTierClassifier tier;
    benchmark::DoNotOptimize(run_stream(tier, stream));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.fragments));
}
BENCHMARK(BM_ClassifyTwoTierIndexed);

// The JSON contrast record the CI smoke checks: one timed pass per mode
// over an identical stream, verdict checksums compared as a sanity gate.
void emit_classify_contrast() {
  std::size_t n_flows = 50'000;
  if (const char* env = std::getenv("WLM_CLASSIFY_BENCH_FLOWS")) {
    n_flows = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  const auto stream = make_fragment_stream(n_flows);

  const auto timed = [&](const auto& run) {
    const auto start = std::chrono::steady_clock::now();
    const auto checksum = run();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return std::pair<std::uint64_t, double>{checksum, static_cast<double>(ns) / 1e9};
  };

  classify::TwoTierClassifier indexed;
  const auto [sum_fast, s_fast] = timed([&] { return run_stream(indexed, stream); });
  const auto [sum_ref, s_ref] = timed([&] { return run_stream_reference(stream); });
  if (sum_fast != sum_ref) {
    std::fprintf(stderr, "bench_classify: verdict checksum mismatch (%llu != %llu)\n",
                 static_cast<unsigned long long>(sum_fast),
                 static_cast<unsigned long long>(sum_ref));
    std::exit(1);
  }

  const double fps_fast = static_cast<double>(stream.fragments) / s_fast;
  const double fps_ref = static_cast<double>(stream.fragments) / s_ref;
  const auto& stats = indexed.cache().stats();
  const auto& profile = indexed.profile();

  const char* path = std::getenv("WLM_CLASSIFY_BENCH_JSON");
  if (path == nullptr) path = "BENCH_classify.json";
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_classify: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(out,
               "{\"bench\": \"classify_two_tier\", \"flows\": %zu, \"fragments\": %zu, "
               "\"reference_fragments_per_s\": %.0f, \"indexed_fragments_per_s\": %.0f, "
               "\"speedup\": %.2f, \"cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"evictions\": %llu, \"pinned\": %llu}, "
               "\"slow_path_ns\": {\"count\": %llu, \"mean\": %.1f, \"log2_buckets\": [",
               stream.flows.size(), stream.fragments, fps_ref, fps_fast, fps_fast / fps_ref,
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses),
               static_cast<unsigned long long>(stats.evictions),
               static_cast<unsigned long long>(stats.pinned),
               static_cast<unsigned long long>(profile.count), profile.mean_ns());
  for (std::size_t b = 0; b < classify::SlowPathProfile::kBuckets; ++b) {
    std::fprintf(out, "%s%llu", b == 0 ? "" : ", ",
                 static_cast<unsigned long long>(profile.buckets[b]));
  }
  // Shared-schema fields (see bench_common rate_rss_fields): this record's
  // unit of work is one fragment classified; both engines ran the stream
  // once each, so the rate divides double the stream over both passes.
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const unsigned long long peak_rss_bytes =
      static_cast<unsigned long long>(usage.ru_maxrss) * 1024ULL;
  const double both_per_sec =
      static_cast<double>(2 * stream.fragments) / (s_fast + s_ref);
  std::fprintf(out,
               "]}, \"fragments_frames_per_sec\": %.1f, \"peak_rss_bytes\": %llu}\n",
               both_per_sec, peak_rss_bytes);
  std::fclose(out);

  std::printf("classify two-tier: %zu flows / %zu fragments\n", stream.flows.size(),
              stream.fragments);
  std::printf("  reference: %12.0f fragments/s\n", fps_ref);
  std::printf("  indexed:   %12.0f fragments/s  (%.2fx)\n", fps_fast, fps_fast / fps_ref);
  std::printf("  cache: %llu hits / %llu misses / %llu evictions, slow-path mean %.0f ns\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions), profile.mean_ns());
}

// --- SINR->PER lookup table vs the scalar oracle --------------------------

// One frame-error decision stream: (modulation, SINR, uniform draw) tuples
// shaped like the mesh-probe loop's queries (on-grid SINRs, probe payload).
struct PerStream {
  std::vector<phy::Modulation> mods;
  std::vector<double> sinrs;
  std::vector<double> draws;
};

PerStream make_per_stream(std::size_t n) {
  Rng rng{0x9E12015};
  PerStream stream;
  stream.mods.reserve(n);
  stream.sinrs.reserve(n);
  stream.draws.reserve(n);
  const auto& rates = phy::all_rates();
  for (std::size_t i = 0; i < n; ++i) {
    stream.mods.push_back(rates[rng.next_u64() % rates.size()].modulation);
    stream.sinrs.push_back(
        rng.uniform(phy::PerTable::kGridMinDb, phy::PerTable::kGridMaxDb));
    stream.draws.push_back(rng.uniform());
  }
  return stream;
}

void BM_PerScalar(benchmark::State& state) {
  const auto stream = make_per_stream(512);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto j = i++ % stream.mods.size();
    benchmark::DoNotOptimize(
        stream.draws[j] < phy::packet_error_rate(stream.mods[j], stream.sinrs[j], 60));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PerScalar);

void BM_PerTableGuarded(benchmark::State& state) {
  const auto stream = make_per_stream(512);
  const phy::PerTableSet tables(60);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto j = i++ % stream.mods.size();
    benchmark::DoNotOptimize(
        tables.table(stream.mods[j]).chance_error(stream.sinrs[j], stream.draws[j]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PerTableGuarded);

// The JSON contrast record the CI smoke gates on: same decision stream
// through both paths, identical decisions required (the guarded-exact
// contract), table speedup reported. $WLM_PER_BENCH_EVALS overrides the
// stream size; the record appends to $WLM_PER_BENCH_JSON.
void emit_per_contrast() {
  std::size_t n = 2'000'000;
  if (const char* env = std::getenv("WLM_PER_BENCH_EVALS")) {
    n = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  const auto stream = make_per_stream(n);
  const phy::PerTableSet tables(60);  // built outside the timed region

  const auto start_ref = std::chrono::steady_clock::now();
  std::uint64_t errors_ref = 0;
  for (std::size_t i = 0; i < n; ++i) {
    errors_ref += stream.draws[i] < phy::packet_error_rate(stream.mods[i],
                                                           stream.sinrs[i], 60);
  }
  const double s_ref = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                     start_ref)
                           .count();

  const auto start_tab = std::chrono::steady_clock::now();
  std::uint64_t errors_tab = 0;
  for (std::size_t i = 0; i < n; ++i) {
    errors_tab += tables.table(stream.mods[i]).chance_error(stream.sinrs[i],
                                                            stream.draws[i]);
  }
  const double s_tab = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                     start_tab)
                           .count();

  if (errors_ref != errors_tab) {
    std::fprintf(stderr, "bench_per: decision mismatch (%llu != %llu)\n",
                 static_cast<unsigned long long>(errors_ref),
                 static_cast<unsigned long long>(errors_tab));
    std::exit(1);
  }

  const double eps_ref = static_cast<double>(n) / s_ref;
  const double eps_tab = static_cast<double>(n) / s_tab;
  const char* path = std::getenv("WLM_PER_BENCH_JSON");
  if (path == nullptr) path = "BENCH_per.json";
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_per: cannot open %s\n", path);
    std::exit(1);
  }
  // Shared-schema fields (see bench_common rate_rss_fields): this bench's unit
  // of work is one frame-error decision, so the throughput field carries
  // the fast (table) path's decision rate.
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const unsigned long long peak_rss_bytes =
      static_cast<unsigned long long>(usage.ru_maxrss) * 1024ULL;
  std::fprintf(out,
               "{\"bench\": \"per_table\", \"evals\": %zu, "
               "\"reference_evals_per_s\": %.0f, \"table_evals_per_s\": %.0f, "
               "\"speedup\": %.2f, \"frame_errors\": %llu, "
               "\"fragments_frames_per_sec\": %.1f, \"peak_rss_bytes\": %llu}\n",
               n, eps_ref, eps_tab, eps_tab / eps_ref,
               static_cast<unsigned long long>(errors_tab), eps_tab,
               peak_rss_bytes);
  std::fclose(out);

  std::printf("per table: %zu guarded draws, decisions identical\n", n);
  std::printf("  scalar: %12.0f evals/s\n", eps_ref);
  std::printf("  table:  %12.0f evals/s  (%.2fx)\n", eps_tab, eps_tab / eps_ref);
}

wire::ApReport make_report(int clients) {
  wire::ApReport report;
  report.ap_id = 17;
  report.timestamp_us = 123456789;
  for (int i = 0; i < clients; ++i) {
    wire::ClientUsage u;
    u.client = MacAddress::from_u64(0x3c0754000000ULL + static_cast<std::uint64_t>(i));
    u.app_id = static_cast<std::uint32_t>(i % 40);
    u.tx_bytes = 1000 + static_cast<std::uint64_t>(i);
    u.rx_bytes = 9000 + static_cast<std::uint64_t>(i);
    report.usage.push_back(u);
  }
  // A few rows of every other sub-message kind, so their codecs are timed too.
  for (int i = 0; i < 4; ++i) {
    const auto k = static_cast<std::uint32_t>(i);
    report.utilization.push_back({static_cast<std::uint8_t>(i % 2), 36 + 4 * i,
                                  300'000'000, 75'000'000 + k, 60'000'000, 1'000'000});
    report.neighbors.push_back({MacAddress::from_u64(0x001529000000ULL + k),
                                static_cast<std::uint8_t>(i % 2), 1 + 5 * i, -70.5 - i,
                                i == 0, i == 1});
    report.links.push_back({100 + k, 1, 149, 20, 17 - k});
    report.clients.push_back({MacAddress::from_u64(0x3c0754000000ULL + k), 0x1F,
                              static_cast<std::uint8_t>(i % 2), -64.5 + i,
                              static_cast<std::uint8_t>(1 + i)});
  }
  return report;
}

void BM_WireEncode(benchmark::State& state) {
  const auto report = make_report(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_report(report));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_WireEncode)->Arg(8)->Arg(64)->Arg(512);

void BM_WireDecode(benchmark::State& state) {
  const auto bytes = wire::encode_report(make_report(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_report(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_WireDecode)->Arg(8)->Arg(64)->Arg(512);

void BM_Framing(benchmark::State& state) {
  const auto payload = wire::encode_report(make_report(64));
  for (auto _ : state) {
    std::vector<std::uint8_t> stream;
    wire::append_frame(stream, payload);
    wire::FrameWalker walker(stream);
    while (const auto frame = walker.next()) benchmark::DoNotOptimize(frame->data());
  }
}
BENCHMARK(BM_Framing);

void BM_MediumObserve(benchmark::State& state) {
  std::vector<mac::ActivitySource> sources;
  Rng rng{5};
  for (int i = 0; i < 60; ++i) {
    mac::ActivitySource s;
    s.kind = mac::SourceKind::kWifi;
    s.rx_power = PowerDbm{rng.uniform(-90.0, -50.0)};
    s.duty_cycle = rng.uniform(0.0, 0.05);
    s.plcp_decode_prob = 0.9;
    sources.push_back(s);
  }
  const mac::MediumObserver observer{PowerDbm{-95.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(observer.observe(Duration::minutes(5), sources, 0.01));
  }
}
BENCHMARK(BM_MediumObserve);

void BM_ProbeWindow(benchmark::State& state) {
  probe::SlidingDeliveryWindow window;
  SimTime t;
  Rng rng{3};
  for (auto _ : state) {
    window.record(t, rng.chance(0.7));
    t += Duration::seconds(15);
    benchmark::DoNotOptimize(window.ratio());
  }
}
BENCHMARK(BM_ProbeWindow);

void BM_Fft4096(benchmark::State& state) {
  Rng rng{11};
  std::vector<std::complex<double>> data(4096);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    auto copy = data;
    scan::fft_inplace(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Fft4096);

}  // namespace

// Custom main: the google-benchmark suite plus the two-tier JSON contrast
// (which always runs — pass --benchmark_filter=^$ to get only the record).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  emit_classify_contrast();
  emit_per_contrast();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
