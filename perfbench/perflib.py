"""The benchmark's own logic, kept free of I/O so test_perflib.py can test it.

run.py runs the wlm_perfbench binary and hands each run's JSON record to the
functions here: span self time and coverage, the tail-percentile rule,
failure arithmetic, the output checks, and the derivation of every
end-to-end and per-layer metric.
"""

import math
import statistics

MIN_COVERAGE = 0.95
# FleetRunner's profiler phases (telemetry::global_profiler()).
CAMPAIGN_PHASES = ("usage_week", "snapshot", "mr16", "mr18", "link_windows")
HARVEST_PHASES = ("harvest_drain", "harvest_merge", "incremental_harvest")
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
# A seed's input is this many fleets. Fleets of one size still differ in
# work by several percent; cycling through three of them keeps one unusual
# fleet from setting a seed's median.
FLEETS = 3
FLEET_SEED_STEP = 1000003


def fleet_seed(seed, run_index):
    """The fleet seed that untraced run `run_index` of `seed` uses: runs cycle
    through FLEETS fleets, and the first is the seed itself."""
    return seed + (run_index % FLEETS) * FLEET_SEED_STEP


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover. Children may nest or overlap each other; a
    child reaching outside its parent is clipped to the parent.

    `spans` is a list of (name, start, end, parent_index) with parent -1 for
    a root. Returns one value per span, in input order.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = [(max(start, spans[c][1]), min(end, spans[c][2])) for c in children[i]]
        result.append((end - start) - union_length(clipped))
    return result


def span_totals(spans):
    """Per span name: inclusive seconds, self seconds and call count."""
    selfs = self_times(spans)
    totals = {}
    for (name, start, end, _), self_s in zip(spans, selfs):
        t = totals.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "count": 0})
        t["total_s"] += end - start
        t["self_s"] += self_s
        t["count"] += 1
    return totals


def coverage(spans, wall_s):
    """(covered fraction, uncovered seconds) of wall_s by the layer spans,
    the direct children of the root span."""
    if wall_s <= 0:
        return 0.0, 0.0
    roots = {i for i, s in enumerate(spans) if s[3] < 0}
    covered = min(union_length([(s[1], s[2]) for s in spans if s[3] in roots]), wall_s)
    return covered / wall_s, wall_s - covered


def tail_percentile(samples):
    """The highest percentile of PERCENTILE_LADDER with at least MIN_BEYOND
    samples beyond it, as (percentile, value); None when no percentile has
    that many. The value is the nearest-rank percentile."""
    n = len(samples)
    ordered = sorted(samples)
    best = None
    for p in PERCENTILE_LADDER:
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))  # nearest rank, float-safe
        if n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def failed_frac(attempted, failed):
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def run_failures(record, reference=None, pinned=None):
    """Output checks on one run record. Returns a list of failure messages.

    `reference` is another run's signature the record must equal (the other
    runs of the same seed, or the untraced run for a traced one); `pinned`
    is the signature pinned for this workload and seed, if any.
    """
    failures = []
    if record.get("error"):
        failures.append("workload error: " + record["error"])
    checks = record["checks"]
    if checks["ledger_violations"]:
        failures.append("LossLedger not conserved on %d runner(s)" % checks["ledger_violations"])
    if checks["consumed"] != checks["delivered_final"]:
        failures.append("analyses read %d reports, ledger delivered %d"
                        % (checks["consumed"], checks["delivered_final"]))
    if checks["read_errors"]:
        failures.append("tsdb read error on %d runner(s)" % checks["read_errors"])
    if checks["reseal_mismatches"]:
        failures.append("%d resealed segment(s) differ" % checks["reseal_mismatches"])
    signature = record["signature"]
    for label, expected in (("run", reference), ("pinned", pinned)):
        if expected is not None:
            failures.extend("%s mismatch vs %s signature" % (key, label)
                            for key in signature_diff(signature, expected))
    return failures


def signature_diff(actual, expected):
    """Names of the signature parts that differ (report stream, Prometheus
    export, each render)."""
    diff = [k for k in ("reports", "prometheus") if actual.get(k) != expected.get(k)]
    names = set(actual.get("renders", {})) | set(expected.get("renders", {}))
    diff += ["render " + n for n in sorted(names)
             if actual.get("renders", {}).get(n) != expected.get("renders", {}).get(n)]
    return diff


def run_outcome(record, failures):
    """(attempted, failed) reports for one run: reports generated, and those
    not delivered. A run that fails an output check fails all its reports."""
    checks = record["checks"]
    attempted = max(checks["generated"], 1)
    failed = attempted if failures else checks["generated"] - checks["delivered"]
    return attempted, failed


def end_to_end(records):
    """The end-to-end metrics over a run's untraced records, each the median
    over its records."""
    def med(values):
        return statistics.median(values)

    metrics = {
        "wall_s": med([r["wall_s"] for r in records]),
        "setup_s": med([r["setup_s"] for r in records]),
        "reports_per_s": med([r["checks"]["delivered"] / (r["wall_s"] - r["setup_s"])
                              for r in records]),
        "peak_rss_mib": med([r["peak_rss_mib"] for r in records]),
    }
    resumes = [r["resume_s"] for r in records if r["resume_s"] is not None]
    if resumes:
        metrics["resume_s"] = med(resumes)
    return metrics


def analysis_times(totals, read_s):
    """(backend.aggregate_s, analysis.scan_s, analysis.link_study_s) from
    the span totals of one traced run and its replayed tsdb read.

    The study entry points' own code is the self time of their spans:
    everything but the wrapped calls into lower layers. run_link_study's is
    the link-study loop. The others' is the radio analyses' report scans,
    plus freeing each fleet. Every workload reads its reports either all
    through UsageAggregator::consume (usage, streaming) or all in the
    studies' own scans (radio), so the read is taken from whichever did the
    reading."""
    consume_s = totals.get("backend.consume", {}).get("total_s", 0.0)
    link_s = totals.get("analysis.run_link_study", {}).get("self_s", 0.0)
    studies_s = sum(t["self_s"] for name, t in totals.items()
                    if name.startswith("analysis.run_")) - link_s
    if consume_s > 0:
        return max(0.0, consume_s - read_s), studies_s, link_s
    return 0.0, max(0.0, studies_s - read_s), link_s


def per_layer(traced, untraced, attempted, failed):
    """The per-layer metrics of one traced record, with the untraced record
    of the same workload and seed as the base for the tracing overhead, and
    the invocation's attempted and failed reports for failed_frac."""
    layers = traced["layers"]
    phases = traced["phases"]
    totals = span_totals(traced["spans"])
    cov, other_s = coverage(traced["spans"], traced["wall_s"])
    aggregate_s, scan_s, link_study_s = analysis_times(totals, layers["tsdb.read_s"])

    def span_s(name):
        return totals.get(name, {}).get("total_s", 0.0)

    lookups = layers["classify.lookups"]
    segment_bytes = layers["tsdb.segment_bytes"]
    metrics = {
        "deploy.generate_s": layers["deploy.generate_s"],
        "sim.build_s": layers["sim.build_s"],
        "sim.usage_week_s": phases.get("usage_week", 0.0),
        "traffic.fragments": layers["traffic.fragments"],
        "classify.slow_path_calls": layers["classify.slow_path_calls"],
        "classify.slow_path_cpu_s": layers["classify.slow_path_cpu_s"],
        "classify.lookups": lookups,
        "classify.cache_hit_ratio": layers["classify.cache_hits"] / lookups if lookups else 0.0,
        "sim.mr16_s": phases.get("mr16", 0.0),
        "sim.mr18_s": phases.get("mr18", 0.0),
        "sim.link_windows_s": phases.get("link_windows", 0.0),
        "analysis.link_study_s": link_study_s,
        "sim.harvest_drain_s": phases.get("harvest_drain", 0.0),
        "sim.harvest_merge_s": phases.get("harvest_merge", 0.0),
        "sim.incremental_harvest_s": phases.get("incremental_harvest", 0.0),
        "sim.harvest_s": sum(phases.get(p, 0.0) for p in HARVEST_PHASES),
        "sim.campaigns_s": sum(phases.get(p, 0.0) for p in CAMPAIGN_PHASES),
        "tsdb.seal_replay_s": layers["tsdb.seal_replay_s"],
        "tsdb.segments": layers["tsdb.segments"],
        "tsdb.segment_bytes": segment_bytes,
        "tsdb.raw_wire_bytes": layers["tsdb.raw_wire_bytes"],
        "tsdb.compression_ratio":
            layers["tsdb.raw_wire_bytes"] / segment_bytes if segment_bytes else 0.0,
        "tsdb.read_s": layers["tsdb.read_s"],
        "backend.aggregate_s": aggregate_s,
        "analysis.scan_s": scan_s,
        "analysis.compute_s": aggregate_s + scan_s + link_study_s,
        "analysis.render_s": span_s("analysis.render"),
        "wire.frames": layers["wire.frames"],
        "wire.bytes_per_ap": layers["wire.bytes_per_ap"],
        "backend.reports_delivered": layers["backend.reports_delivered"],
        "ckpt.save_s": span_s("ckpt.save_campaign"),
        "ckpt.restore_s": span_s("ckpt.restore_campaign"),
        "ckpt.bytes": layers["ckpt.bytes"],
        "tsdb.segments_spilled": layers["tsdb.segments_spilled"],
        "tsdb.spilled_bytes": layers["tsdb.spilled_bytes"],
        "resume_s": traced["resume_s"] if traced["resume_s"] is not None else 0.0,
        "failed_frac": failed_frac(attempted, failed),
        "other_s": other_s,
        "trace.coverage": cov,
        "trace.wall_s": traced["wall_s"],
        "trace.base_wall_s": untraced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    return metrics
