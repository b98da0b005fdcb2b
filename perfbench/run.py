#!/usr/bin/env python3
"""Runs one workload of the wlm benchmark and prints its metrics.

    python3 perfbench/run.py --workload usage|radio|streaming [--seed 2015]
                             [--seconds 40] [--trace 0|1]

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the wlm libraries from src/ plus the wlm_perfbench binary) under
.bench_build/; later runs rebuild only what changed.

--trace 0 runs the workload again and again, one process per run, for about
--seconds seconds but at least once on each of the seed's three fleets, and
reports the median of each end-to-end metric over all runs.
--trace 1 runs the seed's first fleet once untraced and once traced, and
reports the per-layer metrics. Either way every metric is printed by name with its unit, and the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
check passed. README.md describes the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import perflib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("usage", "radio", "streaming")
RUN_TIMEOUT_S = 170
# One run on each of the seed's fleets. Three runs also let the median drop
# one slow run.
MIN_RUNS = perflib.FLEETS
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds wlm_perfbench; returns its path, or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no wlm sources under %s/src; run from a wlm checkout" % ROOT)
        return None
    build_dir = BUILD / "perfbench"
    commands = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    commands.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)])
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(command))
            return None
    return build_dir / "wlm_perfbench"


def run_once(binary, workload, seed, traced, index):
    """Runs the workload once on the fleet of `seed`, in its own process;
    returns its record, or None when the process wrote none."""
    run_dir = BUILD / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    tag = "%s-%d-%d-%d" % (workload, seed, os.getpid(), index)
    out = run_dir / (tag + ".json")
    spill = run_dir / (tag + "-spill")
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0", "--out", str(out), "--spill-dir", str(spill)]
    try:
        subprocess.run(command, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        return json.loads(out.read_text()) if out.is_file() else None
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out after %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(spill, ignore_errors=True)
        out.unlink(missing_ok=True)


def pinned_signature(workload, record):
    """The signature pinned for this workload, when the record ran the
    pinned seed at the pinned scale."""
    pinned = json.loads((HERE / "pinned.json").read_text())
    host = record["host"]
    if host["seed"] != pinned["seed"] or host["networks"] != pinned["networks"]:
        return None
    return pinned["signatures"][workload]


def describe_host(host):
    build_type = host["build_type"]
    line = ("host: nproc=%d build_type=%s compiler=%s workload=%s seed=%d workers=%d "
            "networks=%d" % (host["nproc"], build_type, host["compiler"], host["workload"],
                             host["seed"], host["workers"], host["networks"]))
    print(line)
    if not host["optimized"] or build_type not in OPTIMISED_BUILD_TYPES:
        warning = "warning: %s build is not optimised; timings do not represent wlm" % build_type
        print(warning)
        log("perfbench: " + warning)


def check_records(workload, records):
    """Checks every run; returns (failure messages, attempted, failed).
    Every run of a fleet must sign the same outputs as its first run."""
    messages = []
    attempted = failed = 0
    references = {}
    for i, record in enumerate(records):
        if record is None:
            messages.append("run %d: no record" % i)
            attempted += 1
            failed += 1
            continue
        seed = record["host"]["seed"]
        failures = perflib.run_failures(record, references.get(seed),
                                        pinned_signature(workload, record))
        references.setdefault(seed, record["signature"])
        a, f = perflib.run_outcome(record, failures)
        attempted += a
        failed += f
        messages += ["run %d: %s" % (i, m) for m in failures]
    return messages, attempted, failed


def print_samples(name, samples, unit):
    tail = perflib.tail_percentile(samples)
    tail_text = ("p%g=%.6g %s" % (tail[0], tail[1], unit) if tail else
                 "no percentile has %d samples beyond it" % perflib.MIN_BEYOND)
    print("  %s samples: n=%d, median %.6g %s, %s"
          % (name, len(samples), statistics.median(samples), unit, tail_text))


def print_end_to_end(records, units, attempted, failed):
    metrics = perflib.end_to_end(records)
    for name, value in metrics.items():
        print("%s: %.6g %s" % (name, value, units.get(name, "s")))
    print_samples("wall_s", [r["wall_s"] for r in records], "s")
    print_samples("setup_s", [r["setup_s"] for r in records], "s")
    print("failed_frac: %.6g (%d of %d reports failed)"
          % (perflib.failed_frac(attempted, failed), failed, attempted))
    return metrics


def print_layers(layers, traced, units):
    for name, value in layers.items():
        # Layer times kept out of the result line have no entry in units.
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print("%s: %.6g %s" % (name, value, unit))
    print("spans (name, calls, inclusive s, self s):")
    for name, t in perflib.span_totals(traced["spans"]).items():
        print("  %-28s %4d %10.4f %10.4f" % (name, t["count"], t["total_s"], t["self_s"]))


def write_trace(workload, seed, traced, layers):
    """Keeps the traced run's spans (with self times) for later reading."""
    spans = traced["spans"]
    selfs = perflib.self_times(spans)
    trace = {
        "host": traced["host"],
        "layers": layers,
        "spans": [{"name": n, "start_s": s, "end_s": e, "parent": p, "self_s": self_s}
                  for (n, s, e, p), self_s in zip(spans, selfs)],
    }
    path = BUILD / "runs" / ("%s-%d-trace.json" % (workload, seed))
    path.write_text(json.dumps(trace, indent=1) + "\n")
    print("trace: %s" % path.relative_to(ROOT))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    binary = build()
    if binary is None:
        return 2

    started = time.monotonic()
    if args.trace:
        records = [run_once(binary, args.workload, args.seed, False, 0),
                   run_once(binary, args.workload, args.seed, True, 1)]
    else:
        records = []
        while True:
            i = len(records)
            records.append(run_once(binary, args.workload, perflib.fleet_seed(args.seed, i),
                                    False, i))
            elapsed = time.monotonic() - started
            if records[-1] is None or (len(records) >= MIN_RUNS
                                       and elapsed + elapsed / len(records) > args.seconds):
                break
    print("runs: %d in %.1f s, one process each" % (len(records), time.monotonic() - started))
    fleets = sorted({r["host"]["seed"] for r in records if r is not None})
    print("fleet seeds: %s" % ", ".join(str(s) for s in fleets))

    messages, attempted, failed = check_records(args.workload, records)
    metrics = {}
    if all(r is not None for r in records):
        describe_host(records[0]["host"])
        untraced = records[:1] if args.trace else records
        e2e = print_end_to_end(untraced, units, attempted, failed)
        if args.trace:
            layers = perflib.per_layer(records[1], records[0], attempted, failed)
            if layers["trace.coverage"] < perflib.MIN_COVERAGE:
                messages.append("spans cover %.1f%% of the traced wall_s, below %.0f%%"
                                % (100 * layers["trace.coverage"], 100 * perflib.MIN_COVERAGE))
            print_layers(layers, records[1], units)
            write_trace(args.workload, args.seed, records[1], layers)
            chosen, values = spec["per_layer"], layers
        else:
            chosen, values = spec["end_to_end"], e2e
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    for message in messages:
        print("check failed: " + message)
    print("checks: %s" % ("all passed" if not messages else "%d failed" % len(messages)))
    print(json.dumps({"correct": not messages, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not messages else 1


if __name__ == "__main__":
    sys.exit(main())
