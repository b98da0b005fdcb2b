#!/usr/bin/env bash
# Local CI: the tier-1 suite plus sanitizer passes.
#
#   tools/ci.sh            # tier-1 + dead-code scan + perfbench smoke
#                          #   + ASan/UBSan + TSan
#   tools/ci.sh --fast     # tier-1 only
#
# Each configuration builds into its own tree (build/, build-deadcode/,
# build-asan/, build-tsan/) so switching configurations never poisons the
# plain build.
# TSan specifically vets the sharded fleet harvest: the determinism tests
# run the same campaign at several thread counts, which is exactly the
# interleaving a data race would need to surface.
set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local dir="$1"
  local ctest_filter="$2"
  shift 2
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j"$(nproc)"
  (cd "${dir}" && ctest --output-on-failure -j"$(nproc)" ${ctest_filter})
}

run_suite build ""

# Examples: each drives the public API end to end, must exit 0 (set -e
# stops the run on the first one that does not), and must print exactly its
# golden, tests/golden/examples/<name>.golden. site_survey runs the MR18
# scanner and link_monitor the link probes, so their goldens pin those
# paths' outputs too.
for example in quickstart site_survey traffic_audit link_monitor fleet_health; do
  echo "=== example ${example} ==="
  ./build/examples/"${example}" > "build/example-${example}.out"
  cmp "build/example-${example}.out" "tests/golden/examples/${example}.golden" || {
    echo "example ${example}: stdout differs from tests/golden/examples/${example}.golden" >&2
    exit 1
  }
done

# Bench smoke at a tiny scale. The scorecard's paper-figure checks may fail
# here (the calibration targets assume a full-size fleet), so it may exit 1,
# but any other exit (a crash, an abort) fails the smoke. bench_fault_sweep's
# records must parse and carry the throughput fields, and a `wlmctl report`
# must write nothing but its stdout.
bench_smoke() {
  local json="build/BENCH_smoke.json"
  local wlmctl="${PWD}/build/tools/wlmctl"
  local cwd rc=0
  rm -f "${json}"
  echo "=== bench smoke (tiny scale) ==="
  "${wlmctl}" report scorecard --networks 12 --seed 7 --jobs 2 > /dev/null || rc=$?
  if [[ "${rc}" -gt 1 ]]; then
    echo "bench smoke: report scorecard exited ${rc}, want 0 or 1" >&2
    exit 1
  fi
  echo "bench smoke: report scorecard exited ${rc} (1 is tolerated at smoke scale)"
  WLM_BENCH_JSON="${json}" ./build/bench/bench_fault_sweep 6 0.2 7 2 > /dev/null
  if [[ ! -s "${json}" ]]; then
    echo "bench smoke: ${json} missing or empty" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    # Every line must parse as JSON, and at least one record must carry the
    # throughput fields (the work tally is deterministic, so a zero
    # fragments_frames_per_sec means the counters came unhooked, not that
    # the machine was slow).
    python3 - "${json}" << 'EOF'
import json, sys
have_throughput = False
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        rec = json.loads(line)  # raises -> nonzero exit on malformed output
        if rec.get("fragments_frames_per_sec", 0) > 0 and rec.get("peak_rss_bytes", 0) > 0:
            have_throughput = True
if not have_throughput:
    sys.exit("bench smoke: no record carries fragments_frames_per_sec/peak_rss_bytes")
print(f"bench smoke: {n} JSON lines, throughput fields present")
EOF
  else
    grep -q '"fragments_frames_per_sec": ' "${json}" || {
      echo "bench smoke: no fragments_frames_per_sec in ${json}" >&2
      exit 1
    }
    echo "bench smoke: throughput fields present (grep fallback)"
  fi

  # A report run from an empty directory must exit 0 and leave the
  # directory empty.
  rc=0
  cwd="$(mktemp -d)"
  (cd "${cwd}" && "${wlmctl}" report table3 --networks 12 --seed 7 --jobs 2 > /dev/null) \
    || rc=$?
  if [[ "${rc}" -ne 0 ]]; then
    echo "bench smoke: report table3 exited ${rc}" >&2
    exit 1
  fi
  if [[ -n "$(ls -A "${cwd}")" ]]; then
    echo "bench smoke: report table3 wrote into its working directory:" \
      "$(ls -A "${cwd}")" >&2
    exit 1
  fi
  rmdir "${cwd}"
  echo "bench smoke: report table3 exits 0 and writes no files"

  # A malformed option value is a usage error (exit 2), not a 0-network run.
  rc=0
  "${wlmctl}" report table3 --networks abc > /dev/null 2>&1 || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "bench smoke: report table3 --networks abc exited ${rc}, want 2" >&2
    exit 1
  fi
  echo "bench smoke: a malformed argument exits 2"
}
bench_smoke

# Classify fast-path smoke: run the two-tier contrast at a reduced stream
# size and require the JSON record to parse, the verdict checksums to have
# matched (the bench exits nonzero on a mismatch), and the RuleIndex +
# VerdictCache path to clear the 3x throughput floor over the reference
# engine. `--benchmark_filter=^$` skips the google-benchmark loops so the
# smoke stays fast.
classify_smoke() {
  local json="build/BENCH_classify_smoke.json"
  rm -f "${json}"
  echo "=== classify fast-path smoke ==="
  WLM_CLASSIFY_BENCH_FLOWS=20000 WLM_CLASSIFY_BENCH_JSON="${json}" \
    WLM_PER_BENCH_JSON=/dev/null \
    ./build/bench/bench_perf_micro --benchmark_filter='^$' > /dev/null
  if [[ ! -s "${json}" ]]; then
    echo "classify smoke: ${json} missing or empty" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "${json}" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rec = json.loads(f.readline())
speedup = rec["speedup"]
cache = rec["cache"]
if speedup < 3.0:
    sys.exit(f"classify smoke: speedup {speedup} below the 3x floor")
if cache["hits"] == 0:
    sys.exit("classify smoke: the verdict cache never hit")
print(f"classify smoke: {speedup}x over reference, "
      f"{cache['hits']} hits / {cache['misses']} misses")
EOF
  else
    grep -q '"speedup"' "${json}" || {
      echo "classify smoke: no speedup field in ${json}" >&2
      exit 1
    }
    echo "classify smoke: record present (grep fallback)"
  fi
}
classify_smoke

# PER-table smoke: run the SINR->PER contrast at a reduced stream size and
# require identical frame-error decisions (bench_perf_micro exits nonzero on
# a mismatch) plus a >= 2x table-over-scalar throughput floor. The floor is
# deliberately below the typical 5-10x so scheduler noise can't flake the
# lane while a real regression (table silently falling back to the scalar
# path) still trips it.
per_smoke() {
  local json="build/BENCH_per_smoke.json"
  rm -f "${json}"
  echo "=== PER table smoke ==="
  WLM_PER_BENCH_EVALS=300000 WLM_PER_BENCH_JSON="${json}" \
    WLM_CLASSIFY_BENCH_FLOWS=2000 WLM_CLASSIFY_BENCH_JSON=/dev/null \
    ./build/bench/bench_perf_micro --benchmark_filter='^$' > /dev/null
  if [[ ! -s "${json}" ]]; then
    echo "per smoke: ${json} missing or empty" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "${json}" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rec = json.loads(f.readline())
if rec["speedup"] < 2.0:
    sys.exit(f"per smoke: table speedup {rec['speedup']} below the 2x floor")
print(f"per smoke: {rec['speedup']}x over the scalar oracle, decisions identical")
EOF
  else
    grep -q '"speedup"' "${json}" || {
      echo "per smoke: no speedup field in ${json}" >&2
      exit 1
    }
    echo "per smoke: record present (grep fallback)"
  fi
}
per_smoke

# Checkpoint/resume smoke: kill a campaign at a phase boundary, resume it in
# a new process at a different --jobs, and require byte-identical stdout and
# metrics versus the run that never stopped (the tier-1 e2e tests prove this
# in-process; the smoke proves the shipped wlmctl wiring does too). The cut
# file itself must not depend on --jobs.
ckpt_smoke() {
  echo "=== checkpoint/resume smoke ==="
  local dir="build/ckpt-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  # kill_resume NAME FLAGS...: cut after mr16 at --jobs 1 and at --jobs 4,
  # resume the first at --jobs 4, compare with an uninterrupted --jobs 2 run.
  kill_resume() {
    local name="$1"
    shift
    local out="${dir}/${name}"
    ./build/tools/wlmctl simulate "$@" --jobs 2 \
      --metrics-out "${out}.full.metrics" > "${out}.full.out"
    local jobs
    for jobs in 1 4; do
      ./build/tools/wlmctl simulate "$@" --jobs "${jobs}" \
        --checkpoint-out "${out}.cut${jobs}.wlmckpt" --halt-after-phase mr16 \
        > /dev/null 2>&1
    done
    cmp "${out}.cut1.wlmckpt" "${out}.cut4.wlmckpt" || {
      echo "ckpt smoke (${name}): the cut file differs between --jobs 1 and 4" >&2
      exit 1
    }
    ./build/tools/wlmctl simulate --resume-from "${out}.cut1.wlmckpt" --jobs 4 \
      --metrics-out "${out}.resumed.metrics" > "${out}.resumed.out" 2> /dev/null
    cmp "${out}.full.out" "${out}.resumed.out" || {
      echo "ckpt smoke (${name}): resumed stdout differs from the uninterrupted run" >&2
      exit 1
    }
    cmp "${out}.full.metrics" "${out}.resumed.metrics" || {
      echo "ckpt smoke (${name}): resumed metrics differ from the uninterrupted run" >&2
      exit 1
    }
  }
  local faults="outage_rate=2,outage_hours=12,corrupt=0.01"
  kill_resume faults --networks 5 --seed 11 --faults "${faults}"
  kill_resume mobility-mesh --networks 5 --seed 11 --mobility on --mobility-steps 24 \
    --mesh-fraction 0.5 --faults "${faults}"
  # Checkpoint bytes are spill-invariant (DESIGN.md §4h): cuts after mr16
  # under a 1 MiB ceiling that spills and a 4096 MiB one that does not, at
  # --jobs 1 and 4, are the same bytes. The spilled cut then resumes to the
  # uninterrupted ceiling run's stdout and metrics.
  local ceiling_flags=(--networks 5 --seed 11)
  local cut="${dir}/ceiling"
  local ceiling jobs
  for ceiling in 1 4096; do
    for jobs in 1 4; do
      local tag="${ceiling}mb-j${jobs}"
      ./build/tools/wlmctl simulate "${ceiling_flags[@]}" --jobs "${jobs}" \
        --mem-ceiling-mb "${ceiling}" --spill-dir "${cut}-${tag}.spill" \
        --checkpoint-out "${cut}-${tag}.wlmckpt" --halt-after-phase mr16 > /dev/null 2>&1
      local spilled=0
      compgen -G "${cut}-${tag}.spill/tsdb_spill_*.ckpt" > /dev/null && spilled=1
      if [[ "${spilled}" -ne $(( ceiling == 1 )) ]]; then
        echo "ckpt smoke: the ${ceiling} MiB ceiling cut at --jobs ${jobs} spilled=${spilled}" >&2
        exit 1
      fi
      cmp "${cut}-1mb-j1.wlmckpt" "${cut}-${tag}.wlmckpt" || {
        echo "ckpt smoke: the ${ceiling} MiB cut at --jobs ${jobs} differs from the spilled --jobs 1 cut" >&2
        exit 1
      }
    done
  done
  ./build/tools/wlmctl simulate "${ceiling_flags[@]}" --jobs 2 --mem-ceiling-mb 1 \
    --spill-dir "${cut}-full.spill" --metrics-out "${cut}.full.metrics" > "${cut}.full.out"
  ./build/tools/wlmctl simulate --resume-from "${cut}-1mb-j1.wlmckpt" --jobs 4 \
    --metrics-out "${cut}.resumed.metrics" > "${cut}.resumed.out" 2> /dev/null
  cmp "${cut}.full.out" "${cut}.resumed.out" || {
    echo "ckpt smoke (ceiling): resumed stdout differs from the uninterrupted run" >&2
    exit 1
  }
  cmp "${cut}.full.metrics" "${cut}.resumed.metrics" || {
    echo "ckpt smoke (ceiling): resumed metrics differ from the uninterrupted run" >&2
    exit 1
  }
  # A truncated checkpoint must fail with a diagnostic, not a crash.
  head -c 40 "${dir}/faults.cut1.wlmckpt" > "${dir}/torn.wlmckpt"
  if ./build/tools/wlmctl simulate --resume-from "${dir}/torn.wlmckpt" \
    > /dev/null 2> "${dir}/torn.err"; then
    echo "ckpt smoke: resume from a truncated checkpoint succeeded" >&2
    exit 1
  fi
  grep -q "cannot resume" "${dir}/torn.err" || {
    echo "ckpt smoke: truncated resume died without a diagnostic" >&2
    exit 1
  }
  # A fault rate past its cap is a usage error (exit 2), not an abort.
  local rc=0
  ./build/tools/wlmctl simulate --networks 1 --faults outage_rate=1e12 \
    > /dev/null 2>&1 || rc=$?
  if [[ "${rc}" -ne 2 ]]; then
    echo "ckpt smoke: --faults outage_rate=1e12 exited ${rc}, want 2" >&2
    exit 1
  fi
  echo "ckpt smoke: kill/resume byte-identical (faults; mobility+mesh; spilled), cut files" \
    "jobs- and spill-independent, torn checkpoint fails closed, oversized fault rate exits 2"
}
ckpt_smoke

# Crash-recovery smoke: the shard supervision layer through the shipped
# wlmctl wiring (the tier-1 `failsafe` label proves it in-process). Kills
# one network with a failpoint and requires: the campaign still completes
# (exit 3 = degraded, not a crash), the manifest names exactly that
# network, the surviving shards' output is byte-identical across --jobs,
# a transient failure recovers to byte-identical clean output, and a
# missing resume checkpoint exits with the distinct I/O code (4).
failsafe_smoke() {
  echo "=== crash-recovery (failsafe) smoke ==="
  local dir="build/failsafe-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local flags=(--networks 5 --seed 11)
  local kill_spec="site=poller.poll,net=3,action=throw"

  # Kill-one-shard campaign: must finish degraded, naming network 3.
  local rc=0
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 2 \
    --failpoints "${kill_spec}" --max-shard-retries 1 \
    > "${dir}/degraded-j2.out" 2> /dev/null || rc=$?
  if [[ "${rc}" -ne 3 ]]; then
    echo "failsafe smoke: kill-one-shard run exited ${rc}, want 3 (degraded)" >&2
    exit 1
  fi
  grep -q "\[quarantined\] network 3" "${dir}/degraded-j2.out" || {
    echo "failsafe smoke: manifest does not quarantine network 3" >&2
    exit 1
  }
  # The degraded run is still a deterministic artifact: same bytes per jobs.
  for jobs in 1 8; do
    ./build/tools/wlmctl simulate "${flags[@]}" --jobs "${jobs}" \
      --failpoints "${kill_spec}" --max-shard-retries 1 \
      > "${dir}/degraded-j${jobs}.out" 2> /dev/null || true
    cmp "${dir}/degraded-j2.out" "${dir}/degraded-j${jobs}.out" || {
      echo "failsafe smoke: degraded output differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  # Under a ceiling each phase drains inside its shard's task, so the same
  # kill fires in the usage week: still degraded, still the same bytes at
  # every --jobs.
  for jobs in 1 2 8; do
    rc=0
    ./build/tools/wlmctl simulate "${flags[@]}" --jobs "${jobs}" \
      --failpoints "${kill_spec}" --max-shard-retries 1 \
      --mem-ceiling-mb 1 --spill-dir "${dir}/spill-j${jobs}" \
      > "${dir}/ceiling-j${jobs}.out" 2> /dev/null || rc=$?
    if [[ "${rc}" -ne 3 ]]; then
      echo "failsafe smoke: kill-one-shard run under a ceiling exited ${rc} at --jobs ${jobs}, want 3" >&2
      exit 1
    fi
  done
  grep -q "\[quarantined\] network 3 in usage_week" "${dir}/ceiling-j1.out" || {
    echo "failsafe smoke: ceiling manifest does not quarantine network 3 in usage_week" >&2
    exit 1
  }
  for jobs in 2 8; do
    cmp "${dir}/ceiling-j1.out" "${dir}/ceiling-j${jobs}.out" || {
      echo "failsafe smoke: degraded output under a ceiling differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  # A shard whose harvest merge keeps failing is quarantined after its
  # harvest task sealed what it drained; the batch is dropped, so the
  # checkpoint cut after harvest carries none of its rows and is the same
  # bytes at every --jobs.
  local merge_spec="site=harvest.merge,net=3,action=error"
  for jobs in 1 2 8; do
    ./build/tools/wlmctl simulate "${flags[@]}" --jobs "${jobs}" \
      --failpoints "${merge_spec}" --checkpoint-out "${dir}/merge-j${jobs}.wlmckpt" \
      --halt-after-phase harvest > /dev/null 2>&1 || {
      echo "failsafe smoke: harvest-merge drill failed to cut a checkpoint at --jobs ${jobs}" >&2
      exit 1
    }
  done
  for jobs in 2 8; do
    cmp "${dir}/merge-j1.wlmckpt" "${dir}/merge-j${jobs}.wlmckpt" || {
      echo "failsafe smoke: harvest-merge checkpoint differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  # Transient failure + retry: byte-identical to the unfaulted run.
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 2 > "${dir}/clean.out"
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 2 \
    --failpoints "site=shard.step,net=3,action=throw,times=1" \
    --max-shard-retries 2 > "${dir}/recovered.out" 2> /dev/null
  cmp "${dir}/clean.out" "${dir}/recovered.out" || {
    echo "failsafe smoke: recovered run differs from the unfaulted run" >&2
    exit 1
  }

  # A nonexistent --resume-from path is a typed I/O error, exit code 4.
  rc=0
  ./build/tools/wlmctl simulate --resume-from "${dir}/no-such.wlmckpt" \
    > /dev/null 2> "${dir}/missing.err" || rc=$?
  if [[ "${rc}" -ne 4 ]]; then
    echo "failsafe smoke: missing checkpoint exited ${rc}, want 4 (resume I/O)" >&2
    exit 1
  fi
  grep -q "cannot resume" "${dir}/missing.err" || {
    echo "failsafe smoke: missing-checkpoint resume lacked a diagnostic" >&2
    exit 1
  }
  echo "failsafe smoke: degraded completion deterministic with and without a ceiling, harvest-merge checkpoint identical across --jobs, retry recovers, resume I/O typed"
}
failsafe_smoke

# Full-scale streaming-harvest smoke: the tsdb segment store + spill path
# through the shipped wlmctl wiring (the tier-1 `tsdb` label proves the
# store in-process; BENCH_fullscale measures the real 20,667-network
# campaign). A tiny fleet runs once with a roomy segment ceiling (streaming
# on, nothing spills) and once with a deliberately tiny 1 MiB ceiling that
# forces every sealed segment to disk. Requirements: the tiny-ceiling run
# actually produced spill files, its stdout is byte-identical to the
# unspilled run, and its peak RSS stays under a generous absolute bound —
# the ceiling governs resident segment bytes, so the bound catches the
# store accidentally holding everything resident anyway.
fullscale_smoke() {
  echo "=== full-scale streaming-harvest smoke ==="
  local dir="build/fullscale-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}/spill"
  local flags=(--networks 12 --seed 11 --jobs 2)

  ./build/tools/wlmctl simulate "${flags[@]}" --mem-ceiling-mb 4096 \
    --spill-dir "${dir}/spill" > "${dir}/resident.out"
  if compgen -G "${dir}/spill/tsdb_spill_*.ckpt" > /dev/null; then
    echo "fullscale smoke: roomy ceiling spilled sealed segments" >&2
    exit 1
  fi

  if command -v python3 > /dev/null 2>&1; then
    # Run the spilled pass under a wrapper that reports the child's peak
    # RSS (ru_maxrss) and enforce a 768 MiB bound — far above a tiny
    # fleet's honest footprint, far below an everything-resident bug.
    python3 - "${dir}" "${flags[@]}" << 'EOF'
import resource, subprocess, sys
outdir = sys.argv[1]
cmd = ["./build/tools/wlmctl", "simulate", *sys.argv[2:],
       "--mem-ceiling-mb", "1", "--spill-dir", f"{outdir}/spill"]
with open(f"{outdir}/spilled.out", "wb") as out:
    rc = subprocess.call(cmd, stdout=out)
if rc != 0:
    sys.exit(f"fullscale smoke: spilled run exited {rc}")
rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
cap_kb = 768 * 1024
if rss_kb > cap_kb:
    sys.exit(f"fullscale smoke: peak RSS {rss_kb} KB above the {cap_kb} KB bound")
print(f"fullscale smoke: spilled run peak RSS {rss_kb} KB (bound {cap_kb} KB)")
EOF
  else
    ./build/tools/wlmctl simulate "${flags[@]}" --mem-ceiling-mb 1 \
      --spill-dir "${dir}/spill" > "${dir}/spilled.out"
    echo "fullscale smoke: RSS bound skipped (no python3)"
  fi

  compgen -G "${dir}/spill/tsdb_spill_*.ckpt" > /dev/null || {
    echo "fullscale smoke: 1 MiB ceiling never spilled" >&2
    exit 1
  }

  # The ceiling must bound something: a 300-network campaign under an
  # 8 MiB ceiling drains and seals each phase's batch in its shard's task
  # and spills sealed segments, so it must peak at no more than 0.9x the
  # same campaign without a ceiling (0.71-0.72x; a build whose ceiling
  # does nothing measures 0.99-1.00x). And the harvest without a ceiling
  # seals each shard in its own task too, so it must peak at no more than
  # 1.6x the ceiling run (1.38-1.41x; staging the whole fleet's rows
  # before sealing measures 1.94-1.98x). Each run is its own child, its
  # peak RSS read from its own rusage.
  if command -v python3 > /dev/null 2>&1; then
    python3 - "${dir}" << 'EOF'
import os, subprocess, sys
outdir = sys.argv[1]
base = ["./build/tools/wlmctl", "simulate", "--networks", "300", "--seed", "5", "--jobs", "2"]

def peak_kb(name, extra):
    with open(f"{outdir}/{name}.out", "wb") as out:
        proc = subprocess.Popen(base + extra, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"fullscale smoke: {name} run exited {proc.returncode}")
    return usage.ru_maxrss

ceiling_kb = peak_kb("bound-ceiling",
                     ["--mem-ceiling-mb", "8", "--spill-dir", f"{outdir}/bound-spill"])
free_kb = peak_kb("bound-none", [])
ratio = ceiling_kb / free_kb
print(f"fullscale smoke: 300 networks peak RSS {ceiling_kb} KB with an 8 MiB ceiling, "
      f"{free_kb} KB without ({ratio:.2f}x, bound 0.90x; inverse {1 / ratio:.2f}x, bound 1.60x)")
if ratio > 0.9:
    sys.exit("fullscale smoke: the 8 MiB ceiling does not bound the campaign's peak RSS")
if free_kb > 1.6 * ceiling_kb:
    sys.exit("fullscale smoke: the harvest without a ceiling stages more than its workers' rows")
EOF
  else
    echo "fullscale smoke: ceiling RSS comparison skipped (no python3)"
  fi
  cmp "${dir}/resident.out" "${dir}/spilled.out" || {
    echo "fullscale smoke: spilled stdout differs from the unspilled run" >&2
    exit 1
  }
  echo "fullscale smoke: spill occurred, spilled output byte-identical to resident"

  # The read side of the spill: Table 3 decodes every spilled segment back,
  # serially at --jobs 1 and ahead on the workers at --jobs 4. Both must
  # print the same bytes.
  for jobs in 1 4; do
    ./build/tools/wlmctl report table3 --networks 12 --seed 11 --jobs "${jobs}" \
      --mem-ceiling-mb 1 --spill-dir "${dir}/read-j${jobs}" > "${dir}/table3-j${jobs}.out"
    compgen -G "${dir}/read-j${jobs}/tsdb_spill_*.ckpt" > /dev/null || {
      echo "fullscale smoke: table3 at --jobs ${jobs} never spilled" >&2
      exit 1
    }
  done
  cmp "${dir}/table3-j1.out" "${dir}/table3-j4.out" || {
    echo "fullscale smoke: spilled table3 differs between --jobs 1 and --jobs 4" >&2
    exit 1
  }
  echo "fullscale smoke: spilled table3 byte-identical at --jobs 1 and 4"

  # The health monitor folds the same read stream per AP: its week-end
  # triage must print the same bytes resident and spilled, at --jobs 1
  # and 4.
  for jobs in 1 4; do
    ./build/tools/wlmctl health --networks 12 --seed 11 --jobs "${jobs}" \
      > "${dir}/health-resident-j${jobs}.out"
    ./build/tools/wlmctl health --networks 12 --seed 11 --jobs "${jobs}" \
      --mem-ceiling-mb 1 --spill-dir "${dir}/health-j${jobs}" \
      > "${dir}/health-spilled-j${jobs}.out"
    compgen -G "${dir}/health-j${jobs}/tsdb_spill_*.ckpt" > /dev/null || {
      echo "fullscale smoke: health at --jobs ${jobs} never spilled" >&2
      exit 1
    }
  done
  for run in resident-j4 spilled-j1 spilled-j4; do
    cmp "${dir}/health-resident-j1.out" "${dir}/health-${run}.out" || {
      echo "fullscale smoke: health ${run} differs from resident --jobs 1" >&2
      exit 1
    }
  done
  echo "fullscale smoke: health byte-identical resident and spilled, --jobs 1 and 4"

  # The radio studies on the workers: Figure 3 measures every mesh link
  # across the shards and Figure 7 renders the MR18 scans. Table 7 and
  # Figure 2 render straight from the generated environments, whose shards
  # are built while the generator runs. All must print the same bytes at
  # --jobs 1 and 4.
  local artifact
  for artifact in fig3 fig7 table7 fig2; do
    for jobs in 1 4; do
      ./build/tools/wlmctl report "${artifact}" --networks 12 --seed 11 --jobs "${jobs}" \
        > "${dir}/${artifact}-j${jobs}.out"
    done
    cmp "${dir}/${artifact}-j1.out" "${dir}/${artifact}-j4.out" || {
      echo "fullscale smoke: report ${artifact} differs between --jobs 1 and --jobs 4" >&2
      exit 1
    }
  done
  echo "fullscale smoke: report fig3, fig7, table7 and fig2 byte-identical at --jobs 1 and 4"
}
fullscale_smoke

# Mobility (roaming) smoke: the waypoint walk + handoff path through the
# shipped wlmctl wiring (the tier-1 `mobility` label proves it in-process).
# A tiny mobile campaign must render byte-identical roaming artifacts at any
# --jobs, must actually roam (a walk that never hands off would pass every
# determinism check while testing nothing), and its telemetry must still
# reconcile with the loss ledger — churn may move bytes between APs, never
# invent or lose them.
mobility_smoke() {
  echo "=== mobility (roaming) smoke ==="
  local dir="build/mobility-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local flags=(--networks 5 --seed 11 --mobility on --mobility-steps 48)

  for jobs in 1 2 8; do
    ./build/tools/wlmctl report roamcdf "${flags[@]}" --jobs "${jobs}" \
      > "${dir}/roamcdf-j${jobs}.out"
  done
  for jobs in 2 8; do
    cmp "${dir}/roamcdf-j1.out" "${dir}/roamcdf-j${jobs}.out" || {
      echo "mobility smoke: roam-rate CDF differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  ./build/tools/wlmctl report sticky "${flags[@]}" --jobs 2 > "${dir}/sticky.out"
  grep -q "committed roams" "${dir}/sticky.out" || {
    echo "mobility smoke: sticky report lacks the roam counters" >&2
    exit 1
  }
  if grep -Eq "committed roams +\| +0 \|" "${dir}/sticky.out"; then
    echo "mobility smoke: the mobile campaign never roamed" >&2
    exit 1
  fi

  # Ledger reconciliation with the walk enabled (and faults chewing on the
  # tunnels): wlmctl stats exits nonzero unless telemetry matches the ledger.
  ./build/tools/wlmctl stats "${flags[@]}" --jobs 2 \
    --faults "outage_rate=2,outage_hours=12,corrupt=0.01" \
    > "${dir}/stats.out" || {
    echo "mobility smoke: telemetry/ledger reconciliation failed under churn" >&2
    exit 1
  }
  echo "mobility smoke: roaming deterministic across jobs, ledger reconciles"
}
mobility_smoke

# Mesh (multi-hop backhaul) smoke: the relay routing + per-hop accounting
# path through the shipped wlmctl wiring (the tier-1 `mesh` label proves it
# in-process). A mesh campaign must be byte-identical at any --jobs, a
# gateway-outage scenario must complete with a reconciled ledger (wlmctl
# stats exits nonzero otherwise) AND actually strand reports — a topology
# where nothing partitions would pass every determinism check while testing
# nothing — and the hop-count artifact must render relayed traffic.
mesh_smoke() {
  echo "=== mesh (multi-hop backhaul) smoke ==="
  local dir="build/mesh-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local flags=(--networks 8 --seed 7 --mesh-fraction 0.5)

  for jobs in 1 2 8; do
    ./build/tools/wlmctl simulate "${flags[@]}" --jobs "${jobs}" \
      > "${dir}/sim-j${jobs}.out"
  done
  for jobs in 2 8; do
    cmp "${dir}/sim-j1.out" "${dir}/sim-j${jobs}.out" || {
      echo "mesh smoke: mesh campaign output differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  # Gateway outages strand relay subtrees; stats exits nonzero unless the
  # telemetry counters reconcile with the loss ledger, partition bucket
  # included.
  ./build/tools/wlmctl stats --networks 8 --seed 7 --mesh-fraction 0.6 \
    --jobs 2 --faults "outage_rate=3,outage_hours=40" > "${dir}/stats.out" || {
    echo "mesh smoke: telemetry/ledger reconciliation failed under gateway outages" >&2
    exit 1
  }
  grep -Eq "^wlm_mesh_partition_lost_total [1-9]" "${dir}/stats.out" || {
    echo "mesh smoke: the gateway-outage scenario never stranded a subtree" >&2
    exit 1
  }

  ./build/tools/wlmctl report meshdelivery --networks 6 --seed 7 --jobs 2 \
    > "${dir}/delivery.out"
  grep -q "relayed reports" "${dir}/delivery.out" || {
    echo "mesh smoke: meshdelivery artifact lacks the relay summary" >&2
    exit 1
  }
  echo "mesh smoke: jobs byte-identical, outage ledger reconciles with stranding, artifact renders"
}
mesh_smoke

# Dead-code lane: every strong wlm:: function the libraries define must be
# reachable from a shipped binary (wlmctl, the examples, the bench binaries
# and wlm_perfbench), or sit on the keep-list below with its reason.
# The scan builds without tests at -O0 with one section per function and
# links with --gc-sections, so a function survives in a binary only if that
# binary can call it; the lane subtracts every symbol the binaries keep from
# the libraries' global text symbols. perfbench/ is configured as its own
# project in a subdirectory of the scan tree; nothing in perfbench/ changes.
deadcode() {
  echo "=== dead-code scan ==="
  local dir="build-deadcode"
  local flags=(-DCMAKE_BUILD_TYPE=Debug
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  cmake -B "${dir}" -S . "${flags[@]}" -DBUILD_TESTING=OFF > /dev/null
  cmake --build "${dir}" -j"$(nproc)" > /dev/null
  cmake -B "${dir}/perfbench" -S perfbench "${flags[@]}" > /dev/null
  cmake --build "${dir}/perfbench" -j"$(nproc)" > /dev/null

  # Unreached on purpose: one qualified name per line, then its reason.
  local keep
  keep="$(cat << 'KEEP'
wlm::failsafe::FailpointRegistry::disarm_all           tests reset every armed failpoint
wlm::failsafe::FailpointRegistry::hits                 tests observe how often a site fired
wlm::failsafe::ScopedShardContext::current_delay_hours tests observe an injected delay
wlm::failsafe::ShardSupervisor::quarantined_count      tests observe the quarantine set
wlm::backend::Poller::counters_for                     tests observe per-AP poll accounting
wlm::fault::FaultPlan::total_outages                   tests check the planned outage count
wlm::fault::FaultPlan::total_reboots                   tests check the planned reboot count
wlm::probe::LinkTable::metric                          tests read one link's metric
wlm::probe::LinkTable::all_metrics                     tests read the whole link table
wlm::probe::SlidingDeliveryWindow::expected            tests observe the window's probe count
wlm::probe::SlidingDeliveryWindow::received            tests observe the window's deliveries
wlm::telemetry::MetricsRegistry::find_histogram        tests read a histogram back
wlm::telemetry::FlightRecorder::clear                  tests reset the recorder
wlm::sim::RadioEnvironment::audible_neighbors          tests observe the neighbor set
wlm::sim::RadioEnvironment::audible_hotspots           tests observe the hotspot set
wlm::sim::NetworkShard::find_ap                        tests look an AP up by id
wlm::traffic::DeviceWeek::total_bytes                  tests check byte conservation
wlm::backend::AppByteMap::at                           tests read one app's bytes
wlm::deploy::Capabilities::spatial_streams             tests check the stream-count bits
wlm::mac::BeaconFrame::is_11b_only                     tests check legacy-rate detection
wlm::phy::ChannelPlan::non_overlapping_2_4             tests check the channel plan
wlm::traffic::SessionModel::sample_week                empirical oracle for presence_probability
wlm::classify::oui_registry                            its sorted-table test guards the binary search
wlm::traffic::parse_pcap_lengths                       reads PcapWriter output back in tests
wlm::deploy::generate_fleet                            tests generate whole fleets without a runner
KEEP
)"
  if ! awk 'NF < 2 { exit 1 }' <<< "${keep}"; then
    echo "deadcode: every keep-list entry needs a reason" >&2
    exit 1
  fi

  local libs bins
  mapfile -t libs < <(find "${dir}/src" -name 'libwlm_*.a' | sort)
  mapfile -t bins < <(find "${dir}/tools/wlmctl" "${dir}/examples" "${dir}/bench" \
    "${dir}/perfbench/wlm_perfbench" -maxdepth 1 -type f -perm -u+x | sort)
  nm --defined-only "${libs[@]}" | awk '$2 == "T" { print $3 }' | sort -u \
    > "${dir}/lib-symbols.txt"
  nm --defined-only "${bins[@]}" | awk 'NF == 3 { print $3 }' | sort -u \
    > "${dir}/bin-symbols.txt"
  comm -23 "${dir}/lib-symbols.txt" "${dir}/bin-symbols.txt" | c++filt \
    | { grep '^wlm::' || true; } | sed -e 's/\[abi:[^]]*\]//g' -e 's/(.*//' | sort -u \
    > "${dir}/unreached.txt"
  awk '{ print $1 }' <<< "${keep}" | sort -u > "${dir}/keep.txt"

  local dead stale
  dead="$(comm -23 "${dir}/unreached.txt" "${dir}/keep.txt")"
  stale="$(comm -13 "${dir}/unreached.txt" "${dir}/keep.txt")"
  if [[ -n "${dead}" ]]; then
    echo "deadcode: no binary reaches these functions; delete them or keep-list" \
      "them with a reason:" >&2
    echo "${dead}" >&2
    exit 1
  fi
  if [[ -n "${stale}" ]]; then
    echo "deadcode: keep-list entries that a binary now reaches, or that are gone:" >&2
    echo "${stale}" >&2
    exit 1
  fi
  echo "deadcode: ${#bins[@]} binaries reach every wlm:: function except the" \
    "$(wc -l < "${dir}/keep.txt") keep-listed ones"
}

# Benchmark smoke: one short run of each perfbench workload (it builds
# perfbench/ under .bench_build/). Each run checks its outputs against
# perfbench/pinned.json, and its last line is a JSON object whose
# "correct" must be true. This catches a stale --wrap symbol or a moved
# pinned signature here rather than at the next benchmark run.
perfbench_smoke() {
  local workload last
  for workload in usage radio streaming; do
    echo "=== perfbench smoke: ${workload} ==="
    if ! last="$(python3 perfbench/run.py --workload "${workload}" --seed 2015 \
        --trace 0 --seconds 1 | tail -n 1)"; then
      echo "perfbench smoke: ${workload} exited nonzero" >&2
      exit 1
    fi
    if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["correct"] is not True)' \
        "${last}" 2> /dev/null; then
      echo "perfbench smoke: ${workload} is not correct: ${last}" >&2
      exit 1
    fi
  done
}

if [[ "${1:-}" != "--fast" ]]; then
  deadcode
  perfbench_smoke

  # Sanitizer builds skip the `slow` label (fork-based e2e and golden
  # replays): the instrumented binaries run those campaigns 5-20x slower,
  # and the same code paths are already covered by the unlabeled
  # ckpt/property/determinism tests.
  # The `classify` label (rule-engine differential + parser fuzz corpus) is
  # NOT excluded, so both sanitizer lanes sweep the mutated-packet
  # corpus and the 100k-flow oracle diff on every run. Likewise `tsdb`
  # (segment format roundtrip + the adversarial truncation/bit-flip/tamper
  # corpus), `mobility` (walk determinism, handoff boundaries, mobility
  # golden renders), and `mesh` (relay routing purity, jobs byte-identity,
  # gateway-outage stranding, hop-count goldens, the v6 checkpoint fuzz
  # corpus): their tests are fast and written to be ASan/UBSan-clean, so
  # both sanitizer lanes pick them up automatically.
  run_suite build-asan "-LE slow" -DWLM_SANITIZE=address
  run_suite build-tsan "-LE slow" -DWLM_SANITIZE=thread
fi

echo "=== ci.sh: all suites green ==="
