#!/usr/bin/env bash
# Full local CI: build, tests, formatting, and lints — everything must pass
# before a change lands. Runs entirely offline (deps are vendored).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace --release -q (every crate's unit tests and proptests)"
cargo test --workspace --release -q

echo "==> benchmark harness tests"
(cd benchmark && cargo test --release --offline -q)

echo "==> benchmark smoke (check --smoke + every workload, traced and untraced)"
# Builds the driver offline and exits non-zero on any verdict that is
# missing or differs from the sequential reference, or on a digest mismatch.
benchmark/smoke.sh

echo "==> benchmark check at full size (verdict digests pinned)"
# `check` holds each workload to a reference built by the same code, so a
# change that moves every verdict alike still passes it. Pinning the
# seed-42 digests catches that: a change that moves them is a change to
# the verdicts and must say so here. About 40 s on 2 cores.
CHECK_OUT=$("${CARGO_TARGET_DIR:-benchmark/target}/release/ph-benchmark" check)
echo "$CHECK_OUT"
for pinned in "gt_train 135e9d4a" "sniff_durable fad8eb57" \
    "serve_paced be0fc9d2" "serve_flood cd5658e7"; do
    read -r workload digest <<< "$pinned"
    grep -Eq "^check $workload +seed 42 .* digest $digest +ok$" <<< "$CHECK_OUT" \
        || { echo "benchmark check: $workload digest is not $digest"; exit 1; }
done
echo "    four seed-42 verdict digests match the pinned values"

BIN=target/release/pseudo-honeypot
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

echo "==> results gate (Tables III, IV, VI, feature importance, three ablations vs results/)"
# These seven bins print no wall-clock line, so their stdout must match the
# committed tables byte for byte. They run with $SMOKE as the working
# directory because each also writes results/<name>.metrics.json there.
cargo build --release -q -p ph-bench
REPO=$(pwd)
for bin in table3_labeling table4_classifiers table6_pge feature_importance \
    ablation_env_score ablation_drift ablation_sketch; do
    (cd "$SMOKE" && "$REPO/target/release/$bin" --scale default > "$SMOKE/$bin.txt")
    diff "results/$bin.txt" "$SMOKE/$bin.txt" \
        || { echo "$bin output diverged from results/$bin.txt"; exit 1; }
done
echo "    7 result tables regenerate byte-identical"

echo "==> store crash / corrupt / resume / replay smoke"
SNIFF_ARGS=(--seed 7 --organic 500 --campaigns 3 --gt-hours 6 --hours 8)
# A run killed mid-monitoring leaves a torn tail and exits 3.
rc=0
"$BIN" sniff --store "$SMOKE/run" "${SNIFF_ARGS[@]}" --crash-after 3 --quiet || rc=$?
[ "$rc" -eq 3 ] || { echo "expected exit 3 from --crash-after, got $rc"; exit 1; }
# Corrupt a byte well inside the segment too (bit-rot, not just a torn
# write); recovery must cut there, stranding the intact records behind it.
SEG=$(ls "$SMOKE"/run/segment-*.seg | sort | tail -1)
SIZE=$(stat -c %s "$SEG")
[ "$SIZE" -gt 4096 ] || { echo "segment too small to corrupt: $SIZE bytes"; exit 1; }
printf '\x5a' | dd of="$SEG" bs=1 seek=$((SIZE - 2000)) conv=notrunc status=none
"$BIN" sniff --store "$SMOKE/run" --resume --verify \
    --metrics-out "$SMOKE/resume.metrics.json" --quiet > "$SMOKE/resume.out"
grep -q "oracle check (stored sidecar)" "$SMOKE/resume.out" \
    || { echo "resume --verify produced no sidecar check"; exit 1; }
python3 - "$SMOKE/resume.metrics.json" <<'EOF'
import json, sys
counters = {c["name"]: c["value"] for c in json.load(open(sys.argv[1]))["counters"]}
assert counters.get("store.recovery.truncated_bytes", 0) > 0, counters
assert counters.get("store.recovery.truncated_records", 0) > 0, counters
print(f"    recovery cut {counters['store.recovery.truncated_bytes']} bytes / "
      f"{counters['store.recovery.truncated_records']} records, resumed clean")
EOF
# Replay must reproduce classification from the stored log alone.
"$BIN" replay --store "$SMOKE/run" --verify --quiet > "$SMOKE/replay.out"
grep -q "oracle check (stored sidecar)" "$SMOKE/replay.out" \
    || { echo "replay --verify produced no sidecar check"; exit 1; }
diff <(grep "oracle check" "$SMOKE/resume.out") <(grep "oracle check" "$SMOKE/replay.out") \
    || { echo "replay sidecar accuracy diverged from the resumed run"; exit 1; }

echo "==> sharded dataflow determinism smoke (--threads 1 vs --threads 4)"
# The ph-exec contract: thread count must be invisible in the output.
# Replay the same store sequentially and 4-way sharded; stdout (Table III,
# verdict counts, PGE ranking) must be byte-identical. The t4 run also
# exports Prometheus metrics (stderr-only side effect) for the check below.
"$BIN" replay --store "$SMOKE/run" --threads 1 --verify --quiet > "$SMOKE/replay-t1.out"
"$BIN" replay --store "$SMOKE/run" --threads 4 --verify --quiet \
    --metrics-out "$SMOKE/replay.prom" --metrics-format prom > "$SMOKE/replay-t4.out"
diff "$SMOKE/replay-t1.out" "$SMOKE/replay-t4.out" \
    || { echo "--threads 4 replay output diverged from --threads 1"; exit 1; }

echo "==> observability smoke (inspect + prometheus export)"
# The completed (resumed) run persisted its journal + series streams;
# inspect must render a non-empty per-hour PGE table from the store alone.
"$BIN" inspect --store "$SMOKE/run" --quiet > "$SMOKE/inspect.out"
python3 - "$SMOKE/inspect.out" <<'EOF'
import sys
lines = open(sys.argv[1]).read().splitlines()
start = next(i for i, l in enumerate(lines) if l.startswith("per-hour PGE"))
rows = []
for line in lines[start + 2:]:
    if not line.strip():
        break
    rows.append(line.split())
assert rows, "per-hour PGE table has no rows"
assert any(int(r[1]) > 0 for r in rows), f"all-zero PGE table: {rows}"
assert any("stage throughput" in l for l in lines), "no stage throughput section"
assert any("journal:" in l for l in lines), "no journal tail"
print(f"    inspect rendered {len(rows)} hour rows, "
      f"{sum(int(r[1]) for r in rows)} tweets total")
EOF
# Every non-comment exposition line must be `name{labels} value`.
python3 - "$SMOKE/replay.prom" <<'EOF'
import re, sys
sample = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_]*(\{[^{}]*\})? (-?[0-9][0-9.eE+-]*|[+-]Inf|NaN)$")
lines = [l for l in open(sys.argv[1]).read().splitlines() if l]
samples = 0
for line in lines:
    if line.startswith("# HELP ") or line.startswith("# TYPE "):
        continue
    assert sample.match(line), f"malformed exposition line: {line!r}"
    samples += 1
assert samples > 0, "prometheus export has no samples"
assert any(l.startswith("ph_series{") for l in lines), "no series samples"
print(f"    prometheus export parsed: {samples} samples")
EOF

echo "==> perf harness smoke (bench --quick + self-diff gate)"
# The continuous-benchmark harness must produce parseable baselines and
# the regression gate must accept a run diffed against itself. One
# sample with no warmup keeps this a wiring check, not a measurement.
"$BIN" perf bench --quick --samples 1 --warmup 0 --out-dir "$SMOKE/bench" --quiet \
    > "$SMOKE/bench.out"
BASELINES=$(ls "$SMOKE"/bench/BENCH_*.json | wc -l)
[ "$BASELINES" -ge 12 ] || { echo "expected >=12 baselines, got $BASELINES"; exit 1; }
for f in "$SMOKE"/bench/BENCH_*.json; do
    python3 - "$f" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == 1, doc
assert doc["unit"] == "ms", doc
assert doc["samples"] and all(s >= 0 for s in doc["samples"]), doc
assert {"rustc", "threads", "seed", "crate_version", "mode"} <= set(doc["meta"]), doc
EOF
    "$BIN" perf diff "$f" "$f" --quiet > /dev/null \
        || { echo "self-diff regressed for $f"; exit 1; }
done
# An injected +50% median must trip the gate with the dedicated exit code 4.
python3 - "$SMOKE/bench/BENCH_rf_train.json" "$SMOKE/bench/slow.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["samples"] = [s * 1.5 for s in doc["samples"]]
doc["median"], doc["min"], doc["max"] = doc["median"] * 1.5, doc["min"] * 1.5, doc["max"] * 1.5
json.dump(doc, open(sys.argv[2], "w"))
EOF
rc=0
"$BIN" perf diff "$SMOKE/bench/BENCH_rf_train.json" "$SMOKE/bench/slow.json" --quiet \
    > /dev/null || rc=$?
[ "$rc" -eq 4 ] || { echo "expected exit 4 from injected regression, got $rc"; exit 1; }
echo "    $BASELINES baselines parsed, self-diff clean, injected regression caught"

echo "==> committed-baseline gate (perf diff vs checked-in BENCH_*.json)"
# Every scenario must ship a committed baseline, and the gate must accept
# (committed full-mode, fresh quick-mode) pairs. Quick inputs are strictly
# smaller than the committed full-mode work, so this cannot trip the
# regression exit — it gates baseline presence and schema compatibility.
# Regenerate the real baselines with:
#   cargo build --release && target/release/pseudo-honeypot perf bench
for f in "$SMOKE"/bench/BENCH_*.json; do
    committed=$(basename "$f")
    [ -f "$committed" ] || { echo "missing committed baseline $committed"; exit 1; }
    "$BIN" perf diff "$committed" "$f" --quiet > /dev/null \
        || { echo "committed-baseline diff failed for $committed"; exit 1; }
done
echo "    all $BASELINES committed baselines present and diffable"

echo "==> scaling smoke (sniff_e2e_t1 vs sniff_e2e_t0)"
# The data-layout contract: --threads 0 must beat --threads 1 end to end
# on parallel hardware while producing byte-identical output (identity is
# covered by the replay determinism smoke above and the
# threads_equivalence integration test). The speedup floor scales with
# the cores actually present; a single-core host can only watch for
# pathological overhead. Quick inputs run ~25 ms, too little to amortise
# the fan-out on a few cores: ten runs on a 2-core box read t1/t0 =
# 0.73-1.04x (median 0.87x), and ten of the build before one-pass
# screening 0.78-1.34x (median 0.89x). So 2-7 cores get a 0.6x floor,
# below every measured run, that still trips on runaway worker overhead.
"$BIN" perf bench --quick --only sniff_e2e_t1,sniff_e2e_t0 \
    --out-dir "$SMOKE/scaling" --quiet > /dev/null
python3 - "$SMOKE/scaling/BENCH_sniff_e2e_t1.json" \
          "$SMOKE/scaling/BENCH_sniff_e2e_t0.json" "$(nproc)" <<'EOF'
import json, sys
t1 = json.load(open(sys.argv[1]))["median"]
t0 = json.load(open(sys.argv[2]))["median"]
cores = int(sys.argv[3])
ratio = t1 / max(t0, 1e-9)
if cores >= 8:
    assert ratio >= 1.8, f"t1/t0 = {ratio:.2f}x on {cores} cores; expected >= 1.8x"
elif cores >= 2:
    assert ratio >= 0.6, f"t1/t0 = {ratio:.2f}x on {cores} cores; expected >= 0.6x"
else:
    assert ratio >= 0.7, f"t1/t0 = {ratio:.2f}x on 1 core; worker overhead is pathological"
    print(f"    single-core host: speedup unmeasurable, overhead sane (t1/t0 = {ratio:.2f}x)")
    sys.exit(0)
print(f"    scaling OK on {cores} cores: t1 {t1:.1f} ms / t0 {t0:.1f} ms = {ratio:.2f}x")
EOF

echo "==> timeline trace smoke (--trace export + perf critical-path)"
# Tracing must be invisible on stdout, the exported Chrome trace JSON
# must parse strictly and name every pipeline stage, and the
# critical-path report must produce a sane parallel-efficiency figure.
# Byte-identity pair runs without --store (the store banner prints its
# own path, which would differ between two store directories).
"$BIN" sniff "${SNIFF_ARGS[@]}" --threads 2 --quiet > "$SMOKE/trace-off.out"
"$BIN" sniff "${SNIFF_ARGS[@]}" --threads 2 --quiet \
    --trace "$SMOKE/t.json" > "$SMOKE/trace-on.out"
diff "$SMOKE/trace-off.out" "$SMOKE/trace-on.out" \
    || { echo "--trace changed sniff stdout"; exit 1; }
# A stored traced run feeds the offline critical-path report below.
"$BIN" sniff --store "$SMOKE/trace-on" "${SNIFF_ARGS[@]}" --threads 2 --quiet \
    --trace "$SMOKE/t-stored.json" > /dev/null
python3 - "$SMOKE/t.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]), parse_constant=lambda c: (_ for _ in ()).throw(ValueError(c)))
events = doc["traceEvents"]
assert events, "empty traceEvents"
procs = {e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "process_name"}
for stage in ("monitor.categorize", "features.pure", "clustering.image_sketch",
              "clustering.name_sketch", "clustering.description_sketch",
              "clustering.tweet_sketch"):
    assert stage in procs, f"stage {stage} missing from trace: {procs}"
assert any(e["ph"] == "C" for e in events), "no counter tracks"
assert doc["otherData"]["dropped_events"] == 0, doc["otherData"]
print(f"    trace JSON valid: {len(events)} events across {len(procs)} stage tracks")
EOF
"$BIN" perf critical-path --store "$SMOKE/trace-on" > "$SMOKE/critical-path.out"
python3 - "$SMOKE/critical-path.out" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"parallel efficiency ([0-9.]+)", text)
assert m, f"no parallel-efficiency figure:\n{text}"
eff = float(m.group(1))
assert 0.0 < eff <= 1.0, f"implausible efficiency {eff}"
assert "per-stage wall-clock split" in text, text
assert "critical chain" in text, text
print(f"    critical-path report OK: parallel efficiency {eff}")
EOF

echo "==> serve daemon smoke (socket ingest + /metrics + SIGTERM drain + resume)"
# A live daemon fed over its ingest socket must expose Prometheus metrics
# with the pinned content type, drain cleanly on SIGTERM (exit 5, store
# checkpointed), and then --resume with the built-in load generator to a
# complete, inspectable store.
SERVE_ARGS=(--seed 7 --organic 400 --campaigns 3 --gt-hours 3 --hours 6)
"$BIN" serve --store "$SMOKE/daemon" "${SERVE_ARGS[@]}" --quiet &
SERVE_PID=$!
for _ in $(seq 1 600); do
    [ -s "$SMOKE/daemon/ENDPOINTS" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve died before binding"; exit 1; }
    sleep 0.1
done
[ -s "$SMOKE/daemon/ENDPOINTS" ] || { echo "no ENDPOINTS file within 60 s"; exit 1; }
INGEST=$(sed -n 's/^ingest=//p' "$SMOKE/daemon/ENDPOINTS")
HTTP=$(sed -n 's/^http=//p' "$SMOKE/daemon/ENDPOINTS")
# Stream the first 2 of 6 hours from the standalone producer (same sim
# shape, shorter horizon), then watch them land through /metrics.
"$BIN" feed --connect "$INGEST" --seed 7 --organic 400 --campaigns 3 \
    --gt-hours 3 --hours 2 --quiet > "$SMOKE/feed.out"
grep -q "over 2 hours" "$SMOKE/feed.out" || { echo "feed fell short: $(cat "$SMOKE/feed.out")"; exit 1; }
python3 - "$HTTP" <<'EOF'
import re, sys, time, urllib.request
addr = sys.argv[1]
deadline = time.time() + 60
while True:
    try:
        resp = urllib.request.urlopen(f"http://{addr}/metrics", timeout=5)
        ct = resp.headers.get("Content-Type")
        assert ct == "text/plain; version=0.0.4", f"wrong content type: {ct!r}"
        body = resp.read().decode()
        m = re.search(r"^ph_serve_hours_done(?:\{[^}]*\})? ([0-9.]+)$", body, re.M)
        if m and float(m.group(1)) >= 2:
            break
    except AssertionError:
        raise
    except Exception:
        pass
    assert time.time() < deadline, "daemon never reported 2 monitored hours"
    time.sleep(0.2)
health = urllib.request.urlopen(f"http://{addr}/healthz", timeout=5).read().decode()
assert health == "ok\n", repr(health)
print("    /metrics content type pinned, 2 hours ingested, /healthz ok")
EOF
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
[ "$rc" -eq 5 ] || { echo "expected exit 5 from SIGTERM drain, got $rc"; exit 1; }
# The drained store resumes with the built-in load generator and finishes.
"$BIN" serve --store "$SMOKE/daemon" --resume --loadgen --quiet > "$SMOKE/serve-resume.out"
grep -q "serve: 6 of 6 h monitored" "$SMOKE/serve-resume.out" \
    || { echo "resume did not complete the run: $(cat "$SMOKE/serve-resume.out")"; exit 1; }
[ -s "$SMOKE/daemon/verdicts.ndjson" ] || { echo "no verdict stream"; exit 1; }
VERDICTS=$(wc -l < "$SMOKE/daemon/verdicts.ndjson")
"$BIN" inspect --store "$SMOKE/daemon" --quiet > "$SMOKE/serve-inspect.out"
grep -q "6 of 6 h completed" "$SMOKE/serve-inspect.out" \
    || { echo "inspect cannot render the served store"; exit 1; }
echo "    SIGTERM drained at exit 5, resume completed, $VERDICTS live verdicts"

echo "==> decision observability smoke (--explain + explain + inspect --drift)"
# An explained run with an injected taste flip must persist both decision
# streams, render a verdict's provenance and the drift table offline, and
# raise drift alarms; an explained serve run must emit NDJSON verdicts
# whose margin/top_features parse as strict JSON.
"$BIN" sniff --store "$SMOKE/obs" "${SNIFF_ARGS[@]}" --taste-flip 10 --explain --quiet \
    > /dev/null
[ -s "$SMOKE/obs/explain.log" ] || { echo "no explain.log after --explain"; exit 1; }
[ -s "$SMOKE/obs/drift.log" ] || { echo "no drift.log after --explain"; exit 1; }
"$BIN" explain --store "$SMOKE/obs" > "$SMOKE/explain.out"
grep -q "feature attributions" "$SMOKE/explain.out" \
    || { echo "explain rendered no attribution table"; exit 1; }
grep -q "attributions telescope" "$SMOKE/explain.out" \
    || { echo "explain rendered no telescoping footnote"; exit 1; }
"$BIN" inspect --store "$SMOKE/obs" --drift --quiet > "$SMOKE/drift.out"
grep -q "per-hour feature drift" "$SMOKE/drift.out" \
    || { echo "inspect --drift rendered no PSI table"; exit 1; }
grep -q "drift alarms" "$SMOKE/drift.out" \
    || { echo "inspect --drift rendered no alarm timeline"; exit 1; }
grep -A2 "drift alarms" "$SMOKE/drift.out" | grep -q "psi" \
    || { echo "taste flip raised no drift alarm"; exit 1; }
"$BIN" serve --store "$SMOKE/obs-serve" --seed 7 --organic 400 --campaigns 3 \
    --gt-hours 3 --hours 4 --loadgen --explain --http none --quiet > /dev/null
python3 - "$SMOKE/obs-serve/verdicts.ndjson" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l]
assert lines, "empty explained verdict stream"
for line in lines:
    doc = json.loads(line)  # strict JSON, or this throws
    assert isinstance(doc["margin"], (int, float)), doc
    tops = doc["top_features"]
    assert tops and all(set(t) == {"feature", "delta"} for t in tops), doc
    assert all(isinstance(t["delta"], (int, float)) for t in tops), doc
print(f"    {len(lines)} explained NDJSON verdicts parse as strict JSON")
EOF
echo "    explain + drift streams render offline, alarms raised"

echo "==> service health smoke (--slo breach + SIGQUIT flight dump + inspect --flight)"
# A throttled soak must breach its latency SLO (/healthz 503 with the
# rule as the reason), dump the flight recorder on SIGQUIT without
# stopping, recover once the throttled hours' backlog drains, exit 0,
# and leave a store whose flight timeline renders offline.
"$BIN" serve --store "$SMOKE/health" --seed 9 --organic 300 --campaigns 2 \
    --gt-hours 2 --hours 60 --loadgen --rate 1000 --http 127.0.0.1:0 \
    --slo p99:400 --throttle-ms 900 --throttle-hours 3 --quiet > /dev/null &
HEALTH_PID=$!
for _ in $(seq 1 600); do
    [ -s "$SMOKE/health/ENDPOINTS" ] && break
    kill -0 "$HEALTH_PID" 2>/dev/null || { echo "health serve died before binding"; exit 1; }
    sleep 0.1
done
[ -s "$SMOKE/health/ENDPOINTS" ] || { echo "no health ENDPOINTS file within 60 s"; exit 1; }
HHTTP=$(sed -n 's/^http=//p' "$SMOKE/health/ENDPOINTS")
python3 - "$HHTTP" "$HEALTH_PID" <<'EOF'
import os, signal, sys, time, urllib.error, urllib.request
addr, pid = sys.argv[1], int(sys.argv[2])
deadline = time.time() + 120
saw_degraded = saw_recovery = saw_gauges = sent_quit = False
while time.time() < deadline:
    try:
        urllib.request.urlopen(f"http://{addr}/healthz", timeout=5).read()
        if saw_degraded:
            saw_recovery = True
            if not saw_gauges:
                body = urllib.request.urlopen(
                    f"http://{addr}/metrics", timeout=5).read().decode()
                saw_gauges = "ph_serve_latency_ms_p99" in body
    except urllib.error.HTTPError as e:
        if e.code == 503:
            reason = e.read().decode()
            assert "slo.p99" in reason, f"degraded without the rule: {reason!r}"
            saw_degraded = True
            if not sent_quit:
                # Mid-incident SIGQUIT: dump the flight recorder, keep serving.
                os.kill(pid, signal.SIGQUIT)
                sent_quit = True
    except Exception:
        pass  # daemon finishing; the shell's wait checks its exit code
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        break
    time.sleep(0.01)
assert saw_degraded, "the SLO breach never degraded /healthz"
assert saw_recovery, "/healthz never recovered to 200"
assert saw_gauges, "no serve.latency_ms quantile gauges in /metrics"
print("    SLO breach degraded /healthz, gauges scraped, recovery observed")
EOF
rc=0
wait "$HEALTH_PID" || rc=$?
[ "$rc" -eq 0 ] || { echo "health serve run failed with exit $rc"; exit 1; }
[ -s "$SMOKE/health/flight.log" ] || { echo "SIGQUIT left no flight.log"; exit 1; }
"$BIN" inspect --store "$SMOKE/health" --flight --quiet > "$SMOKE/flight.out"
grep -q "flight recorder:" "$SMOKE/flight.out" \
    || { echo "inspect --flight rendered no timeline"; exit 1; }
grep -q "slo_breach" "$SMOKE/flight.out" \
    || { echo "the breach is missing from the flight timeline"; exit 1; }
echo "    flight recorder dumped on SIGQUIT and renders offline"

echo "==> cargo doc --workspace (broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
