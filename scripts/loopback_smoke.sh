#!/usr/bin/env bash
# Loopback integration matrix for the distributed evaluation service: start
# ecad_workerd daemons on 127.0.0.1 and prove, for one seeded search, that
# every fleet configuration produces stdout byte-identical to the in-process
# reference (legs 2-4 covered older wire generations and were retired with
# them; the remaining legs keep their numbers):
#
#   leg 1  streaming distributed search            == local
#   leg 5  degradation: one worker killed mid-fleet, search still matches
#   leg 6  heartbeat rejoin: kill a worker mid-search, restart it, and
#          require the master's log to show it rejoining via heartbeat ping
#          (not via a failed evaluation), with output still matching local
#   leg 7  streaming under slow-genome injection: a configurable-delay
#          analytic worker stalls ~1/3 of the genomes; the master's log must
#          show it consumed out-of-order item frames, output still matching
#   leg 8  overlapped evolution (--overlap): distributed overlapped search
#          matches the local overlapped reference byte for byte
#   leg 9  observability: a distributed run with --metrics-json
#          and --trace-file still matches local byte for byte; the master's
#          metrics JSON, the `stats models=` line on stdout, and the fleet's
#          GetStats answers (queried with `ecad_searchd --stats`) all agree
#          on exactly how many evaluations happened; the trace file is valid
#          Chrome trace-event JSON
#   leg 10 fleet result cache: against daemons started with --cache-bytes,
#          a second identical search (fresh master, empty local cache) is
#          served >= 90% from the fleet's content-addressed cache with
#          byte-identical stdout and at most 3 connections accepted per
#          daemon (the cache exchanges reuse pooled connections); a
#          cache-only daemon fronting the warm fleet answers lookups
#          without ever evaluating; and a
#          --no-fleet-cache master against the cache-enabled fleet never
#          speaks the cache frames
#
# Usage: scripts/loopback_smoke.sh <build-dir>
# Set SMOKE_LOG_DIR to keep daemon/search logs (CI uploads them on failure).
set -euo pipefail

BUILD_DIR="${1:-build}"
WORKERD="$BUILD_DIR/tools/ecad_workerd"
SEARCHD="$BUILD_DIR/tools/ecad_searchd"
# The one wire generation every process speaks; scripts/lint_wire_protocol.py
# checks this against kProtocolVersion in src/net/wire.h so the matrix can't
# silently rot.  (The search-service frames are exercised by
# scripts/service_smoke.sh, the stats frames by leg 9 here.)
PROTOCOL_VERSION=7
if [[ -n "${SMOKE_LOG_DIR:-}" ]]; then
  WORK="$SMOKE_LOG_DIR"
  mkdir -p "$WORK"
  KEEP_WORK=1
else
  WORK="$(mktemp -d)"
  KEEP_WORK=0
fi
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  [[ "$KEEP_WORK" == 1 ]] || rm -rf "$WORK"
}
trap cleanup EXIT

# Identical worker spec on every process — the determinism contract.
WORKER_FLAGS=(--worker accuracy --data-seed 7 --data-samples 400 --train-epochs 3 --eval-seed 42)
SEARCH_FLAGS=(--seed 11 --population 6 --evaluations 24 --batch 3 --threads 4 "${WORKER_FLAGS[@]}")

start_worker() {
  local out="$1"; shift
  "$WORKERD" --port 0 "$@" >"$out" 2>"$out.err" &
  PIDS+=($!)
  for _ in $(seq 1 100); do
    if grep -q LISTENING "$out" 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: worker daemon did not come up"; cat "$out.err"; exit 1
}

wait_for_port_free() {
  # The restarted daemon needs the exact port back; SO_REUSEADDR makes this
  # near-instant, the loop just absorbs scheduler noise.
  local port="$1"
  for _ in $(seq 1 50); do
    if ! { exec 3<>"/dev/tcp/127.0.0.1/$port"; } 2>/dev/null; then return 0; fi
    exec 3>&- || true
    sleep 0.1
  done
  return 0
}

diff_or_die() {
  local reference="$1" candidate="$2" what="$3"
  if ! diff -u "$reference" "$candidate"; then
    echo "FAIL: $what diverged from local evaluation"
    exit 1
  fi
}

echo "== wire protocol v$PROTOCOL_VERSION loopback matrix"
echo "== starting two worker daemons on loopback"
start_worker "$WORK/w1.out" "${WORKER_FLAGS[@]}"
start_worker "$WORK/w2.out" "${WORKER_FLAGS[@]}"
PORT1=$(awk '{print $2}' "$WORK/w1.out")
PORT2=$(awk '{print $2}' "$WORK/w2.out")
echo "   workers on :$PORT1 and :$PORT2"

echo "== local (in-process) reference search"
"$SEARCHD" "${SEARCH_FLAGS[@]}" >"$WORK/local.out" 2>"$WORK/local.err"

echo "== leg 1: streaming distributed search"
"$SEARCHD" --workers "127.0.0.1:$PORT1,127.0.0.1:$PORT2" "${SEARCH_FLAGS[@]}" \
  >"$WORK/streaming.out" 2>"$WORK/streaming.err"
diff_or_die "$WORK/local.out" "$WORK/streaming.out" "streaming search"
# Nonzero frame counts, so the leg fails if streaming silently never engages.
grep -Eq "in [1-9][0-9]* batch frames" "$WORK/streaming.err" || {
  echo "FAIL: streaming leg did not report a nonzero batch-frame count"; exit 1; }
grep -Eq "[1-9][0-9]* streamed item frames" "$WORK/streaming.err" || {
  echo "FAIL: streaming leg did not report a nonzero streamed-item count"; exit 1; }
echo "   OK: streaming distributed == local, byte for byte ($(wc -l <"$WORK/local.out") lines)"

echo "== leg 5: degradation — kill worker 2, re-run distributed"
kill "${PIDS[1]}" 2>/dev/null || true
wait "${PIDS[1]}" 2>/dev/null || true
"$SEARCHD" --workers "127.0.0.1:$PORT1,127.0.0.1:$PORT2" "${SEARCH_FLAGS[@]}" \
  >"$WORK/degraded.out" 2>"$WORK/degraded.err"
diff_or_die "$WORK/local.out" "$WORK/degraded.out" "degraded search"
echo "   OK: search degraded to the surviving worker and still matches"

echo "== leg 6: heartbeat rejoin — kill and restart a worker mid-search"
# Slow (analytic) evaluations keep the search in flight long enough to
# bounce a daemon under it.  --eval-delay-ms never changes results, so the
# delay-free local reference below is still the byte-exact oracle.
HB_WORKER_SPEC=(--worker analytic)
HB_WORKER_FLAGS=(--eval-delay-ms 40 --threads 1 "${HB_WORKER_SPEC[@]}")
HB_SEARCH_FLAGS=(--seed 19 --population 6 --evaluations 120 --batch 4 --threads 4
                 --heartbeat-ms 100 "${HB_WORKER_SPEC[@]}")
start_worker "$WORK/hb1.out" "${HB_WORKER_FLAGS[@]}"
HB_PORT1=$(awk '{print $2}' "$WORK/hb1.out")
start_worker "$WORK/hb2.out" "${HB_WORKER_FLAGS[@]}"
HB_PORT2=$(awk '{print $2}' "$WORK/hb2.out")
HB2_PID=${PIDS[-1]}

"$SEARCHD" "${HB_SEARCH_FLAGS[@]}" >"$WORK/hb_local.out" 2>"$WORK/hb_local.err"

"$SEARCHD" --workers "127.0.0.1:$HB_PORT1,127.0.0.1:$HB_PORT2" "${HB_SEARCH_FLAGS[@]}" \
  >"$WORK/hb_dist.out" 2>"$WORK/hb_dist.err" &
SEARCH_PID=$!
PIDS+=($SEARCH_PID)

sleep 0.8  # let the search spin up and shard a few batches
echo "   killing worker on :$HB_PORT2 mid-search"
kill "$HB2_PID" 2>/dev/null || true
wait "$HB2_PID" 2>/dev/null || true
sleep 0.8  # long enough for the master to sideline the endpoint
echo "   restarting worker on :$HB_PORT2"
wait_for_port_free "$HB_PORT2"
"$WORKERD" --port "$HB_PORT2" "${HB_WORKER_FLAGS[@]}" >"$WORK/hb2b.out" 2>"$WORK/hb2b.err" &
PIDS+=($!)

if ! wait "$SEARCH_PID"; then
  echo "FAIL: heartbeat-leg search exited nonzero"; cat "$WORK/hb_dist.err"; exit 1
fi
diff_or_die "$WORK/hb_local.out" "$WORK/hb_dist.out" "heartbeat-leg search"
# The acceptance bar: the master's log must show the endpoint coming back
# through the background ping, not through a failed evaluation probing it.
if ! grep -q "rejoined the pool via heartbeat ping" "$WORK/hb_dist.err"; then
  echo "FAIL: master log shows no heartbeat rejoin; searchd stderr follows"
  cat "$WORK/hb_dist.err"
  exit 1
fi
if ! grep -Eq "[1-9][0-9]* heartbeat rejoins" "$WORK/hb_dist.err"; then
  echo "FAIL: searchd summary reports zero heartbeat rejoins"
  cat "$WORK/hb_dist.err"
  exit 1
fi
echo "   OK: worker rejoined via heartbeat ping and results still match"

echo "== leg 7: streaming under slow-genome injection (out-of-order item frames)"
# ~1/3 of the genomes stall 12x longer than the rest, so fast shard-mates
# stream back ahead of them: the master must consume item frames out of
# order.  Delays never change results, so the delay-free local reference is
# still the byte-exact oracle.
SG_WORKER_SPEC=(--worker analytic)
SG_WORKER_FLAGS=(--eval-delay-ms 5 --eval-slow-modulo 3 --eval-slow-delay-ms 60 --threads 4
                 "${SG_WORKER_SPEC[@]}")
SG_SEARCH_FLAGS=(--seed 29 --population 6 --evaluations 96 --batch 8 --threads 4
                 "${SG_WORKER_SPEC[@]}")
start_worker "$WORK/sg1.out" "${SG_WORKER_FLAGS[@]}"
SG_PORT1=$(awk '{print $2}' "$WORK/sg1.out")

"$SEARCHD" "${SG_SEARCH_FLAGS[@]}" >"$WORK/sg_local.out" 2>"$WORK/sg_local.err"
"$SEARCHD" --workers "127.0.0.1:$SG_PORT1" "${SG_SEARCH_FLAGS[@]}" \
  >"$WORK/sg_dist.out" 2>"$WORK/sg_dist.err"
diff_or_die "$WORK/sg_local.out" "$WORK/sg_dist.out" "slow-genome streaming search"
# The acceptance bar: slow genomes were overtaken on the wire, i.e. the
# master really consumed completion-ordered (not request-ordered) frames.
grep -Eq "\([1-9][0-9]* out-of-order\)" "$WORK/sg_dist.err" || {
  echo "FAIL: master log reports zero out-of-order item frames"
  cat "$WORK/sg_dist.err"
  exit 1
}
echo "   OK: out-of-order item frames consumed, results still match"

echo "== leg 8: overlapped evolution (--overlap) distributed == local"
OV_BASE_FLAGS=(--seed 31 --population 6 --evaluations 60 --batch 4 --threads 4
               "${SG_WORKER_SPEC[@]}")
"$SEARCHD" "${OV_BASE_FLAGS[@]}" --overlap >"$WORK/ov_local.out" 2>"$WORK/ov_local.err"
"$SEARCHD" --workers "127.0.0.1:$SG_PORT1" "${OV_BASE_FLAGS[@]}" --overlap \
  >"$WORK/ov_dist.out" 2>"$WORK/ov_dist.err"
diff_or_die "$WORK/ov_local.out" "$WORK/ov_dist.out" "overlapped search"
# Overlap must be a different (but internally consistent) trajectory, not a
# silent no-op: the same flags without --overlap may not produce the same
# byte stream.
"$SEARCHD" "${OV_BASE_FLAGS[@]}" >"$WORK/ov_seq.out" 2>"$WORK/ov_seq.err"
if diff -q "$WORK/ov_local.out" "$WORK/ov_seq.out" >/dev/null 2>&1; then
  echo "FAIL: overlapped trajectory is identical to the sequential one (overlap never engaged?)"
  exit 1
fi
echo "   OK: overlapped distributed == overlapped local, byte for byte"

echo "== leg 9: observability — metrics JSON, trace file, stats over the wire"
# Fresh workers so the fleet's counters start from zero and the cross-process
# accounting below can demand exact equality.
start_worker "$WORK/st1.out" "${WORKER_FLAGS[@]}"
ST_PORT1=$(awk '{print $2}' "$WORK/st1.out")
start_worker "$WORK/st2.out" "${WORKER_FLAGS[@]}"
ST_PORT2=$(awk '{print $2}' "$WORK/st2.out")
"$SEARCHD" --workers "127.0.0.1:$ST_PORT1,127.0.0.1:$ST_PORT2" "${SEARCH_FLAGS[@]}" \
  --metrics-json "$WORK/master_metrics.json" --trace-file "$WORK/master_trace.json" \
  >"$WORK/stats.out" 2>"$WORK/stats.err"
diff_or_die "$WORK/local.out" "$WORK/stats.out" "metrics+trace instrumented search"
echo "   OK: observability-instrumented run == local, byte for byte"

"$SEARCHD" --stats "127.0.0.1:$ST_PORT1,127.0.0.1:$ST_PORT2" \
  >"$WORK/fleet_stats.out" 2>"$WORK/fleet_stats.err"
grep -q "^STATS 127.0.0.1:$ST_PORT1 metrics=" "$WORK/fleet_stats.out" || {
  echo "FAIL: --stats printed no report header for :$ST_PORT1"; cat "$WORK/fleet_stats.out"; exit 1; }
grep -q "^STATS 127.0.0.1:$ST_PORT2 metrics=" "$WORK/fleet_stats.out" || {
  echo "FAIL: --stats printed no report header for :$ST_PORT2"; cat "$WORK/fleet_stats.out"; exit 1; }

# Exact three-way accounting: the `stats models=` line on stdout, the
# master's metrics JSON, and the fleet's wire-served counters must all name
# the same number of evaluations.  Worker-side, a dispatched item is either
# evaluated (completed/failed) or collapsed onto a twin by batch dedup.
python3 - "$WORK/stats.out" "$WORK/master_metrics.json" "$WORK/fleet_stats.out" <<'PY'
import json, re, sys

models = int(re.search(r"^stats models=(\d+) ", open(sys.argv[1]).read(), re.M).group(1))

master = {e["name"]: e["metrics"] for e in json.load(open(sys.argv[2]))["entries"]}
dispatched = sum(int(m["value"]) for name, m in master.items()
                 if name.startswith("net.items_dispatched_total{"))
requeued = int(master.get("net.requeued_items_total", {"value": 0})["value"])
lookups = int(master["evo.cache_lookups_total"]["value"])
hits = int(master["evo.cache_hits_total"]["value"])
misses = int(master["evo.cache_misses_total"]["value"])

fleet = 0
for line in open(sys.argv[3]):
    parts = line.split()
    if parts and parts[0] in ("core.evals_completed_total", "core.evals_failed_total",
                              "core.dedup_collapsed_total"):
        fleet += int(float(parts[1]))

assert hits + misses == lookups, f"cache: {hits}+{misses} != {lookups}"
assert requeued == 0, f"unexpected requeues in a healthy fleet: {requeued}"
assert dispatched == models, f"master dispatched {dispatched} != stdout models {models}"
assert fleet == dispatched, f"fleet-side evals {fleet} != master dispatched {dispatched}"
assert "core.eval_seconds" not in master, "one-shot master ran local evaluations?"
print(f"   OK: models={models} == dispatched == fleet-side evals;"
      f" cache {hits}+{misses}=={lookups}")
PY

# The trace is complete JSON after a clean exit, and carries both the
# master's shard spans and the engine's generation spans.
python3 - "$WORK/master_trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
cats = {e.get("cat") for e in events}
assert any(e.get("ph") == "X" for e in events), "no complete (ph=X) events"
assert "net" in cats and "evo" in cats, f"missing trace categories, saw {sorted(cats)}"
print(f"   OK: trace file holds {len(events)} events across {sorted(cats)}")
PY

echo "== leg 10: fleet result cache — warm rerun served from cache"
# Fresh daemons with the cache tier enabled.  The cold run publishes every
# fresh outcome to every daemon (stores broadcast); the warm rerun is a
# brand-new master process with an empty local dedup cache, so every unique
# genome it looks up must settle from the fleet tier instead of dispatching.
# Daemon counters accumulate across runs, so all daemon-side assertions are
# on deltas between --stats snapshots.
start_worker "$WORK/fc1.out" --cache-bytes 1048576 "${WORKER_FLAGS[@]}"
FC_PORT1=$(awk '{print $2}' "$WORK/fc1.out")
start_worker "$WORK/fc2.out" --cache-bytes 1048576 "${WORKER_FLAGS[@]}"
FC_PORT2=$(awk '{print $2}' "$WORK/fc2.out")
FC_WORKERS="127.0.0.1:$FC_PORT1,127.0.0.1:$FC_PORT2"

"$SEARCHD" --workers "$FC_WORKERS" "${SEARCH_FLAGS[@]}" \
  --metrics-json "$WORK/fc_cold.json" >"$WORK/fc_cold.out" 2>"$WORK/fc_cold.err"
diff_or_die "$WORK/local.out" "$WORK/fc_cold.out" "cold fleet-cache search"
"$SEARCHD" --stats "$FC_WORKERS" >"$WORK/fc_stats_cold.out" 2>"$WORK/fc_stats_cold.err"

"$SEARCHD" --workers "$FC_WORKERS" "${SEARCH_FLAGS[@]}" \
  --metrics-json "$WORK/fc_warm.json" >"$WORK/fc_warm.out" 2>"$WORK/fc_warm.err"
diff_or_die "$WORK/local.out" "$WORK/fc_warm.out" "warm fleet-cache search"
"$SEARCHD" --stats "$FC_WORKERS" >"$WORK/fc_stats_warm.out" 2>"$WORK/fc_stats_warm.err"

python3 - "$WORK/fc_cold.json" "$WORK/fc_warm.json" \
  "$WORK/fc_stats_cold.out" "$WORK/fc_stats_warm.out" <<'PY'
import json, sys

def master_counter(path, name):
    entries = {e["name"]: e["metrics"] for e in json.load(open(path))["entries"]}
    return int(entries.get(name, {"value": 0})["value"])

def fleet_counter(path, name):
    return sum(int(float(line.split()[1])) for line in open(path)
               if line.split() and line.split()[0] == name)

cold_json, warm_json, cold_stats, warm_stats = sys.argv[1:5]
assert master_counter(cold_json, "net.fleet_cache_hits_total") == 0, \
    "cold run hit a freshly started cache?"
assert master_counter(cold_json, "net.fleet_cache_publishes_total") > 0, \
    "cold run published nothing to the fleet cache"
hits = master_counter(warm_json, "net.fleet_cache_hits_total")
misses = master_counter(warm_json, "net.fleet_cache_misses_total")
assert hits + misses > 0, "warm run never consulted the fleet cache"
rate = hits / (hits + misses)
assert rate >= 0.9, f"warm run hit rate {rate:.2%} < 90% ({hits}/{hits + misses})"
served = (fleet_counter(warm_stats, "fleet.cache_hits_total")
          - fleet_counter(cold_stats, "fleet.cache_hits_total"))
assert served > 0, "daemons report zero cache hits for the warm run"
# The warm master dispatched (almost) nothing: the daemons' fresh-evaluation
# counters may not grow by more than the warm run's miss count.
def evals(path):
    return (fleet_counter(path, "core.evals_completed_total")
            + fleet_counter(path, "core.evals_failed_total")
            + fleet_counter(path, "core.dedup_collapsed_total"))
fresh = evals(warm_stats) - evals(cold_stats)
assert fresh <= misses, \
    f"warm run cost {fresh} fresh evaluations but reported only {misses} misses"
# Every generation's cache exchange rides the master's pooled connections,
# so a daemon accepts at most two shard streams' connections plus --stats'
# own during the warm rerun, however many generations it runs.
def accepted(path):
    per_daemon, endpoint = {}, None
    for line in open(path):
        parts = line.split()
        if parts and parts[0] == "STATS":
            endpoint = parts[1]
        elif len(parts) == 2 and parts[0] == "workerd.connections_accepted_total":
            per_daemon[endpoint] = int(float(parts[1]))
    return per_daemon
cold_conns, warm_conns = accepted(cold_stats), accepted(warm_stats)
assert len(warm_conns) == 2, f"connection counters missing: {warm_conns}"
conns = {e: n - cold_conns.get(e, 0) for e, n in warm_conns.items()}
assert all(n <= 3 for n in conns.values()), \
    f"warm rerun opened connections per generation: {conns} (--stats included)"
print(f"   OK: warm rerun {rate:.0%} cache-served ({hits}/{hits + misses}), "
      f"{fresh} fresh evaluations, daemons answered {served} hits, "
      f"accepted {sorted(conns.values())} connections (--stats included)")
PY
echo "   OK: warm rerun == local, byte for byte, served from the fleet cache"

echo "== leg 10b: cache-only daemon fronts the warm fleet"
# A --cache-only daemon rejects evaluation frames, so it can satisfy the
# search only through CacheLookup answers (its own, all misses — it was not
# up for the cold run's publishes) and by not being dispatched to: a fully
# cache-served search never sends it an EvalBatchRequest at all.
start_worker "$WORK/fco.out" --cache-only --cache-bytes 1048576 "${WORKER_FLAGS[@]}"
FCO_PORT=$(awk '{print $2}' "$WORK/fco.out")
"$SEARCHD" --workers "127.0.0.1:$FCO_PORT,$FC_WORKERS" "${SEARCH_FLAGS[@]}" \
  >"$WORK/fco.out2" 2>"$WORK/fco.err2"
diff_or_die "$WORK/local.out" "$WORK/fco.out2" "cache-only-fronted search"
"$SEARCHD" --stats "127.0.0.1:$FCO_PORT" >"$WORK/fco_stats.out" 2>"$WORK/fco_stats.err"
python3 - "$WORK/fco_stats.out" <<'PY'
import sys
counters = {}
for line in open(sys.argv[1]):
    parts = line.split()
    if len(parts) == 2 and not parts[0].startswith("STATS"):
        counters[parts[0]] = counters.get(parts[0], 0) + int(float(parts[1]))
answered = counters.get("fleet.cache_hits_total", 0) + counters.get("fleet.cache_misses_total", 0)
evaluated = sum(v for k, v in counters.items() if k.startswith("core.evals_"))
assert answered > 0, "cache-only daemon answered no lookups"
assert evaluated == 0, f"cache-only daemon evaluated {evaluated} genomes"
print(f"   OK: cache-only daemon answered {answered} lookup keys, evaluated 0 genomes")
PY

echo "== leg 10c: --no-fleet-cache master against the cache-enabled fleet"
"$SEARCHD" --workers "$FC_WORKERS" --no-fleet-cache "${SEARCH_FLAGS[@]}" \
  --metrics-json "$WORK/fc_off.json" >"$WORK/fc_off.out" 2>"$WORK/fc_off.err"
diff_or_die "$WORK/local.out" "$WORK/fc_off.out" "--no-fleet-cache search against cache-enabled fleet"
python3 - "$WORK/fc_off.json" <<'PY'
import json, sys
entries = {e["name"] for e in json.load(open(sys.argv[1]))["entries"]}
spoken = sorted(e for e in entries if e.startswith("net.fleet_cache_"))
assert not spoken, f"--no-fleet-cache master spoke cache frames: {spoken}"
print("   OK: --no-fleet-cache master never touched the cache tier, results still match")
PY

echo "PASS: loopback smoke matrix"
