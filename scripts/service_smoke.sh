#!/usr/bin/env bash
# Search-service smoke matrix (ISSUE 7 acceptance): run ecad_searchd as a
# resident multi-tenant daemon and prove the service
# contract end to end:
#
#   leg 1  three concurrent submitted searches (distinct seeds) against one
#          daemon backed by a two-worker fleet, each byte-identical to the
#          standalone CLI run of the same request
#   leg 2  mid-stream cancellation: --cancel-after-progress stops a long
#          search early, the client exits 3, and no partial record leaks to
#          stdout
#   leg 3  graceful SIGTERM drain: a search in flight when the daemon gets
#          SIGTERM folds its in-flight generation, comes back as
#          SearchDone(Canceled "daemon draining"), and the daemon's service
#          summary accounts for every search before exiting
#   leg 4  --stop-server: a client-issued Shutdown frame stops the daemon
#   leg 5  stats over the wire: after the three tenants finish,
#          `ecad_searchd --stats` queries the resident daemon and both
#          workers with GetStats frames; the daemon's dispatch counters, the
#          workers' evaluation counters, and the `stats models=` lines the
#          tenants printed must agree exactly.  The daemon also runs with
#          --trace-file and --metrics-json, validated after shutdown.
#   leg 6  fleet result cache: against cache-enabled workers
#          (--cache-bytes), two tenants submitting the *same* request,
#          staggered, share evaluations through the fleet tier — the workers
#          report cache hits, and both tenants stay byte-identical to the
#          standalone run
#
# Usage: scripts/service_smoke.sh <build-dir>
# Set SMOKE_LOG_DIR to keep daemon/client logs (CI uploads them on failure).
set -euo pipefail

BUILD_DIR="${1:-build}"
WORKERD="$BUILD_DIR/tools/ecad_workerd"
SEARCHD="$BUILD_DIR/tools/ecad_searchd"
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
REQUEST_FLAGS=(--population 6 --evaluations 24 --batch 3 --threads 4)

wait_for_listening() {
  local out="$1" what="$2"
  for _ in $(seq 1 100); do
    if grep -q LISTENING "$out" 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: $what did not come up"; cat "$out.err" 2>/dev/null || true; exit 1
}

start_worker() {
  local out="$1"; shift
  "$WORKERD" --port 0 "$@" >"$out" 2>"$out.err" &
  PIDS+=($!)
  wait_for_listening "$out" "worker daemon"
}

start_searchd() {
  local out="$1"; shift
  "$SEARCHD" --serve --port 0 "$@" >"$out" 2>"$out.err" &
  PIDS+=($!)
  wait_for_listening "$out" "search daemon"
}

diff_or_die() {
  local reference="$1" candidate="$2" what="$3"
  if ! diff -u "$reference" "$candidate"; then
    echo "FAIL: $what diverged from the standalone run"
    exit 1
  fi
}

echo "== search service smoke"
echo "== starting a two-worker fleet and a resident search daemon"
start_worker "$WORK/w1.out" "${WORKER_FLAGS[@]}"
start_worker "$WORK/w2.out" "${WORKER_FLAGS[@]}"
PORT1=$(awk '{print $2}' "$WORK/w1.out")
PORT2=$(awk '{print $2}' "$WORK/w2.out")
start_searchd "$WORK/daemon.out" --workers "127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
  --max-searches 3 --dispatch-slots 2 \
  --metrics-json "$WORK/daemon_metrics.json" --trace-file "$WORK/daemon_trace.json"
DAEMON_PID=${PIDS[-1]}
DAEMON_PORT=$(awk '{print $2}' "$WORK/daemon.out")
echo "   workers on :$PORT1 :$PORT2, daemon on :$DAEMON_PORT"

echo "== leg 1: three concurrent tenants, each byte-identical to standalone"
SEEDS=(21 22 23)
for seed in "${SEEDS[@]}"; do
  "$SEARCHD" --seed "$seed" "${REQUEST_FLAGS[@]}" "${WORKER_FLAGS[@]}" \
    >"$WORK/ref_$seed.out" 2>"$WORK/ref_$seed.err"
done
SUBMIT_PIDS=()
for seed in "${SEEDS[@]}"; do
  "$SEARCHD" --submit "127.0.0.1:$DAEMON_PORT" --seed "$seed" "${REQUEST_FLAGS[@]}" \
    >"$WORK/sub_$seed.out" 2>"$WORK/sub_$seed.err" &
  SUBMIT_PIDS+=($!)
done
for i in "${!SEEDS[@]}"; do
  if ! wait "${SUBMIT_PIDS[$i]}"; then
    echo "FAIL: submitted search (seed ${SEEDS[$i]}) exited nonzero"
    cat "$WORK/sub_${SEEDS[$i]}.err"
    exit 1
  fi
done
for seed in "${SEEDS[@]}"; do
  diff_or_die "$WORK/ref_$seed.out" "$WORK/sub_$seed.out" "submitted search (seed $seed)"
  grep -Eq "generation [0-9]+: [0-9]+/24 evaluated" "$WORK/sub_$seed.err" || {
    echo "FAIL: seed $seed client saw no streamed progress frames"; exit 1; }
done
echo "   OK: 3 concurrent submitted searches == standalone, byte for byte"

echo "== leg 5: stats over the wire — daemon and fleet counters vs tenant records"
"$SEARCHD" --stats "127.0.0.1:$DAEMON_PORT" >"$WORK/daemon_stats.out" 2>"$WORK/daemon_stats.err"
"$SEARCHD" --stats "127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
  >"$WORK/worker_stats.out" 2>"$WORK/worker_stats.err"
grep -q "^STATS 127.0.0.1:$DAEMON_PORT metrics=" "$WORK/daemon_stats.out" || {
  echo "FAIL: --stats printed no report header for the resident daemon"
  cat "$WORK/daemon_stats.out"; exit 1; }
# The standalone reference runs above were in-process, so the only traffic
# these workers ever saw is the three submitted searches — exact accounting:
# every item the daemon dispatched was either evaluated (completed/failed)
# or collapsed onto a within-batch twin on a worker, and the dispatch total
# equals the sum of the `stats models=` lines the three tenants printed.
python3 - "$WORK/daemon_stats.out" "$WORK/worker_stats.out" \
  "$WORK"/sub_21.out "$WORK"/sub_22.out "$WORK"/sub_23.out <<'PY'
import re, sys

def counters(path):
    out = {}
    for line in open(path):
        parts = line.split()
        if len(parts) == 2 and not parts[0].startswith("STATS"):
            try:
                out[parts[0]] = out.get(parts[0], 0) + int(float(parts[1]))
            except ValueError:
                pass
    return out

daemon = counters(sys.argv[1])
fleet = counters(sys.argv[2])
models = sum(int(re.search(r"^stats models=(\d+) ", open(p).read(), re.M).group(1))
             for p in sys.argv[3:6])

dispatched = sum(v for k, v in daemon.items()
                 if k.startswith("net.items_dispatched_total{"))
requeued = daemon.get("net.requeued_items_total", 0)
lookups = daemon.get("evo.cache_lookups_total", 0)
hits = daemon.get("evo.cache_hits_total", 0)
misses = daemon.get("evo.cache_misses_total", 0)
evals = sum(fleet.get(k, 0) for k in ("core.evals_completed_total",
                                      "core.evals_failed_total",
                                      "core.dedup_collapsed_total"))

assert hits + misses == lookups, f"cache: {hits}+{misses} != {lookups}"
assert requeued == 0, f"unexpected requeues in a healthy fleet: {requeued}"
assert dispatched == models, f"daemon dispatched {dispatched} != tenants' models {models}"
assert evals == dispatched, f"fleet-side evals {evals} != daemon dispatched {dispatched}"
print(f"   OK: tenants' models={models} == daemon dispatched == fleet-side evals;"
      f" cache {hits}+{misses}=={lookups}")
PY

echo "== leg 4 (part 1): --stop-server shuts the fleet daemon down"
"$SEARCHD" --submit "127.0.0.1:$DAEMON_PORT" --stop-server
for _ in $(seq 1 100); do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  echo "FAIL: daemon still alive after --stop-server"; exit 1
fi
grep -q "service summary: accepted=3 completed=3 canceled=0 failed=0" "$WORK/daemon.out.err" || {
  echo "FAIL: fleet daemon summary does not account for 3 completed searches"
  grep "service summary" "$WORK/daemon.out.err" || true
  exit 1
}
echo "   OK: daemon exited on Shutdown frame, summary accounts for all 3 tenants"

# Shutdown also flushes the daemon's observability artifacts: the metrics
# snapshot must match what leg 5 read over the wire, and the trace must be
# complete Chrome trace-event JSON.
python3 - "$WORK/daemon_metrics.json" "$WORK/daemon_stats.out" "$WORK/daemon_trace.json" <<'PY'
import json, sys
master = {e["name"]: e["metrics"] for e in json.load(open(sys.argv[1]))["entries"]}
dispatched = sum(int(m["value"]) for name, m in master.items()
                 if name.startswith("net.items_dispatched_total{"))
wire = 0
for line in open(sys.argv[2]):
    parts = line.split()
    if len(parts) == 2 and parts[0].startswith("net.items_dispatched_total{"):
        wire += int(float(parts[1]))
assert dispatched == wire, f"metrics JSON dispatched {dispatched} != wire-read {wire}"
events = json.load(open(sys.argv[3]))
assert any(e.get("ph") == "X" for e in events), "daemon trace has no complete events"
assert any(e.get("cat") == "net" for e in events), "daemon trace has no net spans"
print(f"   OK: daemon metrics JSON matches wire stats (dispatched={dispatched});"
      f" trace holds {len(events)} events")
PY

echo "== leg 2: mid-stream cancel on a slow-evaluation daemon"
# A local analytic worker with injected per-genome delay keeps the search in
# flight long enough to land a CancelSearch frame mid-stream.
start_searchd "$WORK/slow_daemon.out" --worker analytic --eval-delay-ms 20
SLOW_PID=${PIDS[-1]}
SLOW_PORT=$(awk '{print $2}' "$WORK/slow_daemon.out")
CANCEL_RC=0
"$SEARCHD" --submit "127.0.0.1:$SLOW_PORT" --seed 5 --population 6 --evaluations 600 \
  --batch 3 --threads 1 --cancel-after-progress 2 \
  >"$WORK/cancel.out" 2>"$WORK/cancel.err" || CANCEL_RC=$?
if [[ "$CANCEL_RC" != 3 ]]; then
  echo "FAIL: canceled submission exited $CANCEL_RC (want 3)"; cat "$WORK/cancel.err"; exit 1
fi
if [[ -s "$WORK/cancel.out" ]]; then
  echo "FAIL: canceled search leaked a partial record to stdout"; cat "$WORK/cancel.out"; exit 1
fi
grep -q "search canceled: canceled by client" "$WORK/cancel.err" || {
  echo "FAIL: cancel leg missing the canceled-by-client notice"; cat "$WORK/cancel.err"; exit 1; }
echo "   OK: cancel stopped the search early, exit 3, no partial record"

echo "== leg 3: SIGTERM drain with a search in flight"
"$SEARCHD" --submit "127.0.0.1:$SLOW_PORT" --seed 9 --population 6 --evaluations 600 \
  --batch 3 --threads 1 >"$WORK/drain.out" 2>"$WORK/drain.err" &
DRAIN_CLIENT=$!
PIDS+=($DRAIN_CLIENT)
# Let the search get a generation or two in before the signal lands.
for _ in $(seq 1 100); do
  if grep -q "generation" "$WORK/drain.err" 2>/dev/null; then break; fi
  sleep 0.1
done
kill -TERM "$SLOW_PID"
DRAIN_RC=0
wait "$DRAIN_CLIENT" || DRAIN_RC=$?
if [[ "$DRAIN_RC" != 3 ]]; then
  echo "FAIL: drained submission exited $DRAIN_RC (want 3)"; cat "$WORK/drain.err"; exit 1
fi
grep -q "search canceled: daemon draining" "$WORK/drain.err" || {
  echo "FAIL: drain leg missing the daemon-draining notice"; cat "$WORK/drain.err"; exit 1; }
for _ in $(seq 1 100); do
  if ! kill -0 "$SLOW_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$SLOW_PID" 2>/dev/null; then
  echo "FAIL: slow daemon still alive after SIGTERM"; exit 1
fi
grep -q "service summary: accepted=2 completed=0 canceled=2 failed=0" "$WORK/slow_daemon.out.err" || {
  echo "FAIL: slow daemon summary does not account for both canceled searches"
  grep "service summary" "$WORK/slow_daemon.out.err" || true
  exit 1
}
echo "   OK: SIGTERM drained gracefully, every search accounted for"

echo "== leg 6: fleet cache shared across tenants"
# Fresh cache-enabled workers and a fresh resident daemon.  Two tenants
# submit the *same* request, staggered: tenant A evaluates and publishes to
# the fleet tier; tenant B — its own search with its own empty dedup cache —
# settles the shared genomes from the workers' caches instead of
# re-evaluating them.  Whichever tenant reaches a genome second gets the
# hit, so the workers' summed hit counter must be positive either way.
start_worker "$WORK/cw1.out" --cache-bytes 1048576 "${WORKER_FLAGS[@]}"
CW_PORT1=$(awk '{print $2}' "$WORK/cw1.out")
start_worker "$WORK/cw2.out" --cache-bytes 1048576 "${WORKER_FLAGS[@]}"
CW_PORT2=$(awk '{print $2}' "$WORK/cw2.out")
start_searchd "$WORK/cache_daemon.out" \
  --workers "127.0.0.1:$CW_PORT1,127.0.0.1:$CW_PORT2" --max-searches 2 --dispatch-slots 2
CACHE_DAEMON_PORT=$(awk '{print $2}' "$WORK/cache_daemon.out")

"$SEARCHD" --seed 27 "${REQUEST_FLAGS[@]}" "${WORKER_FLAGS[@]}" \
  >"$WORK/ref_27.out" 2>"$WORK/ref_27.err"

"$SEARCHD" --submit "127.0.0.1:$CACHE_DAEMON_PORT" --seed 27 "${REQUEST_FLAGS[@]}" \
  >"$WORK/tenant_a.out" 2>"$WORK/tenant_a.err" &
TENANT_A=$!
PIDS+=($TENANT_A)
# Let tenant A finish (and publish) at least one generation before the
# identical tenant B arrives, so B's early lookups land on warm entries.
for _ in $(seq 1 100); do
  if grep -q "generation" "$WORK/tenant_a.err" 2>/dev/null; then break; fi
  sleep 0.1
done
"$SEARCHD" --submit "127.0.0.1:$CACHE_DAEMON_PORT" --seed 27 "${REQUEST_FLAGS[@]}" \
  >"$WORK/tenant_b.out" 2>"$WORK/tenant_b.err"
if ! wait "$TENANT_A"; then
  echo "FAIL: tenant A exited nonzero"; cat "$WORK/tenant_a.err"; exit 1
fi
diff_or_die "$WORK/ref_27.out" "$WORK/tenant_a.out" "tenant A (cache leg)"
diff_or_die "$WORK/ref_27.out" "$WORK/tenant_b.out" "tenant B (cache leg)"
"$SEARCHD" --stats "127.0.0.1:$CW_PORT1,127.0.0.1:$CW_PORT2" \
  >"$WORK/cw_stats.out" 2>"$WORK/cw_stats.err"
python3 - "$WORK/cw_stats.out" <<'PY'
import sys
counters = {}
for line in open(sys.argv[1]):
    parts = line.split()
    if len(parts) == 2 and not parts[0].startswith("STATS"):
        counters[parts[0]] = counters.get(parts[0], 0) + int(float(parts[1]))
hits = counters.get("fleet.cache_hits_total", 0)
entries = counters.get("fleet.cache_entries", 0)
assert entries > 0, "workers cached nothing despite --cache-bytes"
assert hits > 0, "identical tenants shared no evaluations through the fleet cache"
print(f"   OK: tenants shared {hits} cache hits across {entries} cached entries")
PY
echo "   OK: identical tenants byte-identical and served from the shared fleet cache"

echo "PASS: search service smoke matrix"
