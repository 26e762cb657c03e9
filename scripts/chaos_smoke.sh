#!/usr/bin/env bash
# Crash-safety smoke matrix (crash-safe search acceptance): kill searches at
# the worst possible moments and prove the checkpoint/resume machinery brings
# every one of them back bit-identical to an uninterrupted run:
#
#   leg 1  deterministic crash injection: ECAD_CRASH_AFTER=checkpoint:3
#          aborts the one-shot search right after its 3rd durable snapshot
#          (exit 87); --resume completes it byte-identical to the clean run
#   leg 2  kill -9 mid-search: a slow one-shot search with --checkpoint-dir
#          is SIGKILLed mid-flight; --resume (with a delay-free worker, so
#          timing differs) still reproduces the clean record byte for byte
#   leg 3  torn snapshot: ECAD_CRASH_AFTER=checkpoint_tmp:2 dies after the
#          tmp file is durable but before the rename — the classic torn
#          write.  The leftover .tmp must never be loaded: --resume continues
#          from the previous intact snapshot and still matches byte for byte
#   leg 4  fault-injected wire: ECAD_FAULT drops/truncates a seeded fraction
#          of the master's socket traffic against a live two-daemon fleet;
#          the retry/cooldown/requeue paths must absorb every fault with the
#          search completing byte-identical to the in-process reference, and
#          every remote evaluation must still arrive as a streamed item frame
#          (a fault may sideline an endpoint, never change how it is spoken to)
#   leg 5  serve-mode kill -9 + journal replay: a resident daemon with one
#          search mid-flight (checkpointed) and one accepted-but-queued
#          (journal only) is SIGKILLed; a restart with --resume re-admits
#          both through the FairShareGate and writes each final record —
#          byte-identical to standalone runs of the same requests
#   leg 6  persistent fleet cache: ecad_workerd --cache-file snapshots its
#          LRU on SIGTERM and reloads it at startup, so a restarted daemon
#          serves a repeat search from cache instead of re-evaluating
#
# Usage: scripts/chaos_smoke.sh <build-dir>
# Set SMOKE_LOG_DIR to keep daemon/search logs and checkpoint dirs (CI
# uploads them on failure).
set -euo pipefail

BUILD_DIR="${1:-build}"
WORKERD="$BUILD_DIR/tools/ecad_workerd"
SEARCHD="$BUILD_DIR/tools/ecad_searchd"
# Engine snapshot format generation; scripts/lint_wire_protocol.py checks
# this against kSnapshotFormatVersion in src/util/snapshot_io.h so the
# matrix can't silently drift from the code.
SNAPSHOT_VERSION=1
CRASH_EXIT=87  # util::crash_point's _Exit code
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
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  [[ "$KEEP_WORK" == 1 ]] || rm -rf "$WORK"
}
trap cleanup EXIT

diff_or_die() {
  local reference="$1" candidate="$2" what="$3"
  if ! diff -u "$reference" "$candidate"; then
    echo "FAIL: $what diverged from the uninterrupted run"
    exit 1
  fi
}

wait_for_file() {
  local path="$1" what="$2"
  for _ in $(seq 1 200); do
    if [[ -s "$path" ]]; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: $what ($path) never appeared"; exit 1
}

wait_for_listening() {
  local out="$1" what="$2"
  for _ in $(seq 1 100); do
    if grep -q LISTENING "$out" 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: $what did not come up"; cat "$out.err" 2>/dev/null || true; exit 1
}

echo "== chaos smoke (engine snapshot format v$SNAPSHOT_VERSION)"

# A medium search against the delay-free analytic worker: long enough for
# several generation boundaries, fast enough to replay many times.
CHAOS_FLAGS=(--seed 33 --population 6 --evaluations 120 --batch 4 --threads 2
             --worker analytic)

echo "== clean reference run (uninterrupted, no checkpointing)"
"$SEARCHD" "${CHAOS_FLAGS[@]}" >"$WORK/clean.out" 2>"$WORK/clean.err"

echo "== leg 1: deterministic crash after the 3rd durable checkpoint"
CKPT1="$WORK/ckpt_leg1"
RC=0
ECAD_CRASH_AFTER=checkpoint:3 "$SEARCHD" "${CHAOS_FLAGS[@]}" --checkpoint-dir "$CKPT1" \
  >"$WORK/leg1_crash.out" 2>"$WORK/leg1_crash.err" || RC=$?
if [[ "$RC" != "$CRASH_EXIT" ]]; then
  echo "FAIL: crash injection exited $RC (want $CRASH_EXIT)"; cat "$WORK/leg1_crash.err"; exit 1
fi
grep -q "injected crash at 'checkpoint'" "$WORK/leg1_crash.err" || {
  echo "FAIL: crash leg missing the crash_point notice"; cat "$WORK/leg1_crash.err"; exit 1; }
[[ -s "$CKPT1/search_1.ckpt" ]] || { echo "FAIL: no checkpoint survived the crash"; exit 1; }
"$SEARCHD" --resume --checkpoint-dir "$CKPT1" --worker analytic \
  >"$WORK/leg1_resumed.out" 2>"$WORK/leg1_resumed.err"
diff_or_die "$WORK/clean.out" "$WORK/leg1_resumed.out" "crash-injected + resumed search"
[[ -e "$CKPT1/search_1.done" ]] || { echo "FAIL: resumed search left no .done marker"; exit 1; }
echo "   OK: crashed after checkpoint 3, resumed byte-identical, sealed with .done"

echo "== leg 2: kill -9 mid-search, resume with a different worker tempo"
CKPT2="$WORK/ckpt_leg2"
"$SEARCHD" "${CHAOS_FLAGS[@]}" --eval-delay-ms 30 --checkpoint-dir "$CKPT2" \
  >"$WORK/leg2_killed.out" 2>"$WORK/leg2_killed.err" &
VICTIM=$!
PIDS+=($VICTIM)
wait_for_file "$CKPT2/search_1.ckpt" "first checkpoint of the doomed search"
sleep 0.5  # let a couple more generations land
kill -9 "$VICTIM"
wait "$VICTIM" 2>/dev/null || true
# Resume delay-free: wall-clock timing must be irrelevant to the record.
"$SEARCHD" --resume --checkpoint-dir "$CKPT2" --worker analytic \
  >"$WORK/leg2_resumed.out" 2>"$WORK/leg2_resumed.err"
diff_or_die "$WORK/clean.out" "$WORK/leg2_resumed.out" "SIGKILLed + resumed search"
echo "   OK: kill -9 mid-search, resumed byte-identical"

echo "== leg 3: torn snapshot — crash between tmp fsync and rename"
CKPT3="$WORK/ckpt_leg3"
RC=0
ECAD_CRASH_AFTER=checkpoint_tmp:2 "$SEARCHD" "${CHAOS_FLAGS[@]}" --checkpoint-dir "$CKPT3" \
  >"$WORK/leg3_crash.out" 2>"$WORK/leg3_crash.err" || RC=$?
if [[ "$RC" != "$CRASH_EXIT" ]]; then
  echo "FAIL: torn-write injection exited $RC (want $CRASH_EXIT)"; cat "$WORK/leg3_crash.err"; exit 1
fi
[[ -s "$CKPT3/search_1.ckpt.tmp" ]] || {
  echo "FAIL: torn-write leg left no orphaned .tmp file"; ls -la "$CKPT3"; exit 1; }
[[ -s "$CKPT3/search_1.ckpt" ]] || {
  echo "FAIL: the previous intact checkpoint is gone"; ls -la "$CKPT3"; exit 1; }
"$SEARCHD" --resume --checkpoint-dir "$CKPT3" --worker analytic \
  >"$WORK/leg3_resumed.out" 2>"$WORK/leg3_resumed.err"
diff_or_die "$WORK/clean.out" "$WORK/leg3_resumed.out" "torn-snapshot + resumed search"
echo "   OK: orphaned .tmp ignored, resumed from the intact snapshot, byte-identical"

echo "== leg 4: seeded socket faults against a live fleet"
# Identical worker spec on every process — the determinism contract.
NET_WORKER_FLAGS=(--worker accuracy --data-seed 7 --data-samples 400 --train-epochs 3
                  --eval-seed 42)
NET_SEARCH_FLAGS=(--seed 11 --population 6 --evaluations 24 --batch 3 --threads 4
                  "${NET_WORKER_FLAGS[@]}")
start_worker() {
  local out="$1"; shift
  "$WORKERD" --port 0 "$@" >"$out" 2>"$out.err" &
  PIDS+=($!)
  wait_for_listening "$out" "worker daemon"
}
start_worker "$WORK/w1.out" "${NET_WORKER_FLAGS[@]}"
start_worker "$WORK/w2.out" "${NET_WORKER_FLAGS[@]}"
PORT1=$(awk '{print $2}' "$WORK/w1.out")
PORT2=$(awk '{print $2}' "$WORK/w2.out")
"$SEARCHD" "${NET_SEARCH_FLAGS[@]}" >"$WORK/net_local.out" 2>"$WORK/net_local.err"
# Modest probabilities: every fault must be absorbed by retry/cooldown/
# requeue, never surfaced.  The seed makes a CI failure replayable verbatim.
ECAD_FAULT="seed:33,drop:0.02,short_write:0.02,delay_ms:1" \
  "$SEARCHD" --workers "127.0.0.1:$PORT1,127.0.0.1:$PORT2" "${NET_SEARCH_FLAGS[@]}" \
  --metrics-json "$WORK/faulty.json" >"$WORK/faulty.out" 2>"$WORK/faulty.err"
diff_or_die "$WORK/net_local.out" "$WORK/faulty.out" "fault-injected search"
# searchd's summary: "remote: N remote in B batch frames, S streamed item
# frames ..."; a faulted handshake must not leave an endpoint answering in
# any other frame shape, so N == S.
read -r REMOTE_EVALS STREAMED_ITEMS < <(sed -nE \
  's/.*remote: ([0-9]+) remote in [0-9]+ batch frames, ([0-9]+) streamed item frames.*/\1 \2/p' \
  "$WORK/faulty.err") || true
if [[ -z "${REMOTE_EVALS:-}" || "$REMOTE_EVALS" != "$STREAMED_ITEMS" ]]; then
  echo "FAIL: ${REMOTE_EVALS:-?} remote evaluations but ${STREAMED_ITEMS:-?} streamed item frames"
  grep "search finished" "$WORK/faulty.err" || true
  exit 1
fi
python3 - "$WORK/faulty.json" <<'PY'
import json, sys
entries = {e["name"]: e["metrics"] for e in json.load(open(sys.argv[1]))["entries"]}
injected = sum(int(m["value"]) for name, m in entries.items()
               if name.startswith("net.faults_injected_total"))
assert injected > 0, "ECAD_FAULT was set but zero faults were injected"
print(f"   OK: {injected} socket faults injected and absorbed, results identical")
PY
echo "   OK: fault-injected distributed search == local, byte for byte"

echo "== leg 5: serve-mode kill -9 — snapshot + journal both replayed"
CKPT5="$WORK/ckpt_leg5"
"$SEARCHD" --serve --port 0 --worker analytic --eval-delay-ms 20 --max-searches 1 \
  --checkpoint-dir "$CKPT5" >"$WORK/daemon.out" 2>"$WORK/daemon.err" &
DAEMON=$!
PIDS+=($DAEMON)
wait_for_listening "$WORK/daemon.out" "search daemon"
DPORT=$(awk '{print $2}' "$WORK/daemon.out")
# Search 1 runs (slowly, checkpointing); search 2 is accepted but queued
# behind --max-searches 1, so it exists only in the submission journal.
"$SEARCHD" --submit "127.0.0.1:$DPORT" --seed 41 --population 6 --evaluations 600 \
  --batch 3 --threads 1 >"$WORK/sub1.out" 2>"$WORK/sub1.err" &
SUB1=$!
PIDS+=($SUB1)
wait_for_file "$CKPT5/search_1.ckpt" "checkpoint of the in-flight tenant"
"$SEARCHD" --submit "127.0.0.1:$DPORT" --seed 43 --population 6 --evaluations 18 \
  --batch 3 --threads 1 >"$WORK/sub2.out" 2>"$WORK/sub2.err" &
SUB2=$!
PIDS+=($SUB2)
for _ in $(seq 1 100); do
  if grep -q "accepted by" "$WORK/sub2.err" 2>/dev/null; then break; fi
  sleep 0.1
done
grep -q "accepted by" "$WORK/sub2.err" || { echo "FAIL: tenant 2 was never accepted"; exit 1; }
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
# Both clients die with the daemon; that's the point.
wait "$SUB1" 2>/dev/null || true
wait "$SUB2" 2>/dev/null || true

# Standalone references for both requests (delay-free: tempo-independent).
"$SEARCHD" --seed 41 --population 6 --evaluations 600 --batch 3 --threads 1 --worker analytic \
  >"$WORK/ref_41.out" 2>"$WORK/ref_41.err"
"$SEARCHD" --seed 43 --population 6 --evaluations 18 --batch 3 --threads 1 --worker analytic \
  >"$WORK/ref_43.out" 2>"$WORK/ref_43.err"

"$SEARCHD" --serve --port 0 --worker analytic --resume --checkpoint-dir "$CKPT5" \
  >"$WORK/daemon2.out" 2>"$WORK/daemon2.err" &
DAEMON2=$!
PIDS+=($DAEMON2)
wait_for_listening "$WORK/daemon2.out" "restarted search daemon"
grep -q "re-admitted 2 unfinished search(es)" "$WORK/daemon2.err" || {
  echo "FAIL: restarted daemon did not re-admit both searches"
  cat "$WORK/daemon2.err"; exit 1; }
wait_for_file "$CKPT5/search_1.record" "resumed record of the in-flight tenant"
wait_for_file "$CKPT5/search_2.record" "resumed record of the journal-only tenant"
diff_or_die "$WORK/ref_41.out" "$CKPT5/search_1.record" "snapshot-resumed tenant (seed 41)"
diff_or_die "$WORK/ref_43.out" "$CKPT5/search_2.record" "journal-replayed tenant (seed 43)"
kill "$DAEMON2" 2>/dev/null || true
wait "$DAEMON2" 2>/dev/null || true
echo "   OK: snapshot tenant resumed mid-flight, journal tenant replayed from scratch"

echo "== leg 6: persistent fleet cache survives a worker restart"
CACHE_FILE="$WORK/fleet_cache.bin"
start_worker "$WORK/cw1.out" --cache-bytes 1048576 --cache-file "$CACHE_FILE" \
  "${NET_WORKER_FLAGS[@]}"
CW_PID=${PIDS[-1]}
CW_PORT=$(awk '{print $2}' "$WORK/cw1.out")
"$SEARCHD" --workers "127.0.0.1:$CW_PORT" "${NET_SEARCH_FLAGS[@]}" \
  >"$WORK/cache_cold.out" 2>"$WORK/cache_cold.err"
diff_or_die "$WORK/net_local.out" "$WORK/cache_cold.out" "cold cache-file search"
kill -TERM "$CW_PID"
wait "$CW_PID" 2>/dev/null || true
[[ -s "$CACHE_FILE" ]] || { echo "FAIL: SIGTERM left no cache snapshot on disk"; exit 1; }
start_worker "$WORK/cw2.out" --cache-bytes 1048576 --cache-file "$CACHE_FILE" \
  "${NET_WORKER_FLAGS[@]}"
CW_PORT2=$(awk '{print $2}' "$WORK/cw2.out")
grep -Eq "reloaded [1-9][0-9]* fleet-cache entries" "$WORK/cw2.out.err" || {
  echo "FAIL: restarted worker reloaded nothing from the cache file"
  cat "$WORK/cw2.out.err"; exit 1; }
"$SEARCHD" --workers "127.0.0.1:$CW_PORT2" "${NET_SEARCH_FLAGS[@]}" \
  --metrics-json "$WORK/cache_warm.json" >"$WORK/cache_warm.out" 2>"$WORK/cache_warm.err"
diff_or_die "$WORK/net_local.out" "$WORK/cache_warm.out" "warm cache-file search"
python3 - "$WORK/cache_warm.json" <<'PY'
import json, sys
entries = {e["name"]: e["metrics"] for e in json.load(open(sys.argv[1]))["entries"]}
hits = int(entries.get("net.fleet_cache_hits_total", {"value": 0})["value"])
misses = int(entries.get("net.fleet_cache_misses_total", {"value": 0})["value"])
assert hits + misses > 0, "warm run never consulted the fleet cache"
rate = hits / (hits + misses)
assert rate >= 0.9, f"warm-restart hit rate {rate:.2%} < 90% ({hits}/{hits + misses})"
print(f"   OK: restarted worker served {rate:.0%} from the reloaded cache "
      f"({hits}/{hits + misses})")
PY
echo "   OK: cache file reloaded across restart, repeat search served warm"

echo "PASS: chaos smoke matrix"
