#!/usr/bin/env python3
"""Bench-regression gate: diff fresh bench JSON against committed baselines.

CI runs every bench with a fresh build and drops ``BENCH_*.json`` into an
artifact directory; this script compares each fresh file against the
baseline of the same name committed at the repo root and fails the build
when performance regressed beyond noise:

  * **Throughput** (``gflops``): raw GFLOP/s differ across runner
    generations, so absolute thresholds are useless.  Instead every shared
    entry gets a fresh/baseline ratio and each ratio is normalized by the
    *median* ratio across the file — a uniformly slower machine moves the
    median and passes, a single kernel that fell off a cliff does not.
    An entry fails when its normalized ratio drops below
    ``1 - --max-gflops-drop`` (default 0.15: >15% below the fleet median).
  * **Tail latency** (``p50_ms``/``p99_ms``): gate on the *shape* of the
    distribution, not the absolute milliseconds — the fresh ``p99/p50``
    tail ratio must stay within ``--max-tail-growth`` (default 2.0) times
    the baseline's tail ratio.  This is what protects the streaming-wire
    p99 win (see BENCH_batch_latency.json) from quietly rotting.
  * **Fleet-cache hit rate** (metrics-snapshot flavor only): the daemons'
    ``--metrics-json`` dumps carry the result-cache counters on both sides
    of the wire (``net.fleet_cache_hits_total``/``..._misses_total`` from
    the master, ``fleet.cache_hits_total``/``..._misses_total`` from the
    workers).  When baseline and fresh snapshots both saw cache traffic,
    the fresh hit rate must stay above the baseline rate minus
    ``--max-hit-rate-drop`` (default 0.20) — a warm-restart or dedup
    regression that silently turns hits into misses fails the build.

Entries are matched by ``name``; entries present on only one side are
reported but not fatal (``--quick`` CI runs legitimately produce a subset).
A fresh file with no committed baseline is skipped with a notice.  When the
two files record different GEMM kernel bodies (``gemm_isa`` metadata, e.g.
an AVX-512 baseline against a runner without it), the report names both
levels; the gate itself is unchanged.

Usage:
    scripts/check_bench_regression.py --baseline-dir . --fresh-dir bench-json
    scripts/check_bench_regression.py --self-test

``--self-test`` fabricates baseline/fresh pairs — a clean pass on a
uniformly slower machine, an injected 0.5x single-kernel GFLOP/s collapse,
an injected 30x p99 blowup, and an injected fleet-cache hit-rate collapse
on both counter families — and asserts the gate passes/fails each
accordingly, so CI proves the gate can still say no.
"""

import argparse
import json
import pathlib
import statistics
import sys
import tempfile


# Hit/miss counter pairs exported into metrics-snapshot dumps: the master's
# wire-level view and the workers' cache-tier view of the same traffic.
CACHE_COUNTER_PAIRS = (
    ("net.fleet_cache_hits_total", "net.fleet_cache_misses_total"),
    ("fleet.cache_hits_total", "fleet.cache_misses_total"),
)


def load_entries(path):
    """-> ({entry name: metrics dict}, metadata dict) from one BENCH file.

    Metrics-snapshot reports (``"flavor": "metrics-snapshot"`` metadata,
    written by the daemons' ``--metrics-json`` dumps) carry histogram
    quantiles in seconds (``p50_s``/``p99_s``); normalize them onto the
    ``p50_ms``/``p99_ms`` keys the tail gate reads, so a committed daemon
    snapshot gets the same tail-shape protection as the latency benches.
    """
    data = json.loads(path.read_text())
    entries = {entry["name"]: dict(entry.get("metrics", {}))
               for entry in data.get("entries", [])}
    metadata = data.get("metadata", {})
    if metadata.get("flavor") == "metrics-snapshot":
        for metrics in entries.values():
            for sec_key, ms_key in (("p50_s", "p50_ms"), ("p99_s", "p99_ms")):
                if metrics.get(sec_key) and ms_key not in metrics:
                    metrics[ms_key] = metrics[sec_key] * 1000.0
    return entries, metadata


def cache_hit_rate(entries, hits_key, misses_key):
    """-> hits/(hits+misses) from counter entries, or None without traffic."""
    hits = entries.get(hits_key, {}).get("value")
    misses = entries.get(misses_key, {}).get("value")
    if hits is None or misses is None:
        return None
    total = hits + misses
    if total <= 0:
        return None
    return hits / total


def check_file(baseline_path, fresh_path, max_gflops_drop, max_tail_growth,
               max_hit_rate_drop):
    """-> (violations, notices) comparing one fresh bench file to its baseline."""
    violations = []
    notices = []
    baseline, baseline_meta = load_entries(baseline_path)
    fresh, fresh_meta = load_entries(fresh_path)
    baseline_is_snapshot = baseline_meta.get("flavor") == "metrics-snapshot"
    fresh_is_snapshot = fresh_meta.get("flavor") == "metrics-snapshot"
    # GEMM kernel body levels (x86-64-v4 / x86-64-v3 / baseline), named in
    # the report when the two runs used different ones.
    isa_note = ""
    base_isa = baseline_meta.get("gemm_isa")
    fresh_isa = fresh_meta.get("gemm_isa")
    if base_isa != fresh_isa:
        isa_note = (f" [GEMM body: baseline {base_isa or 'unrecorded'}, "
                    f"fresh {fresh_isa or 'unrecorded'}]")
        notices.append(f"{fresh_path.name}: baseline measured on the "
                       f"{base_isa or 'unrecorded'} GEMM body, fresh run on the "
                       f"{fresh_isa or 'unrecorded'} body; GFLOP/s ratios "
                       f"compare different kernels")
    shared = sorted(set(baseline) & set(fresh))
    for name in sorted(set(baseline) ^ set(fresh)):
        side = "baseline" if name in baseline else "fresh"
        notices.append(f"{fresh_path.name}: entry '{name}' only in {side} run (skipped)")
    if not shared:
        notices.append(f"{fresh_path.name}: no shared entries with baseline (nothing gated)")
        return violations, notices

    # --- throughput: median-normalized per-entry GFLOP/s ratios ------------
    ratios = {}
    for name in shared:
        base_gflops = baseline[name].get("gflops")
        fresh_gflops = fresh[name].get("gflops")
        if base_gflops and fresh_gflops:
            ratios[name] = fresh_gflops / base_gflops
    if ratios:
        median_ratio = statistics.median(ratios.values())
        floor = (1.0 - max_gflops_drop) * median_ratio
        for name, ratio in sorted(ratios.items()):
            if ratio < floor:
                violations.append(
                    f"{fresh_path.name}: '{name}' gflops ratio {ratio:.3f} is "
                    f">{max_gflops_drop:.0%} below the median machine-speed "
                    f"ratio {median_ratio:.3f} (floor {floor:.3f}){isa_note}")

    # --- tail latency: p99/p50 shape vs baseline shape ---------------------
    for name in shared:
        base_p50 = baseline[name].get("p50_ms")
        base_p99 = baseline[name].get("p99_ms")
        fresh_p50 = fresh[name].get("p50_ms")
        fresh_p99 = fresh[name].get("p99_ms")
        if not (base_p50 and base_p99 and fresh_p50 and fresh_p99):
            continue
        base_tail = base_p99 / base_p50
        fresh_tail = fresh_p99 / fresh_p50
        if fresh_tail > max_tail_growth * base_tail:
            violations.append(
                f"{fresh_path.name}: '{name}' p99/p50 tail ratio {fresh_tail:.2f} "
                f"exceeds {max_tail_growth:.1f}x the baseline tail ratio {base_tail:.2f}")

    # --- fleet-cache hit rate: warm-cache effectiveness vs baseline --------
    # Gated only when both sides recorded traffic for the same counter pair:
    # a cold baseline (or a bench that never touches the cache) is skipped
    # rather than failed, so non-cache snapshots stay unaffected.
    if baseline_is_snapshot and fresh_is_snapshot:
        for hits_key, misses_key in CACHE_COUNTER_PAIRS:
            base_rate = cache_hit_rate(baseline, hits_key, misses_key)
            fresh_rate = cache_hit_rate(fresh, hits_key, misses_key)
            if base_rate is None or fresh_rate is None:
                continue
            floor = base_rate - max_hit_rate_drop
            if fresh_rate < floor:
                violations.append(
                    f"{fresh_path.name}: '{hits_key}' fleet-cache hit rate "
                    f"{fresh_rate:.3f} fell below the floor {floor:.3f} "
                    f"(baseline {base_rate:.3f} minus allowed drop "
                    f"{max_hit_rate_drop:.2f})")
    return violations, notices


def check_dirs(baseline_dir, fresh_dir, max_gflops_drop, max_tail_growth,
               max_hit_rate_drop):
    violations = []
    notices = []
    fresh_files = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        violations.append(f"{fresh_dir}: no BENCH_*.json produced (bench run broken?)")
    for fresh_path in fresh_files:
        baseline_path = baseline_dir / fresh_path.name
        if not baseline_path.exists():
            notices.append(f"{fresh_path.name}: no committed baseline (skipped)")
            continue
        file_violations, file_notices = check_file(
            baseline_path, fresh_path, max_gflops_drop, max_tail_growth,
            max_hit_rate_drop)
        violations.extend(file_violations)
        notices.extend(file_notices)
    return violations, notices


# ---------------------------------------------------------------------------
# Self-test: fabricate regressions, demand the gate notices.
# ---------------------------------------------------------------------------

def _bench_json(name, entries, metadata=None):
    return json.dumps({
        "bench": name,
        "schema_version": 1,
        "metadata": metadata or {},
        "entries": [{"name": n, "metrics": m} for n, m in entries.items()],
    })


def self_test():
    failures = []
    baseline_gemm = {
        "a/64": {"gflops": 10.0},
        "b/64": {"gflops": 20.0},
        "c/64": {"gflops": 40.0},
    }
    baseline_latency = {
        "v2_batch": {"p50_ms": 2.0, "p99_ms": 60.0},
        "v3_streaming": {"p50_ms": 2.0, "p99_ms": 2.4},
    }

    def run_case(label, fresh_gemm, fresh_latency, expect_fail, needle=""):
        with tempfile.TemporaryDirectory() as tmp:
            base = pathlib.Path(tmp) / "base"
            fresh = pathlib.Path(tmp) / "fresh"
            base.mkdir()
            fresh.mkdir()
            (base / "BENCH_micro_gemm.json").write_text(_bench_json("micro_gemm", baseline_gemm))
            (base / "BENCH_batch_latency.json").write_text(
                _bench_json("batch_latency", baseline_latency))
            (fresh / "BENCH_micro_gemm.json").write_text(_bench_json("micro_gemm", fresh_gemm))
            (fresh / "BENCH_batch_latency.json").write_text(
                _bench_json("batch_latency", fresh_latency))
            violations, _ = check_dirs(base, fresh, 0.15, 2.0, 0.20)
        if expect_fail and not any(needle in v for v in violations):
            failures.append(f"self-test '{label}': expected a violation containing "
                            f"'{needle}', got {violations or '[clean pass]'}")
        if not expect_fail and violations:
            failures.append(f"self-test '{label}': expected a clean pass, got {violations}")

    # A uniformly 0.8x-slower machine: every ratio equals the median, clean.
    run_case("uniformly slower machine passes",
             {n: {"gflops": m["gflops"] * 0.8} for n, m in baseline_gemm.items()},
             baseline_latency, expect_fail=False)
    # One kernel collapses to 0.5x while the rest hold: must fail.
    run_case("single-kernel gflops collapse fails",
             {"a/64": {"gflops": 10.0}, "b/64": {"gflops": 20.0}, "c/64": {"gflops": 20.0}},
             baseline_latency, expect_fail=True, needle="'c/64' gflops ratio")
    # Streaming p99 blows up 30x (p50 steady): the tail-shape gate must fail.
    run_case("p99 tail blowup fails",
             baseline_gemm,
             {"v2_batch": {"p50_ms": 2.0, "p99_ms": 60.0},
              "v3_streaming": {"p50_ms": 2.0, "p99_ms": 72.0}},
             expect_fail=True, needle="'v3_streaming' p99/p50 tail ratio")
    # Subset fresh run (quick mode): missing entries are notices, not failures.
    run_case("quick-mode subset passes",
             {"a/64": {"gflops": 10.0}}, baseline_latency, expect_fail=False)

    # Metrics-snapshot flavor: daemon --metrics-json dumps quote quantiles in
    # seconds; the gate must normalize them and apply the same tail check.
    baseline_snapshot = {
        "core.eval_seconds": {"count": 100.0, "sum": 0.8, "p50_s": 0.008, "p99_s": 0.016},
        "core.evals_completed_total": {"value": 100.0},
        "net.fleet_cache_hits_total": {"value": 90.0},
        "net.fleet_cache_misses_total": {"value": 10.0},
        "fleet.cache_hits_total": {"value": 90.0},
        "fleet.cache_misses_total": {"value": 10.0},
    }

    def run_snapshot_case(label, fresh_snapshot, expect_fail, needle=""):
        with tempfile.TemporaryDirectory() as tmp:
            base = pathlib.Path(tmp) / "base"
            fresh = pathlib.Path(tmp) / "fresh"
            base.mkdir()
            fresh.mkdir()
            flavor = {"flavor": "metrics-snapshot"}
            (base / "BENCH_searchd.json").write_text(
                _bench_json("searchd", baseline_snapshot, flavor))
            (fresh / "BENCH_searchd.json").write_text(
                _bench_json("searchd", fresh_snapshot, flavor))
            violations, _ = check_dirs(base, fresh, 0.15, 2.0, 0.20)
        if expect_fail and not any(needle in v for v in violations):
            failures.append(f"self-test '{label}': expected a violation containing "
                            f"'{needle}', got {violations or '[clean pass]'}")
        if not expect_fail and violations:
            failures.append(f"self-test '{label}': expected a clean pass, got {violations}")

    run_snapshot_case("steady metrics snapshot passes",
                      baseline_snapshot, expect_fail=False)
    run_snapshot_case("metrics-snapshot p99 blowup fails",
                      dict(baseline_snapshot,
                           **{"core.eval_seconds": {"count": 100.0, "sum": 0.9,
                                                    "p50_s": 0.008, "p99_s": 0.2}}),
                      expect_fail=True, needle="'core.eval_seconds' p99/p50 tail ratio")
    # The warm master cache turns to misses (0.9 -> 0.5 hit rate): the
    # hit-rate floor (0.9 - 0.20 = 0.7) must catch it.
    run_snapshot_case("fleet-cache hit-rate collapse fails",
                      dict(baseline_snapshot,
                           **{"net.fleet_cache_hits_total": {"value": 50.0},
                              "net.fleet_cache_misses_total": {"value": 50.0}}),
                      expect_fail=True,
                      needle="'net.fleet_cache_hits_total' fleet-cache hit rate")
    # Same collapse on the workers' cache-tier counters: gated independently.
    run_snapshot_case("worker cache-tier hit-rate collapse fails",
                      dict(baseline_snapshot,
                           **{"fleet.cache_hits_total": {"value": 10.0},
                              "fleet.cache_misses_total": {"value": 90.0}}),
                      expect_fail=True,
                      needle="'fleet.cache_hits_total' fleet-cache hit rate")
    # A drop within tolerance (0.9 -> 0.75 >= floor 0.7) stays clean.
    run_snapshot_case("tolerated hit-rate dip passes",
                      dict(baseline_snapshot,
                           **{"net.fleet_cache_hits_total": {"value": 75.0},
                              "net.fleet_cache_misses_total": {"value": 25.0}}),
                      expect_fail=False)
    # Cold-cache snapshots (no traffic on either side) are skipped, not failed.
    cold = {k: v for k, v in baseline_snapshot.items() if "cache" not in k}
    run_cold_case_entries = dict(cold,
                                 **{"net.fleet_cache_hits_total": {"value": 0.0},
                                    "net.fleet_cache_misses_total": {"value": 0.0}})
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp) / "base"
        fresh = pathlib.Path(tmp) / "fresh"
        base.mkdir()
        fresh.mkdir()
        flavor = {"flavor": "metrics-snapshot"}
        (base / "BENCH_searchd.json").write_text(
            _bench_json("searchd", run_cold_case_entries, flavor))
        (fresh / "BENCH_searchd.json").write_text(
            _bench_json("searchd", run_cold_case_entries, flavor))
        violations, _ = check_dirs(base, fresh, 0.15, 2.0, 0.20)
    if violations:
        failures.append(f"self-test 'cold cache skipped': expected a clean pass, "
                        f"got {violations}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=pathlib.Path, default=pathlib.Path("."),
                        help="directory holding the committed BENCH_*.json baselines")
    parser.add_argument("--fresh-dir", type=pathlib.Path, default=pathlib.Path("bench-json"),
                        help="directory holding freshly generated BENCH_*.json files")
    parser.add_argument("--max-gflops-drop", type=float, default=0.15,
                        help="max fractional GFLOP/s drop below the median ratio (default 0.15)")
    parser.add_argument("--max-tail-growth", type=float, default=2.0,
                        help="max p99/p50 tail-ratio growth vs baseline (default 2.0)")
    parser.add_argument("--max-hit-rate-drop", type=float, default=0.20,
                        help="max fleet-cache hit-rate drop below the baseline "
                             "rate in metrics snapshots (default 0.20)")
    parser.add_argument("--self-test", action="store_true",
                        help="prove the gate fails on injected regressions")
    options = parser.parse_args()

    if options.self_test:
        failures = self_test()
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}", file=sys.stderr)
        if not failures:
            print("check_bench_regression self-test: all injected regressions detected")
        return 1 if failures else 0

    violations, notices = check_dirs(options.baseline_dir, options.fresh_dir,
                                     options.max_gflops_drop, options.max_tail_growth,
                                     options.max_hit_rate_drop)
    for notice in notices:
        print(f"bench-gate note: {notice}")
    for violation in violations:
        print(f"bench-gate: {violation}", file=sys.stderr)
    if not violations:
        print("bench-gate: no performance regressions beyond thresholds")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
