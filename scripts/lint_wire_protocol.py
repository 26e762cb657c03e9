#!/usr/bin/env python3
"""Wire-protocol invariant linter.

Cross-checks the invariants that keep the distributed evaluation service's
wire protocol honest but that no single compiler ever sees end to end:

  1. Every ``MsgType`` in ``src/net/wire.h`` has a golden fixture
     ``tests/net/golden/{tag}[_variant]_v{kProtocolVersion}.bin`` — so a new
     message can't ship without pinning its bytes — and no fixture sits at
     any other version, so a version bump can't leave stale fixtures behind
     (the wire speaks exactly one generation).
  2. Every ``write_X`` payload codec declared in ``wire.h`` has a matching
     ``read_X`` (and vice versa), and some test under ``tests/`` references
     both — a round-trip without a test is a round-trip on faith.
  3. ``kProtocolVersion`` agrees across ``src/net/wire.h``, ``README.md``,
     and ``scripts/loopback_smoke.sh`` — the three places a human reads the
     current protocol generation.
  4. ``kSnapshotFormatVersion`` (the persisted engine-snapshot format in
     ``src/util/snapshot_io.h``) agrees with ``README.md`` and
     ``scripts/chaos_smoke.sh``, and the committed golden snapshot fixture
     ``tests/evo/golden/engine_snapshot_v{N}.bin`` exists at exactly that
     version — a checkpoint a crashed daemon wrote must stay loadable, so
     the format can't change without bumping the version and re-pinning the
     bytes.

Run from anywhere:

    python3 scripts/lint_wire_protocol.py [--repo-root DIR]

Exit status 0 when every invariant holds, 1 with one line per violation
otherwise.  ``--self-test`` sabotages copies of the real inputs and asserts
the linter catches each class of breakage (run by CI and ctest so the linter
itself can't rot into a yes-machine).
"""

import argparse
import pathlib
import re
import shutil
import sys
import tempfile

WIRE_H = "src/net/wire.h"
GOLDEN_DIR = "tests/net/golden"
TESTS_DIR = "tests"
README = "README.md"
SMOKE_SCRIPT = "scripts/loopback_smoke.sh"
SNAPSHOT_IO_H = "src/util/snapshot_io.h"
CHAOS_SCRIPT = "scripts/chaos_smoke.sh"
EVO_GOLDEN_DIR = "tests/evo/golden"


def snake_case(name):
    """CamelCase MsgType name -> golden-fixture tag (EvalBatchDone -> eval_batch_done)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def parse_msg_types(wire_h_text):
    """-> ordered {name: numeric value} from the MsgType enum."""
    match = re.search(r"enum\s+class\s+MsgType\s*:\s*std::uint16_t\s*\{(.*?)\};",
                      wire_h_text, re.DOTALL)
    if not match:
        raise ValueError(f"{WIRE_H}: could not find the MsgType enum")
    types = {}
    for entry in re.finditer(r"^\s*(\w+)\s*=\s*(\d+)\s*,", match.group(1), re.MULTILINE):
        types[entry.group(1)] = int(entry.group(2))
    if not types:
        raise ValueError(f"{WIRE_H}: MsgType enum parsed empty")
    return types


def parse_protocol_version(wire_h_text):
    match = re.search(r"kProtocolVersion\s*=\s*(\d+)\s*;", wire_h_text)
    if not match:
        raise ValueError(f"{WIRE_H}: could not find kProtocolVersion")
    return int(match.group(1))


def parse_snapshot_version(snapshot_io_h_text):
    match = re.search(r"kSnapshotFormatVersion\s*=\s*(\d+)\s*;", snapshot_io_h_text)
    if not match:
        raise ValueError(f"{SNAPSHOT_IO_H}: could not find kSnapshotFormatVersion")
    return int(match.group(1))


def parse_codec_pairs(wire_h_text):
    """-> (writers, readers): the X suffixes of write_X / read_X declarations."""
    writers = set(re.findall(r"\bvoid\s+write_(\w+)\s*\(", wire_h_text))
    readers = set(re.findall(r"\b\w[\w:<>]*\s+read_(\w+)\s*\(", wire_h_text))
    return writers, readers


def assign_fixtures(files, tags):
    """-> ({tag: set of versions covered}, [unmatched file names]).

    A file belongs to the *longest* matching tag prefix, so
    ``hello_ack_v7.bin`` never satisfies the ``hello`` tag by accident.
    """
    covered = {tag: set() for tag in tags}
    unmatched = []
    by_length = sorted(tags, key=len, reverse=True)
    for name in files:
        stem = name[:-len(".bin")]
        version_match = re.search(r"_v(\d+)$", stem)
        body = stem[: version_match.start()] if version_match else stem
        tag = next((t for t in by_length if body == t or body.startswith(t + "_")), None)
        if version_match and tag:
            covered[tag].add(int(version_match.group(1)))
        else:
            unmatched.append(name)
    return covered, unmatched


def lint(root):
    """-> list of violation strings (empty when the protocol is consistent)."""
    errors = []
    wire_h_text = (root / WIRE_H).read_text()

    types = parse_msg_types(wire_h_text)
    declared = parse_protocol_version(wire_h_text)

    # --- invariant 1: one golden fixture generation, kProtocolVersion -----
    golden = root / GOLDEN_DIR
    tags = {snake_case(name): name for name in types}
    files = sorted(p.name for p in golden.glob("*.bin"))
    covered, unmatched = assign_fixtures(files, set(tags))
    for tag, name in sorted(tags.items()):
        if declared not in covered[tag]:
            errors.append(
                f"{GOLDEN_DIR}: MsgType::{name} has no golden fixture "
                f"'{tag}*_v{declared}.bin' at kProtocolVersion {declared}")
        for version in sorted(covered[tag] - {declared}):
            errors.append(
                f"{GOLDEN_DIR}: orphaned fixture for MsgType::{name} at version "
                f"{version} (kProtocolVersion is {declared})")
    for name in unmatched:
        errors.append(f"{GOLDEN_DIR}: orphaned fixture {name} matches no MsgType")

    # --- invariant 2: write/read pairing + a round-trip test --------------
    writers, readers = parse_codec_pairs(wire_h_text)
    for suffix in sorted(writers - readers):
        errors.append(f"{WIRE_H}: write_{suffix} has no matching read_{suffix}")
    for suffix in sorted(readers - writers):
        errors.append(f"{WIRE_H}: read_{suffix} has no matching write_{suffix}")
    test_texts = [p.read_text() for p in sorted((root / TESTS_DIR).rglob("*_test.cpp"))]
    for suffix in sorted(writers & readers):
        write_ref = re.compile(rf"\bwrite_{suffix}\b")
        read_ref = re.compile(rf"\bread_{suffix}\b")
        if not any(write_ref.search(t) and read_ref.search(t) for t in test_texts):
            errors.append(
                f"{TESTS_DIR}: no test references both write_{suffix} and "
                f"read_{suffix} (round-trip untested)")

    # --- invariant 3: kProtocolVersion anchors agree ----------------------
    readme_match = re.search(r"`kProtocolVersion\s*=\s*(\d+)`", (root / README).read_text())
    if not readme_match:
        errors.append(f"{README}: missing the `kProtocolVersion = N` anchor line")
    elif int(readme_match.group(1)) != declared:
        errors.append(
            f"{README}: documents kProtocolVersion = {readme_match.group(1)} "
            f"but {WIRE_H} says {declared}")
    smoke_match = re.search(r"^PROTOCOL_VERSION=(\d+)\s*$",
                            (root / SMOKE_SCRIPT).read_text(), re.MULTILINE)
    if not smoke_match:
        errors.append(f"{SMOKE_SCRIPT}: missing the PROTOCOL_VERSION=N anchor line")
    elif int(smoke_match.group(1)) != declared:
        errors.append(
            f"{SMOKE_SCRIPT}: PROTOCOL_VERSION={smoke_match.group(1)} "
            f"but {WIRE_H} says kProtocolVersion = {declared}")

    # --- invariant 4: kSnapshotFormatVersion anchors + pinned fixture -----
    snapshot_declared = parse_snapshot_version((root / SNAPSHOT_IO_H).read_text())
    snap_readme = re.search(r"`kSnapshotFormatVersion\s*=\s*(\d+)`",
                            (root / README).read_text())
    if not snap_readme:
        errors.append(f"{README}: missing the `kSnapshotFormatVersion = N` anchor line")
    elif int(snap_readme.group(1)) != snapshot_declared:
        errors.append(
            f"{README}: documents kSnapshotFormatVersion = {snap_readme.group(1)} "
            f"but {SNAPSHOT_IO_H} says {snapshot_declared}")
    chaos_match = re.search(r"^SNAPSHOT_VERSION=(\d+)\s*$",
                            (root / CHAOS_SCRIPT).read_text(), re.MULTILINE)
    if not chaos_match:
        errors.append(f"{CHAOS_SCRIPT}: missing the SNAPSHOT_VERSION=N anchor line")
    elif int(chaos_match.group(1)) != snapshot_declared:
        errors.append(
            f"{CHAOS_SCRIPT}: SNAPSHOT_VERSION={chaos_match.group(1)} "
            f"but {SNAPSHOT_IO_H} says kSnapshotFormatVersion = {snapshot_declared}")
    snapshot_fixture = root / EVO_GOLDEN_DIR / f"engine_snapshot_v{snapshot_declared}.bin"
    if not snapshot_fixture.is_file():
        errors.append(
            f"{EVO_GOLDEN_DIR}: no pinned fixture engine_snapshot_v{snapshot_declared}.bin "
            f"for kSnapshotFormatVersion = {snapshot_declared}")

    return errors


# --------------------------------------------------------------------------
# Self-test: sabotage copies of the real inputs, demand the lint notices.
# --------------------------------------------------------------------------

def _copy_repo_subset(root, dest):
    for rel in (WIRE_H, README, SMOKE_SCRIPT, SNAPSHOT_IO_H, CHAOS_SCRIPT):
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / rel, target)
    shutil.copytree(root / GOLDEN_DIR, dest / GOLDEN_DIR)
    shutil.copytree(root / EVO_GOLDEN_DIR, dest / EVO_GOLDEN_DIR)
    (dest / TESTS_DIR / "net").mkdir(parents=True, exist_ok=True)
    for test in (root / TESTS_DIR).rglob("*_test.cpp"):
        shutil.copyfile(test, dest / TESTS_DIR / "net" / test.name)


def _expect(failures, label, errors, needle):
    matching = [e for e in errors if needle in e]
    if not matching:
        failures.append(
            f"self-test '{label}': expected a violation containing '{needle}', "
            f"got: {errors or '[no errors at all]'}")


def self_test(root):
    failures = []

    # Parser unit checks against the real wire.h: these pin facts the golden
    # fixtures also pin, so a parser regression can't hide behind a
    # conveniently-wrong parse.
    wire_h_text = (root / WIRE_H).read_text()
    types = parse_msg_types(wire_h_text)
    if types.get("Hello") != 1:
        failures.append(f"parser: expected MsgType::Hello == 1, got {types.get('Hello')}")
    if sorted(types.values()) != list(range(1, len(types) + 1)):
        failures.append(f"parser: MsgType values are not exactly 1..{len(types)}: "
                        f"{sorted(types.values())}")
    if len(types) != 17:
        failures.append(f"parser: expected 17 message types, got {len(types)}")
    for name, value in (("Ping", 3), ("EvalBatchRequest", 6), ("EvalItemResult", 7),
                        ("SubmitSearch", 9), ("GetStats", 14), ("CacheLookup", 16),
                        ("CacheStore", 17)):
        if types.get(name) != value:
            failures.append(f"parser: expected MsgType::{name} == {value}, "
                            f"got {types.get(name)}")
    if parse_protocol_version(wire_h_text) != 7:
        failures.append("parser: expected kProtocolVersion == 7, got "
                        f"{parse_protocol_version(wire_h_text)}")
    writers, readers = parse_codec_pairs(wire_h_text)
    if "genome" not in writers or "genome" not in readers:
        failures.append("parser: write_genome/read_genome not found in wire.h")
    if "stats_report" not in writers or "stats_report" not in readers:
        failures.append("parser: write_stats_report/read_stats_report not found in wire.h")
    for cache_codec in ("cache_lookup", "cache_store"):
        if cache_codec not in writers or cache_codec not in readers:
            failures.append(f"parser: write_{cache_codec}/read_{cache_codec} "
                            "not found in wire.h")
    if snake_case("EvalBatchDone") != "eval_batch_done":
        failures.append("parser: snake_case(EvalBatchDone) broken")
    snapshot_version = parse_snapshot_version((root / SNAPSHOT_IO_H).read_text())
    if snapshot_version != 1:
        failures.append(
            f"parser: expected kSnapshotFormatVersion == 1, got {snapshot_version}")
    # Longest-prefix fixture assignment: hello_ack_v7.bin must not feed 'hello'.
    covered, unmatched = assign_fixtures(["hello_ack_v7.bin", "stray.bin"],
                                         {"hello", "hello_ack"})
    if covered["hello"] or covered["hello_ack"] != {7} or unmatched != ["stray.bin"]:
        failures.append(f"parser: fixture prefix matching broken: {covered} {unmatched}")

    if lint(root):
        failures.append("self-test baseline: the real repo should lint clean "
                        f"(got {lint(root)})")

    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)

        def sabotaged(label, mutate, needle):
            copy = base / re.sub(r"\W", "_", label)
            _copy_repo_subset(root, copy)
            mutate(copy)
            _expect(failures, label, lint(copy), needle)

        sabotaged("missing fixture",
                  lambda copy: (copy / GOLDEN_DIR / "ping_v7.bin").unlink(),
                  "MsgType::Ping has no golden fixture")
        sabotaged("missing search fixture",
                  lambda copy: (copy / GOLDEN_DIR / "submit_search_v7.bin").unlink(),
                  "MsgType::SubmitSearch has no golden fixture")
        sabotaged("search done variants do not cover the base tag",
                  lambda copy: [(copy / GOLDEN_DIR / "search_done_v7.bin").unlink(),
                                (copy / GOLDEN_DIR / "search_done_err_v7.bin").unlink()],
                  "MsgType::SearchDone has no golden fixture")
        sabotaged("missing stats fixture",
                  lambda copy: (copy / GOLDEN_DIR / "stats_report_v7.bin").unlink(),
                  "MsgType::StatsReport has no golden fixture")
        sabotaged("missing cache lookup fixture",
                  lambda copy: (copy / GOLDEN_DIR / "cache_lookup_v7.bin").unlink(),
                  "MsgType::CacheLookup has no golden fixture")
        sabotaged("missing cache store fixture",
                  lambda copy: (copy / GOLDEN_DIR / "cache_store_v7.bin").unlink(),
                  "MsgType::CacheStore has no golden fixture")
        sabotaged("fixture at wrong version loses coverage",
                  lambda copy: (copy / GOLDEN_DIR / "eval_batch_request_v7.bin")
                  .rename(copy / GOLDEN_DIR / "eval_batch_request_v6.bin"),
                  "MsgType::EvalBatchRequest has no golden fixture")
        sabotaged("fixture at wrong version is an orphan",
                  lambda copy: (copy / GOLDEN_DIR / "eval_batch_request_v7.bin")
                  .rename(copy / GOLDEN_DIR / "eval_batch_request_v6.bin"),
                  "orphaned fixture for MsgType::EvalBatchRequest at version 6")
        sabotaged("leftover older-generation fixture is an orphan",
                  lambda copy: shutil.copyfile(copy / GOLDEN_DIR / "hello_v7.bin",
                                               copy / GOLDEN_DIR / "hello_v1.bin"),
                  "orphaned fixture for MsgType::Hello at version 1")
        sabotaged("fixture for a deleted message is an orphan",
                  lambda copy: shutil.copyfile(copy / GOLDEN_DIR / "ping_v7.bin",
                                               copy / GOLDEN_DIR / "eval_response_ok_v1.bin"),
                  "orphaned fixture eval_response_ok_v1.bin matches no MsgType")
        sabotaged("README version drift",
                  lambda copy: (copy / README).write_text(
                      re.sub(r"`kProtocolVersion\s*=\s*\d+`", "`kProtocolVersion = 99`",
                             (copy / README).read_text())),
                  "documents kProtocolVersion = 99")
        sabotaged("smoke script version drift",
                  lambda copy: (copy / SMOKE_SCRIPT).write_text(
                      (copy / SMOKE_SCRIPT).read_text()
                      .replace("\nPROTOCOL_VERSION=", "\nPROTOCOL_VERSION=9")),
                  "PROTOCOL_VERSION=9")
        sabotaged("unpaired codec",
                  lambda copy: (copy / WIRE_H).write_text(
                      re.sub(r"^.*\bread_eval_batch_done\s*\(.*$", "",
                             (copy / WIRE_H).read_text(), flags=re.MULTILINE)),
                  "write_eval_batch_done has no matching read_eval_batch_done")
        sabotaged("unpaired search codec",
                  lambda copy: (copy / WIRE_H).write_text(
                      re.sub(r"^.*\bread_search_done\s*\(.*$", "",
                             (copy / WIRE_H).read_text(), flags=re.MULTILINE)),
                  "write_search_done has no matching read_search_done")
        sabotaged("unpaired stats codec",
                  lambda copy: (copy / WIRE_H).write_text(
                      re.sub(r"^.*\bread_stats_report\s*\(.*$", "",
                             (copy / WIRE_H).read_text(), flags=re.MULTILINE)),
                  "write_stats_report has no matching read_stats_report")
        sabotaged("unpaired cache codec",
                  lambda copy: (copy / WIRE_H).write_text(
                      re.sub(r"^.*\bread_cache_store\s*\(.*$", "",
                             (copy / WIRE_H).read_text(), flags=re.MULTILINE)),
                  "write_cache_store has no matching read_cache_store")
        sabotaged("wire.h version drift orphans both prose anchors",
                  # Bumping kProtocolVersion without touching README or the
                  # smoke script must trip *both* anchor checks at once.
                  lambda copy: (copy / WIRE_H).write_text(
                      re.sub(r"kProtocolVersion\s*=\s*\d+\s*;", "kProtocolVersion = 8;",
                             (copy / WIRE_H).read_text())),
                  f"but {WIRE_H} says 8")
        sabotaged("wire.h version bump orphans every fixture",
                  lambda copy: (copy / WIRE_H).write_text(
                      re.sub(r"kProtocolVersion\s*=\s*\d+\s*;", "kProtocolVersion = 8;",
                             (copy / WIRE_H).read_text())),
                  "orphaned fixture for MsgType::CacheStore at version 7")
        sabotaged("untested search round-trip",
                  lambda copy: [p.write_text(
                      p.read_text().replace("read_cancel_search", "read_cancel_search0"))
                      for p in (copy / TESTS_DIR).rglob("*_test.cpp")],
                  "no test references both write_cancel_search and read_cancel_search")
        sabotaged("untested cache round-trip",
                  lambda copy: [p.write_text(
                      p.read_text().replace("read_cache_lookup", "read_cache_lookup0"))
                      for p in (copy / TESTS_DIR).rglob("*_test.cpp")],
                  "no test references both write_cache_lookup and read_cache_lookup")
        sabotaged("untested round-trip",
                  lambda copy: [p.write_text(p.read_text().replace("read_genome", "read_gen0me"))
                                for p in (copy / TESTS_DIR).rglob("*_test.cpp")],
                  "no test references both write_genome and read_genome")
        sabotaged("snapshot version bump orphans both prose anchors",
                  # Changing the persisted checkpoint format without touching
                  # README or the chaos matrix must trip both anchor checks
                  # (and the missing-fixture check for the new version).
                  lambda copy: (copy / SNAPSHOT_IO_H).write_text(
                      re.sub(r"kSnapshotFormatVersion\s*=\s*\d+\s*;",
                             "kSnapshotFormatVersion = 8;",
                             (copy / SNAPSHOT_IO_H).read_text())),
                  f"but {SNAPSHOT_IO_H} says 8")
        sabotaged("chaos script snapshot version drift",
                  lambda copy: (copy / CHAOS_SCRIPT).write_text(
                      (copy / CHAOS_SCRIPT).read_text()
                      .replace("\nSNAPSHOT_VERSION=", "\nSNAPSHOT_VERSION=9")),
                  "SNAPSHOT_VERSION=9")
        sabotaged("missing engine snapshot fixture",
                  lambda copy: (copy / EVO_GOLDEN_DIR / "engine_snapshot_v1.bin").unlink(),
                  "no pinned fixture engine_snapshot_v1.bin")

    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the parent of scripts/)")
    parser.add_argument("--self-test", action="store_true",
                        help="prove the linter fails on sabotaged inputs")
    options = parser.parse_args()

    if options.self_test:
        failures = self_test(options.repo_root)
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}", file=sys.stderr)
        if not failures:
            print("lint_wire_protocol self-test: all sabotage detected")
        return 1 if failures else 0

    errors = lint(options.repo_root)
    for error in errors:
        print(f"wire-lint: {error}", file=sys.stderr)
    if not errors:
        print("wire-lint: protocol invariants hold")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
