#!/usr/bin/env python3
"""Metric-name linter.

The metrics registry (``src/util/metrics.h``) is a stable, documented
surface: smoke scripts, dashboards and ``--stats`` readers look metrics up
by name, and the README's Observability table is where a reader learns the
names.  This linter keeps the code and that table in step:

  1. Every metric the program registers has a row in the README metric
     table.
  2. Every name a row documents is registered somewhere.

"Registered" means a ``metrics().counter/gauge/histogram(...)`` call in
``src/`` or ``tools/`` whose argument is a string literal, directly or as
``std::string("...")``, plus every ``labeled_metric("base", "key", ...)``
call there, which registers the series ``base{key=…}``.  A registration
whose name is neither (a variable, a computed string) is reported too: the
linter cannot vouch for a name it cannot read.

A table row names one or more metrics in backticks in its first cell,
separated by `` / ``; a label value is written ``{key=…}`` (any value
spelling is accepted).

Run from anywhere:

    python3 scripts/lint_metric_names.py [--repo-root DIR]

Exit status 0 when code and table agree, 1 with one line per violation
otherwise.  ``--self-test`` sabotages copies of the real inputs (a dropped
row, a phantom row, an unregistered literal, an unreadable name) and
asserts the linter catches each one (run by CI and ctest, so the linter
cannot rot into a yes-machine).
"""

import argparse
import pathlib
import re
import shutil
import sys
import tempfile

README = "README.md"
CODE_DIRS = ("src", "tools")
METRICS_SOURCES = ("src/util/metrics.h", "src/util/metrics.cpp")  # the registry itself
TABLE_HEADER = re.compile(r"^\|\s*Metric\s*\|\s*Kind\s*\|\s*Meaning\s*\|\s*$")

REGISTRATION = re.compile(r"metrics\(\)\s*\.\s*(?:counter|gauge|histogram)\s*\(\s*")
LITERAL = re.compile(r'(?:std::string\(\s*)?"([^"\\]+)"')
LABELED_CALL = re.compile(r'(?:util::)?labeled_metric\(')
LABELED = re.compile(r'(?:util::)?labeled_metric\(\s*"([^"\\]+)"\s*,\s*"([^"\\]+)"')
ROW_LABEL = re.compile(r"\{(\w+)=[^}]*\}")


def code_files(root):
    for directory in CODE_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix in (".h", ".cpp") and path.is_file():
                if path.relative_to(root).as_posix() not in METRICS_SOURCES:
                    yield path


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def registered_metrics(root):
    """-> ({name: first 'file:line'}, [errors]) over every registration in the code."""
    names = {}
    errors = []
    for path in code_files(root):
        text = path.read_text()
        where = lambda offset: f"{path.relative_to(root).as_posix()}:{line_of(text, offset)}"
        for match in LABELED.finditer(text):
            names.setdefault(f"{match.group(1)}{{{match.group(2)}=…}}", where(match.start()))
        for match in LABELED_CALL.finditer(text):
            if not LABELED.match(text, match.start()):
                errors.append(f"{where(match.start())}: labeled_metric() base and key must be "
                              "string literals")
        for match in REGISTRATION.finditer(text):
            rest = match.end()
            if LABELED_CALL.match(text, rest):
                continue  # named by the labeled_metric scan above
            literal = LITERAL.match(text, rest)
            if literal is None:
                errors.append(f"{where(match.start())}: metric registered under a name the "
                              "linter cannot read (use a string literal or labeled_metric)")
                continue
            names.setdefault(literal.group(1), where(match.start()))
    return names, errors


def documented_metrics(root):
    """-> ({name: README line}, [errors]) from the README metric table."""
    lines = (root / README).read_text().splitlines()
    start = next((i for i, line in enumerate(lines) if TABLE_HEADER.match(line)), None)
    if start is None:
        return {}, [f"{README}: no '| Metric | Kind | Meaning |' table"]
    names = {}
    for number in range(start + 2, len(lines)):  # skip the header's |---| row
        line = lines[number]
        if not line.startswith("|"):
            break
        first_cell = line.split("|")[1]
        for name in re.findall(r"`([^`]+)`", first_cell):
            names.setdefault(ROW_LABEL.sub(r"{\1=…}", name.strip()), number + 1)
    return names, []


def lint(root):
    registered, errors = registered_metrics(root)
    documented, readme_errors = documented_metrics(root)
    errors += readme_errors
    for name, where in sorted(registered.items()):
        if name not in documented:
            errors.append(f"{where}: registered metric {name} has no row in the {README} "
                          "metric table")
    for name, line in sorted(documented.items()):
        if name not in registered:
            errors.append(f"{README}:{line}: the metric table documents {name}, which no code "
                          "registers")
    return errors


# ---------------------------------------------------------------------------
# Self-test: sabotage copies and demand the linter notices.
# ---------------------------------------------------------------------------

def _copy_repo_subset(root, dest):
    dest.mkdir(parents=True)
    for directory in CODE_DIRS:
        shutil.copytree(root / directory, dest / directory)
    shutil.copyfile(root / README, dest / README)


def _edit(path, old, new):
    text = path.read_text()
    if old not in text:
        raise RuntimeError(f"self-test: '{old}' not found in {path}")
    path.write_text(text.replace(old, new, 1))


def _expect(failures, label, errors, needle):
    if not any(needle in error for error in errors):
        failures.append(f"{label}: linter did not report '{needle}' (got: {errors or 'clean'})")


def self_test(root):
    failures = []
    baseline = lint(root)
    if baseline:
        failures.append(f"unsabotaged tree is not clean: {baseline}")
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)

        def sabotaged(label, mutate, needle):
            copy = base / re.sub(r"\W", "_", label)
            _copy_repo_subset(root, copy)
            mutate(copy)
            _expect(failures, label, lint(copy), needle)

        sabotaged("dropped row",
                  lambda copy: (copy / README).write_text(
                      re.sub(r"^\| `core\.eval_seconds` \|.*\n", "",
                             (copy / README).read_text(), flags=re.MULTILINE)),
                  "registered metric core.eval_seconds has no row")
        sabotaged("dropped labeled row",
                  lambda copy: (copy / README).write_text(
                      re.sub(r"^\| `net\.items_dispatched_total\{endpoint=…\}` \|.*\n", "",
                             (copy / README).read_text(), flags=re.MULTILINE)),
                  "registered metric net.items_dispatched_total{endpoint=…} has no row")
        sabotaged("phantom row",
                  lambda copy: _edit(copy / README, "| `core.eval_seconds` |",
                                     "| `core.phantom_total` | counter | nothing |\n"
                                     "| `core.eval_seconds` |"),
                  "documents core.phantom_total, which no code registers")
        sabotaged("phantom label",
                  lambda copy: _edit(copy / README, "/ `net.faults_injected{kind=…}` |",
                                     "/ `net.faults_injected{cause=…}` |"),
                  "documents net.faults_injected{cause=…}, which no code registers")
        sabotaged("unregistered literal",
                  lambda copy: _edit(copy / "src/core/worker.cpp",
                                     'metrics().counter("core.evals_failed_total");',
                                     'metrics().counter("core.evals_failed_total");\n'
                                     '  static util::Counter& extra = '
                                     'util::metrics().counter(std::string("core.undocumented_total"));'),
                  "registered metric core.undocumented_total has no row")
        sabotaged("unreadable name",
                  lambda copy: _edit(copy / "src/core/worker.cpp",
                                     'metrics().counter("core.evals_failed_total")',
                                     'metrics().counter(failed_name)'),
                  "cannot read")
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
            print("lint_metric_names self-test: all sabotage detected")
        return 1 if failures else 0

    errors = lint(options.repo_root)
    for error in errors:
        print(f"metric-lint: {error}", file=sys.stderr)
    if not errors:
        print("metric-lint: every registered metric is documented, and every row is registered")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
