#!/usr/bin/env python3
"""CI coverage audit: no test label or baseline bench may fall out of CI.

Two drift modes this script exists to catch:

  * A test suite gets a new ctest LABEL (tests/CMakeLists.txt) but no CI
    lane ever runs `ctest -L <label>` — the label silently becomes
    documentation instead of a gate.
  * A bench is recorded in BENCH_baseline.json but no lane invokes it —
    --subset gating (bench-gate runs the small hosts, scale-gate runs the
    million-device bench_scale) makes per-lane checks partial BY DESIGN,
    so the union has to be audited somewhere. This is that somewhere.

The checks are textual on purpose: labels are read from the LABELS
properties in tests/CMakeLists.txt, exercised labels from `ctest ... -L
<label>` occurrences across every workflow, and bench invocations from
`bench/<name>` occurrences. No YAML or CMake parser — stdlib only, same
as check_bench_baseline.py — and each extractor refuses to return an
empty set, so a syntax change that breaks the regexes fails the audit
instead of vacuously passing it.

Usage: check_ci_coverage.py [repo-root]     (default: the script's parent)
Exits 0 when coverage is complete, 1 listing every hole.
"""

import json
import re
import sys
from pathlib import Path


def defined_labels(root):
    """Every label attached to a test via PROPERTIES LABELS."""
    text = (root / "tests" / "CMakeLists.txt").read_text(encoding="utf-8")
    labels = set()
    for match in re.finditer(r'LABELS\s+"?([A-Za-z0-9_;-]+)"?', text):
        labels.update(part for part in match.group(1).split(";") if part)
    if not labels:
        sys.exit("check_ci_coverage: no LABELS found in tests/CMakeLists.txt "
                 "(extractor broken?)")
    return labels


def workflow_text(root):
    paths = sorted((root / ".github" / "workflows").glob("*.yml"))
    if not paths:
        sys.exit("check_ci_coverage: no workflows under .github/workflows")
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def exercised_labels(text):
    """Labels some workflow step actually selects with ctest -L."""
    labels = set(re.findall(r"ctest[^\n]*\s-L\s+([A-Za-z0-9_-]+)", text))
    if not labels:
        sys.exit("check_ci_coverage: no `ctest -L` steps found in any "
                 "workflow (extractor broken?)")
    return labels


def baseline_benches(root):
    doc = json.loads((root / "BENCH_baseline.json").read_text(encoding="utf-8"))
    benches = set(doc["benches"])
    if not benches:
        sys.exit("check_ci_coverage: BENCH_baseline.json lists no benches")
    return benches


def invoked_benches(text):
    """Bench binaries some workflow step runs (./build/bench/<name> ...)."""
    return set(re.findall(r"\./build/bench/(bench_[A-Za-z0-9_]+)", text))


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    text = workflow_text(root)

    problems = []
    unexercised = defined_labels(root) - exercised_labels(text)
    for label in sorted(unexercised):
        problems.append(f"ctest label `{label}` is defined in "
                        f"tests/CMakeLists.txt but no workflow runs "
                        f"`ctest -L {label}`")
    unrun = baseline_benches(root) - invoked_benches(text)
    for bench in sorted(unrun):
        problems.append(f"bench `{bench}` is gated in BENCH_baseline.json "
                        f"but no workflow invokes ./build/bench/{bench}")

    if problems:
        for p in problems:
            print(f"COVERAGE HOLE: {p}")
        return 1
    print(f"ci coverage ok: {len(defined_labels(root))} labels exercised, "
          f"{len(baseline_benches(root))} benches invoked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
