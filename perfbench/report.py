#!/usr/bin/env python3
"""Per-layer report of a benchmark span dump.

Usage:

    python3 perfbench/report.py .bench_build/perfbench/traces/ser-sweep-seed1.json [...]

Reads each span dump a `--trace 1` run wrote and prints the self time of
every layer and span, trace.coverage (layer self time over the traced
wall time) and trace.overhead (traced wall over the untraced 1-thread
wall, minus 1). A coverage below 0.95 (the layer times no longer sum to
within 5% of the wall time) is flagged, and the exit code is then 1.
"""

import json
import sys
from collections import defaultdict

COVERAGE_FLOOR = 0.95


def layer_of(name):
    """A span "<layer>.<step>" belongs to <layer>; a dotless name is a root."""
    return name.split(".", 1)[0] if "." in name else ""


def report(path):
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)
    names = dump["names"]
    spans = dump["spans"]  # rows of [name, parent, trial, start_ns, end_ns]

    child_ns = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for index, (name, _, _, start, end) in enumerate(spans):
        self_s[names[name]] += (end - start - child_ns[index]) * 1e-9
        calls[names[name]] += 1

    wall = dump["traced_wall_s"]
    untraced = dump["untraced_1thread_wall_s"]
    by_layer = defaultdict(float)
    for name, seconds in self_s.items():
        by_layer[layer_of(name)] += seconds
    covered = sum(seconds for layer, seconds in by_layer.items() if layer)
    coverage = covered / wall if wall > 0 else 0.0
    overhead = wall / untraced - 1.0 if untraced > 0 else 0.0

    prov = dump.get("provenance", {})
    print(f"== {path}")
    print(f"workload {prov.get('workload')} seed {prov.get('seed')} rev {prov.get('git_rev')} "
          f"threads {prov.get('threads')} simd {prov.get('simd_backend')} "
          f"build {prov.get('build_type')}")
    print(f"traced wall {wall:.4f} s, untraced 1-thread wall {untraced:.4f} s, "
          f"{len(spans)} spans")
    print(f"{'layer':<12}{'self s':>12}{'share':>9}")
    for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1]):
        label = layer or "(unlayered)"
        print(f"{label:<12}{seconds:>12.4f}{100 * seconds / wall:>8.1f}%")
    print(f"{'span':<16}{'calls':>8}{'self s':>12}")
    for name, seconds in sorted(self_s.items(), key=lambda item: -item[1]):
        print(f"{name:<16}{calls[name]:>8}{seconds:>12.4f}")
    print("counters: " + ", ".join(f"{k}={v:g}" for k, v in sorted(dump["counters"].items())))
    print(f"trace.coverage {coverage:.4f}")
    print(f"trace.overhead {overhead:+.4f}")
    if coverage < COVERAGE_FLOOR:
        print(f"FLAG: trace.coverage {coverage:.4f} is below {COVERAGE_FLOOR}: the layer "
              "self times do not sum to within 5% of the wall time")
        return False
    return True


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for path in paths:
        ok = report(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
