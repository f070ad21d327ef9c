#!/usr/bin/env python3
"""CI perf-regression gate: compare Google Benchmark JSON against baselines.

For every BENCH_*.json in --baseline, the same-named file must exist in
--current; each tracked family (median aggregate when repetitions were
used, plain entry otherwise) is compared and the gate fails when a family
regresses by more than --tolerance, or disappears.

Committed baselines come from a different machine than the CI runner, so
by default times are *anchored*: each family is normalized by the file's
anchor family (the first entry matching an --anchor substring, e.g. the
portable scalar batch kernel, or a cold engine run) before comparing.
Machine speed then cancels out and the gate tracks kernel-relative
regressions — e.g. "avx2 BNL lost ground against the scalar kernel". The
trade-off: a uniform slowdown that hits the anchor equally is invisible;
run with --absolute on same-machine baselines to catch that instead.

Regenerating baselines: download the bench-compare job's artifact (or run
`ctest -L bench-smoke` in a Release build) and copy the BENCH_*.json
files into bench/baselines/.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# One table row: (family, baseline ns, current ns, ratio, status). The
# optional slots go empty for vanished/new families and the anchor line.
Row = tuple[str, float | None, float | None, float | None, str]

_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_families(path: pathlib.Path) -> dict[str, float]:
    """name -> real_time (ns) for the tracked entries of one JSON file."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON is not an object")
    benchmarks = data.get("benchmarks", [])
    if not isinstance(benchmarks, list):
        raise ValueError(f"{path}: 'benchmarks' is not a list")
    entries: list[dict[str, object]] = []
    medians: list[dict[str, object]] = []
    for b in benchmarks:
        if not isinstance(b, dict):
            raise ValueError(f"{path}: benchmark entry is not an object")
        if b.get("aggregate_name") == "median":
            medians.append(b)
        elif "aggregate_name" not in b:
            entries.append(b)
    families: dict[str, float] = {}
    for b in medians if medians else entries:
        name = b["run_name"] if "run_name" in b else b["name"]
        if not isinstance(name, str):
            raise ValueError(f"{path}: benchmark name is not a string")
        unit = b.get("time_unit", "ns")
        if not isinstance(unit, str) or unit not in _UNIT_TO_NS:
            raise ValueError(f"{path}: {name}: unknown time unit {unit!r}")
        real_time = b["real_time"]
        if not isinstance(real_time, (int, float)):
            raise ValueError(f"{path}: {name}: non-numeric real_time")
        families[name] = float(real_time) * _UNIT_TO_NS[unit]
    return families


def pick_anchor(families: dict[str, float],
                anchor_keys: list[str]) -> str | None:
    for key in anchor_keys:
        for name in sorted(families):
            if key in name:
                return name
    return sorted(families)[0] if families else None


def compare_file(
    name: str,
    base: dict[str, float],
    cur: dict[str, float],
    tolerance: float,
    anchor_keys: list[str],
    absolute: bool,
    min_gate_ns: float,
) -> tuple[list[str], list[str], list[Row]]:
    """Returns (structural_failures, perf_failures, rows).

    Structural failures — a vanished family, a missing anchor, an empty
    baseline — mean the comparison never happened, so they fail the gate
    even for --report-only files. Only perf regressions (the thing the
    comparison measures) are downgradable to report-only.
    """
    structural: list[str] = []
    perf: list[str] = []
    rows: list[Row] = []
    anchor: str | None
    if absolute:
        base_norm, cur_norm = dict(base), dict(cur)
        anchor = None
    else:
        anchor = pick_anchor(base, anchor_keys)
        if anchor is None:
            return [f"{name}: baseline file tracks no families"], perf, rows
        if anchor not in cur:
            return ([f"{name}: anchor family '{anchor}' missing from current run"],
                    perf, rows)
        base_norm = {k: v / base[anchor] for k, v in base.items()}
        cur_norm = {k: v / cur[anchor] for k, v in cur.items()}
    for family in sorted(base):
        if family not in cur:
            structural.append(
                f"{name}: tracked family '{family}' missing from current run")
            rows.append((family, base[family], None, None, "VANISHED"))
            continue
        ratio = cur_norm[family] / base_norm[family] if base_norm[family] > 0 else 1.0
        status = "ok"
        if base[family] < min_gate_ns:
            # Sub-threshold timings are dominated by clock noise; report
            # but never gate on them.
            status = "not gated (below min time)"
            rows.append((family, base[family], cur[family], ratio, status))
            continue
        if ratio > 1.0 + tolerance:
            status = "REGRESSION"
            perf.append(
                f"{name}: {family} regressed {100 * (ratio - 1):.1f}% "
                f"(tolerance {100 * tolerance:.0f}%)")
        elif ratio < 1.0 - tolerance:
            status = "improved"
        rows.append((family, base[family], cur[family], ratio, status))
    for family in sorted(set(cur) - set(base)):
        rows.append((family, None, cur[family], None, "new (not gated)"))
    if anchor is not None:
        rows.append((f"[anchor: {anchor}]", base.get(anchor), cur.get(anchor),
                     None, "normalizer"))
    return structural, perf, rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True, help="directory of committed BENCH_*.json")
    ap.add_argument("--current", required=True, help="directory of freshly produced BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed relative slowdown per family (default 0.15)")
    ap.add_argument("--anchor", action="append", default=None,
                    help="substring(s) selecting the per-file anchor family "
                         "(default: scalar, then cold)")
    ap.add_argument("--absolute", action="store_true",
                    help="compare raw times instead of anchor-normalized ones")
    ap.add_argument("--min-gate-us", type=float, default=50.0,
                    help="families whose baseline median is below this many "
                         "microseconds are reported but not gated (default 50)")
    ap.add_argument("--report-only", action="append", default=[],
                    help="baseline file name substring(s) to compare and "
                         "print without failing the gate (trajectory data)")
    args = ap.parse_args()
    anchor_keys: list[str] = args.anchor if args.anchor else ["scalar", "cold"]
    tolerance: float = args.tolerance
    min_gate_us: float = args.min_gate_us
    report_only: list[str] = args.report_only

    baseline_dir = pathlib.Path(args.baseline)
    current_dir = pathlib.Path(args.current)
    baseline_files = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"no BENCH_*.json baselines under {baseline_dir}", file=sys.stderr)
        return 2

    all_failures: list[str] = []
    for base_path in baseline_files:
        cur_path = current_dir / base_path.name
        print(f"== {base_path.name} ==")
        if not cur_path.exists():
            all_failures.append(f"{base_path.name}: not produced by the current run")
            print("  MISSING from current run")
            continue
        structural, perf, rows = compare_file(
            base_path.name, load_families(base_path), load_families(cur_path),
            tolerance, anchor_keys, bool(args.absolute),
            min_gate_us * 1e3)
        for family, b, c, ratio, status in rows:
            bs = f"{b / 1e6:10.3f}ms" if b is not None else "         —"
            cs = f"{c / 1e6:10.3f}ms" if c is not None else "         —"
            rs = f"{ratio:6.3f}x" if ratio is not None else "      —"
            print(f"  {family:<55} base={bs} cur={cs} rel={rs} {status}")
        # Structural failures (vanished family, missing anchor) always
        # gate: report-only softens perf verdicts, not absent data.
        all_failures.extend(structural)
        if any(key in base_path.name for key in report_only):
            for f in perf:
                print(f"  (report-only, not gated) {f}")
        else:
            all_failures.extend(perf)

    if all_failures:
        print("\nPERF GATE FAILED:")
        for f in all_failures:
            print(f"  {f}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
