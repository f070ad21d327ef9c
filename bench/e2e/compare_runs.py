#!/usr/bin/env python3
"""Compare two sets of prefbench results per (workload, metric).

    python3 bench/e2e/compare_runs.py BASE_DIR NEW_DIR [--spec BENCHMARK.json]

A set is a directory with one subdirectory per workload, each holding one
file per run: the JSON line bench/e2e/run.py printed last. Runs are taken
in file-name order, so run i of BASE and run i of NEW form pair i; when
the two sets were measured alternately (parent, change, parent, ...), the
pairs are the alternating pairs of the gain rule below.

For every metric, both sets' median and quartiles are printed, then:

  verdict  (metrics with a bound in BENCHMARK.json, the end-to-end ones)
    unresolved  either set's interquartile range, as a share of its
                median, exceeds the bound, unless every NEW run reads
                better than every BASE run; never for setup_s, which is
                held to its bound on the median alone, so that work
                moved into set-up shows however much set-up time spreads
    regressed   NEW's median is worse than BASE's by more than the bound
    agree       otherwise
  gain     (every metric, when both sets hold the same number of runs)
    gain        at least 10 pairs, NEW better in at least nine tenths of
                them (ties count for neither side), and the medians
                differ by more than BASE's interquartile range
    -           otherwise

Exit status: 0 when every bounded metric agrees (or is a gain) and every
run was correct with no failed request; 1 otherwise; 2 on bad input,
including a layer_map.json that does not map every per-layer metric of
BENCHMARK.json to the end-to-end metrics and workloads it should move.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
LAYER_MAP = pathlib.Path(__file__).resolve().parent / "layer_map.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9
MEDIAN_ONLY = {"setup_s"}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    higher_better: bool
    bound: float | None  # None for a per-layer metric


@dataclass(frozen=True)
class Run:
    correct: bool
    failed: int
    values: dict[str, float]


@dataclass(frozen=True)
class Summary:
    q1: float
    median: float
    q3: float

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        iqr = self.q3 - self.q1
        if self.median == 0:
            return 0.0 if iqr == 0 else float("inf")
        return iqr / abs(self.median)


def load_spec(path: pathlib.Path, layer_map: pathlib.Path = LAYER_MAP) -> dict[str, Metric]:
    """The metrics of BENCHMARK.json at path, after checking layer_map
    against them. An end-to-end metric has a bound; a per-layer one has
    none."""
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    metrics: dict[str, Metric] = {}
    for key in ("end_to_end", "per_layer"):
        entries = data.get(key)
        if not isinstance(entries, list):
            raise ValueError(f"{path}: '{key}' is not a list")
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: {key} entry is not an object")
            name = entry.get("name")
            unit = entry.get("unit")
            better = entry.get("better")
            bound = entry.get("bound")
            if not isinstance(name, str) or not isinstance(unit, str):
                raise ValueError(f"{path}: {key} entry lacks name or unit")
            if better not in ("higher", "lower"):
                raise ValueError(f"{path}: {name}: 'better' is {better!r}")
            if (key == "end_to_end") != isinstance(bound, (int, float)):
                raise ValueError(f"{path}: {name}: only end-to-end metrics, "
                                 "and all of them, have a numeric bound")
            metrics[name] = Metric(name, unit, better == "higher",
                                   None if bound is None else float(bound))
    workloads = data.get("workloads")
    if not isinstance(workloads, list):
        raise ValueError(f"{path}: 'workloads' is not a list")
    check_layer_map(layer_map, metrics,
                    {w.get("name") for w in workloads if isinstance(w, dict)})
    return metrics


def check_layer_map(path: pathlib.Path, metrics: dict[str, Metric],
                    workloads: set[object]) -> None:
    """Raises ValueError unless path lists every per-layer metric exactly
    once: under 'moves' with the end-to-end metrics it should move and the
    workload each is measured on ('*' for all), or as 'user_visible' (a
    metric users see that BENCHMARK.json cannot carry as end-to-end), or
    as 'health' (a check on the benchmark itself)."""
    data = json.loads(path.read_text())
    moves = data.get("moves") if isinstance(data, dict) else None
    user_visible = data.get("user_visible") if isinstance(data, dict) else None
    health = data.get("health") if isinstance(data, dict) else None
    if (not isinstance(moves, dict) or not isinstance(user_visible, list)
            or not isinstance(health, list)):
        raise ValueError(f"{path}: needs 'moves', 'user_visible' and 'health'")
    per_layer = sorted(m.name for m in metrics.values() if m.bound is None)
    listed = [str(n) for n in (*moves, *user_visible, *health)]
    if sorted(listed) != per_layer:
        wrong = {n for n in listed if n not in per_layer or listed.count(n) > 1}
        raise ValueError(f"{path}: must list every per-layer metric once; "
                         f"missing {sorted(set(per_layer) - set(listed))}, "
                         f"unknown or repeated {sorted(wrong)}")
    targets = {m.name for m in metrics.values() if m.bound is not None}
    targets.update(str(n) for n in user_visible)
    for name, entries in moves.items():
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"{path}: {name} moves no metric")
        for entry in entries:
            if (not isinstance(entry, dict) or entry.get("metric") not in targets
                    or entry.get("workload") not in workloads | {"*"}):
                raise ValueError(f"{path}: {name}: {entry!r} does not name an "
                                 "end-to-end metric and a workload")


def load_run(path: pathlib.Path) -> Run:
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty")
    data = json.loads(lines[-1])
    if not isinstance(data, dict):
        raise ValueError(f"{path}: result is not a JSON object")
    correct = data.get("correct")
    failed = data.get("failed")
    metrics = data.get("metrics")
    if not isinstance(correct, bool) or not isinstance(failed, int):
        raise ValueError(f"{path}: 'correct' or 'failed' missing")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: 'metrics' is not an object")
    values: dict[str, float] = {}
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: metric {name!r} has no numeric value")
        values[name] = float(value)
    return Run(correct, failed, values)


def load_set(root: pathlib.Path) -> dict[str, list[Run]]:
    if not root.is_dir():
        raise ValueError(f"{root}: not a directory")
    runs: dict[str, list[Run]] = {}
    for workload in sorted(p for p in root.iterdir() if p.is_dir()):
        runs[workload.name] = [load_run(f) for f in sorted(workload.glob("*.json"))]
    return runs


def summarize(values: list[float]) -> Summary:
    if len(values) < 2:
        return Summary(values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Summary(q1, statistics.median(values), q3)


def better(metric: Metric, a: float, b: float) -> bool:
    """True when value a reads strictly better than value b."""
    return a > b if metric.higher_better else a < b


def worsening(metric: Metric, base: float, new: float) -> float:
    """How much worse new is than base, as a share of base (<= 0: not worse)."""
    delta = base - new if metric.higher_better else new - base
    if base == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base)


def verdict(metric: Metric, base: list[float], new: list[float]) -> str:
    if metric.bound is None:
        return "-"
    b, n = summarize(base), summarize(new)
    all_better = all(better(metric, x, y) for x in new for y in base)
    if (metric.name not in MEDIAN_ONLY
            and max(b.spread, n.spread) > metric.bound and not all_better):
        return "unresolved"
    if worsening(metric, b.median, n.median) > metric.bound:
        return "regressed"
    return "agree"


def gain(metric: Metric, base: list[float], new: list[float]) -> str:
    if len(base) != len(new) or len(base) < MIN_PAIRS:
        return "-"
    wins = sum(1 for x, y in zip(new, base) if better(metric, x, y))
    b, n = summarize(base), summarize(new)
    gap = abs(n.median - b.median)
    won = wins >= WIN_SHARE * len(base) and better(metric, n.median, b.median)
    return "gain" if won and gap > b.q3 - b.q1 else "-"


def compare(spec: dict[str, Metric], base: dict[str, list[Run]],
            new: dict[str, list[Run]]) -> bool:
    ok = True
    print(f"{'workload':18} {'metric':30} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8}  verdict     gain")
    for workload in sorted(set(base) | set(new)):
        base_runs, new_runs = base.get(workload, []), new.get(workload, [])
        if not base_runs or not new_runs:
            print(f"{workload:18} present in one set only")
            ok = False
            continue
        for label, runs in (("base", base_runs), ("new", new_runs)):
            bad = sum(1 for r in runs if not r.correct or r.failed > 0)
            if bad:
                print(f"{workload:18} {bad} {label} run(s) incorrect or with "
                      "failed requests")
                ok = False
        names: set[str] = set()
        for r in base_runs + new_runs:
            names.update(r.values)
        for name in sorted(names):
            metric = spec.get(name)
            if metric is None:
                print(f"{workload:18} {name:30} not in the spec")
                ok = False
                continue
            b_vals = [r.values[name] for r in base_runs if name in r.values]
            n_vals = [r.values[name] for r in new_runs if name in r.values]
            if not b_vals or not n_vals:
                print(f"{workload:18} {name:30} missing from one set")
                ok = False
                continue
            b, n = summarize(b_vals), summarize(n_vals)
            change = (n.median - b.median) / abs(b.median) if b.median else 0.0
            v = verdict(metric, b_vals, n_vals)
            g = gain(metric, b_vals, n_vals)
            if v in ("unresolved", "regressed") and g != "gain":
                ok = False
            left = f"{b.median:.4g} [{b.q1:.4g}, {b.q3:.4g}]"
            right = f"{n.median:.4g} [{n.q1:.4g}, {n.q3:.4g}]"
            print(f"{workload:18} {name:30} {left:>30} {right:>30} "
                  f"{change:>+8.1%}  {v:11} {g}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--spec", type=pathlib.Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    try:
        spec = load_spec(args.spec)
        base = load_set(args.base)
        new = load_set(args.new)
    except (OSError, ValueError) as err:
        print(f"compare_runs: {err}", file=sys.stderr)
        return 2
    return 0 if compare(spec, base, new) else 1


if __name__ == "__main__":
    sys.exit(main())
