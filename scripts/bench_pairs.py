#!/usr/bin/env python3
"""Alternating fanbench pairs: a parent checkout against a change.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload raw-wide --pairs 10 --seconds 8

Runs fanbench/run.py in each checkout, one run after the other; the side
that runs first alternates from pair to pair. Every run must report
`correct: true` with 0 failed, or the script exits 1. It then prints,
for each end-to-end metric, the parent's median and quartiles, the
change's median, in how many pairs the change was better, in the
direction BENCHMARK.json gives, and a verdict:

- gain: the change is better in at least 9 in 10 pairs (a tie counts for
  neither side), and its median is better than the parent's by more than
  the distance between the parent's quartiles;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, a share of the parent's median;
- unresolved: the parent's quartile distance, as a share of its median, is
  wider than that bound, and not every change run beats every parent run;
- no regression: none of these.

Peak RSS has been seen to move with the length of the checkout path, so
the two paths should be equally long; the script warns when they are not.
A checkout whose src/ holds a __pycache__ directory is refused before
any run: its cached bytecode lowers setup_s and peak_rss_mb on that side.
Last it prints the line count, in PARENT and in CHANGE, of each
src/**/*.py file whose text differs between them, and the net change.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: str, workload: str, seconds: float, seed: int) -> dict[str, float]:
    """One fanbench run in checkout: its metrics, by name. Exits 1 on a
    run that fails or does not report correct: true with 0 failed."""
    argv = [sys.executable, "fanbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if result.get("correct") is not True or result.get("failed") != 0:
        tail = (lines[-1] if lines else proc.stderr.strip()[-500:]) or "no output"
        raise SystemExit(f"{checkout}: fanbench run failed (exit {proc.returncode}): {tail}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(pairs: list[tuple[dict, dict]], end_to_end: dict[str, dict]) -> list[str]:
    """One line per metric of the (parent, change) metric pairs, ending in
    its verdict. end_to_end maps a metric name, without a "workload/"
    prefix, to its BENCHMARK.json entry, of which "better" ("higher" or
    "lower") and "bound" (a share of the parent's median) are read."""
    lines = []
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        metric = end_to_end[name.rsplit("/", 1)[-1]]
        q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        moved = statistics.median(change)
        low, high = (q1, q3) if sign > 0 else (q3, q1)  # worse and better quartile
        where = ("better than" if sign * (moved - high) > 0
                 else "worse than" if sign * (moved - low) < 0 else "within")
        gained, spread, bound = sign * (moved - median), q3 - q1, metric["bound"] * abs(median)
        if gained < -bound:
            verdict = "regressed"
        elif wins >= 0.9 * len(pairs) and gained > spread:
            verdict = "gain"
        elif spread > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
            verdict = "unresolved"
        else:
            verdict = "no regression"
        lines.append(
            f"{name}: parent median {median:.6g} (quartiles {q1:.6g} to {q3:.6g}), "
            f"change median {moved:.6g} ({(moved - median) / median:+.1%}), "
            f"change better in {wins} of {len(pairs)} pairs, {where} the parent's quartiles: "
            f"{verdict}"
        )
    return lines


def src_line_delta(parent: str, change: str) -> list[str]:
    """One line per src/**/*.py file whose bytes differ between the two
    checkouts, with its line count in each (0 where it is absent), then
    the net change over those files."""
    sides = [{path.relative_to(side).as_posix(): path.read_bytes()
              for path in Path(side, "src").rglob("*.py")} for side in (parent, change)]
    lines, net = [], 0
    for name in sorted(sides[0].keys() | sides[1].keys()):
        texts = [side.get(name, b"") for side in sides]
        if texts[0] != texts[1]:
            before, after = (len(text.splitlines()) for text in texts)
            net += after - before
            lines.append(f"{name}: {before} -> {after} lines ({after - before:+d})")
    return lines + [f"net src/ lines: {net:+d}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if parent == change:
        parser.error("PARENT and CHANGE must be two checkouts")
    if len(parent) != len(change):
        print(f"warning: checkout paths differ in length ({len(parent)} and "
              f"{len(change)} characters); peak RSS may differ by that alone",
              file=sys.stderr)
    for checkout in (parent, change):
        cache = next(Path(checkout, "src").rglob("__pycache__"), None)
        if cache is not None:  # exits 1
            raise SystemExit(f"{cache}: cached bytecode would lower this side's setup_s and "
                             "peak_rss_mb; remove it before pairing")
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        sides = (parent, change) if i % 2 == 0 else (change, parent)
        ran = {side: run_once(side, args.workload, args.seconds, args.seed) for side in sides}
        pairs.append((ran[parent], ran[change]))
        print(f"pair {i + 1}: " + ", ".join(
            f"{name} {ran[parent][name]:.6g} -> {ran[change][name]:.6g}" for name in ran[parent]),
            flush=True)
    print("\n".join(summarize(pairs, end_to_end)))
    print("\n".join(src_line_delta(parent, change)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
