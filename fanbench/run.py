#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fanlex CLI.

Usage:
  python3 fanbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each run generates the workload's inputs from the seed (fanbench/gen.py),
then drives real `python -m fanlex` subcommands in a closed loop with one
client: one child at a time, the next started when the previous exits.
Children run with the workload directory as cwd, relative paths, the
checkout's src as the only PYTHONPATH entry and FANLEX_PURE=1, on one
CPU, spawned through launcher.py so each peak RSS is the child's own.
Every child's exit status and output are checked; on the default seed
stdout and written files must also match the digests in golden.json.

--trace 0 reports the end-to-end metrics: medians over the repetitions
that fit in --seconds, of times scaled to a reference host speed
(hostspeed.py; raw wall times are printed too). --trace 1 runs the CLI
sequence once as the reference, then replays the workload in-process
with spans around every layer call (fanbench/replay.py) and reports
per-layer times and counts.
The last stdout line is one JSON object: correct, attempted, failed and
metrics. Lines before it are a human-readable summary and the run
record (code revision, Python version, CPUs, seed and input shape).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import hostspeed  # noqa: E402

DEFAULT_SEED = 0
MIN_REPS = 3
MIN_SETUP_RUNS = 7
OP_TIMEOUT_S = 150
CV_FOLDS = 5

# Each workload is a sequence of subcommands: (name, argv, files it writes).
WORKLOADS = {
    "raw-wide": [
        ("build-lexicon", ["--fake", "train_fake.jsonl", "--valid", "train_valid.jsonl",
                           "--class", "RAW", "--out", "raw.lex"], ["raw.lex"]),
        ("score", ["--lexicon", "raw.lex", "--input", "test.jsonl", "--explain", "3"], []),
        ("verify-corpus", ["--input", "corpus.jsonl", "--slang", "slang.txt",
                           "--dictionary", "dict.txt"], []),
    ],
    "analyzed-cv": [
        ("cross-validate", ["--input", "corpus.jsonl", "--folds", str(CV_FOLDS),
                            "--rule-table", "table.jsonl", "--classes", gen.CLASSES], []),
    ],
    "preanalyzed-eval": [
        ("evaluate", ["--train-fake", "train_fake.jsonl", "--train-valid", "train_valid.jsonl",
                      "--test", "test.jsonl", "--classes", gen.CLASSES], []),
    ],
}

END_TO_END = {"tokens_per_s": "tokens/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: span times (name + "_s"), counters and self times.
LAYERS = ("cli", "corpus", "morph", "kernels", "lexicon", "scorer", "evaluation")
SPAN_TIMES = (
    "kernels.tokenize", "kernels.normalized_tokens", "kernels.suffix_runs",
    "morph.analyze", "corpus.load", "corpus.wordlist_load", "corpus.verify",
    "corpus.folds", "lexicon.extract", "lexicon.build", "lexicon.merge",
    "lexicon.save", "lexicon.load", "scorer.score", "scorer.explain",
    "evaluation.evaluate", "evaluation.cross_validate",
)
COUNTERS = {
    "kernels.tokens": "count", "kernels.suffix_runs_calls": "count",
    "morph.analyzed_tokens": "count", "morph.distinct_surfaces": "count",
    "morph.table_hit_ratio": "ratio", "corpus.docs": "count", "corpus.input_mb": "MB",
    "lexicon.terms": "count", "lexicon.file_mb": "MB",
    "scorer.unknown_ratio": "ratio", "scorer.tie_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class CheckError(Exception):
    """A subcommand's output is wrong."""


# ------------------------------------------------------------- children


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FANLEX_CONFIG")}
    env["PYTHONPATH"] = str((ROOT / "src").resolve())
    env["FANLEX_PURE"] = "1"
    return env


class Launcher:
    """Runs children through launcher.py, so each peak RSS is the child's own.

    run() returns (exit code, wall seconds, peak RSS MB, stdout, stderr).
    Peak RSS comes from wait4 on each child alone, not RUSAGE_CHILDREN,
    which is a running maximum over every child ever reaped.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8")

    def run(self, argv: list[str], cwd: Path, timeout: float = OP_TIMEOUT_S):
        request = {"argv": argv, "cwd": str(cwd), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the child launcher exited")
        reply = json.loads(line)
        return (reply["code"], reply["wall"], reply["maxrss_kb"] * 1024 / 1e6,
                (cwd / ".child.stdout").read_bytes(), (cwd / ".child.stderr").read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()


def fanlex_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "fanlex", *argv]


def preflight(launcher: Launcher) -> dict:
    """Check that the children import this checkout's fanlex, pure backend."""
    src = (ROOT / "src").resolve()
    if not (src / "fanlex" / "__init__.py").is_file():
        raise BenchError(f"no fanlex package under {src}")
    probe = ("import fanlex, fanlex.cli, sys; print(fanlex.kernel_backend()); "
             "print(fanlex.__file__); print(sys.version.split()[0])")
    WORK.mkdir(parents=True, exist_ok=True)
    code, _, _, out, err = launcher.run([sys.executable, "-c", probe], WORK, 60)
    if code != 0:
        raise BenchError(f"cannot import fanlex: {err.decode(errors='replace').strip()}")
    backend, path, version = out.decode().split()
    if backend != "pure":
        raise BenchError(f"kernel backend is {backend!r}, expected 'pure'")
    if src not in Path(path).resolve().parents:
        raise BenchError(f"children import fanlex from {path}, not from {src}")
    return {"backend": backend, "python": version}


# --------------------------------------------------------------- checks


def _json(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not one JSON object: {exc}") from None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_output(op: str, stdout: bytes, expect: dict) -> dict:
    """Check invariants that hold on every seed; return the labels and totals
    the traced replay must reproduce."""
    if op == "build-lexicon":
        obj = _json(stdout)
        _require(obj.get("class") == "RAW" and obj.get("out") == "raw.lex",
                 f"unexpected class/out {obj.get('class')!r}/{obj.get('out')!r}")
        for side in ("fake", "valid"):
            _require(obj.get(f"{side}_total") == expect[f"{side}_train_tokens"],
                     f"{side}_total {obj.get(f'{side}_total')} != "
                     f"{expect[f'{side}_train_tokens']} letter tokens generated")
        _require(obj.get("unique_terms") == expect["lexicon_terms"],
                 f"unique_terms {obj.get('unique_terms')} != {expect['lexicon_terms']}")
        return {k: obj[k] for k in ("fake_total", "valid_total", "unique_terms")}
    if op == "score":
        try:
            rows = [json.loads(line) for line in stdout.decode().splitlines()]
        except ValueError as exc:
            raise CheckError(f"score line is not JSON: {exc}") from None
        _require([r.get("id") for r in rows] == expect["test_ids"],
                 f"{len(rows)} score lines, expected one per (doc, lexicon): "
                 f"{len(expect['test_ids'])}")
        labels = [r.get("label") for r in rows]
        _require(set(labels) <= {"FAKE", "VALID"}, "score label outside FAKE/VALID")
        return {"labels": labels}
    if op == "verify-corpus":
        obj = _json(stdout)
        overall = obj.get("overall", {})
        _require(all(isinstance(overall.get(k), float) and overall[k] >= 0
                     for k in ("slang_per_sentence", "misspelling_per_sentence")),
                 f"bad overall rates {overall!r}")
        _require(len(obj.get("groups", [])) == expect["groups"],
                 f"{len(obj.get('groups', []))} groups, expected {expect['groups']}")
        return {"overall": overall}
    if op == "cross-validate":
        obj = _json(stdout)
        classes = gen.CLASSES.split(",")
        got = Counter((r.get("fold"), r.get("class")) for r in obj.get("per_fold", []))
        _require(got == Counter((f, c) for f in range(CV_FOLDS) for c in classes),
                 f"{sum(got.values())} CV rows, expected folds x classes = "
                 f"{CV_FOLDS * len(classes)}")
        return {"per_fold": [[r["fold"], r["class"], r["precision"], r["recall"],
                              r["accuracy"], r["f1"]] for r in obj["per_fold"]]}
    if op == "evaluate":
        obj = _json(stdout)
        results = obj.get("results", {})
        _require(sorted(results) == sorted(gen.CLASSES.split(",")),
                 f"evaluate classes {sorted(results)}")
        n = len(expect["test_ids"])
        for cls, r in results.items():
            cm = r["confusion"]
            _require(cm["tp"] + cm["fn"] + cm["fp"] + cm["tn"] == n,
                     f"{cls} confusion total {sum(cm.values())} != test size {n}")
        return {cls: r["confusion"] for cls, r in results.items()}
    raise ValueError(op)


def digests(op: str, stdout: bytes, writes: list[str], wdir: Path) -> dict:
    out = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for name in writes:
        out[name] = hashlib.sha256((wdir / name).read_bytes()).hexdigest()
    return out


# ----------------------------------------------------------------- runs


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{name}: {error}")


def run_sequence(workload: str, wdir: Path, launcher: Launcher, expect: dict,
                 golden: dict | None, ledger: Ledger,
                 clock: hostspeed.Clock) -> tuple[dict, dict, dict, dict]:
    """One pass of the workload's subcommands.

    Returns per-op scaled seconds, raw wall seconds and peak RSS MB, and
    the checked labels and totals per op.
    """
    scaled, walls, rss, summaries = {}, {}, {}, {}
    for op, argv, writes in WORKLOADS[workload]:
        for name in writes:
            (wdir / name).unlink(missing_ok=True)
        code, wall, peak, stdout, stderr = launcher.run(fanlex_argv([op, *argv]), wdir)
        scaled[op], walls[op], rss[op] = clock.scale(wall), wall, peak
        error = None
        try:
            _require(code == 0, f"exit {code}: {stderr.decode(errors='replace').strip()[-300:]}")
            summaries[op] = check_output(op, stdout, expect)
            if golden is not None:
                _require(digests(op, stdout, writes, wdir) == golden[op],
                         "output differs from the digests pinned for the default seed")
        except CheckError as exc:
            error = str(exc)
        ledger.record(op, error)
    return scaled, walls, rss, summaries


def run_setup(wdir: Path, launcher: Launcher, ledger: Ledger,
              clock: hostspeed.Clock) -> tuple[float, float]:
    """One no-work child: interpreter start, package import, parser build.

    Returns scaled and raw wall seconds.
    """
    code, wall, _, stdout, _ = launcher.run(fanlex_argv(["--version"]), wdir)
    scaled = clock.scale(wall)
    ok = code == 0 and stdout.startswith(b"fanlex ")
    ledger.record("--version", None if ok else f"exit {code}, stdout {stdout[:80]!r}")
    return scaled, wall


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if workload not in pinned:
        raise BenchError(f"{GOLDEN.name} has no digests for {workload}")
    return pinned[workload]


def measure(workload: str, wdir: Path, launcher: Launcher, expect: dict, seconds: float,
            golden: dict | None, ledger: Ledger) -> tuple[dict, dict]:
    """Closed loop of the workload's sequence for `seconds`; end-to-end metrics.

    A repetition is one setup child plus one pass of the sequence. A new
    repetition starts only while the median repetition still fits in
    the remaining time, so a run lasts about `seconds`.
    """
    clock = hostspeed.Clock()
    samples = defaultdict(list)
    rss, reps = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(reps) <= seconds):
        rep_start = time.perf_counter()
        setup, setup_wall = run_setup(wdir, launcher, ledger, clock)
        scaled, walls, peaks, _ = run_sequence(workload, wdir, launcher, expect, golden,
                                               ledger, clock)
        samples["setup_s"].append(setup)
        samples["setup_wall_s"].append(setup_wall)
        samples["sequence_s"].append(sum(scaled.values()))
        samples["sequence_wall_s"].append(sum(walls.values()))
        for op in scaled:
            samples[f"{op.replace('-', '_')}_s"].append(scaled[op])
        rss.append(max(peaks.values()))
        reps.append(time.perf_counter() - rep_start)
    while len(samples["setup_s"]) < MIN_SETUP_RUNS:
        setup, setup_wall = run_setup(wdir, launcher, ledger, clock)
        samples["setup_s"].append(setup)
        samples["setup_wall_s"].append(setup_wall)
    samples["calibration_s"] = clock.calibrations
    metrics = {
        "tokens_per_s": expect["tokens"] / statistics.median(samples["sequence_s"]),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(samples["setup_s"]),
    }
    return metrics, dict(samples)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    A span's layer is its name up to the first dot. Spans of one tracer
    are properly nested and sequential, so the children of a span never
    overlap each other.
    """
    children = defaultdict(float)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    out = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        out[name.split(".")[0]] += end - start - children[index]
    return out


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Medians over traced repetitions of every per-layer metric."""
    per_rep = []
    subcommands = defaultdict(list)
    for rep in trace["reps"]:
        spans, scale = rep["spans"], rep["scale"]
        total = defaultdict(float)
        for name, start, end, _ in spans:
            total[name] += (end - start) * scale
        values = {f"{name}_s": total[name] for name in SPAN_TIMES}
        selfs = self_times(spans)
        values.update({f"{layer}.self_s": selfs[layer] * scale for layer in LAYERS})
        values["cli.replay_s"] = total["replay"]
        values["trace.spans"] = len(spans)
        per_rep.append(values)
        for name, t in total.items():
            if name.startswith("cli."):
                subcommands[f"{name}_s"].append(t)
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    metrics.update({k: trace["reps"][-1]["counters"][k] for k in COUNTERS})
    metrics["trace.overhead_s"] = metrics["cli.replay_s"] - statistics.median(
        trace["untraced_replay_s"])
    detail = dict(subcommands)
    detail["untraced_replay_s"] = trace["untraced_replay_s"]
    detail["calibration_s"] = trace["calibrations"]
    return metrics, detail


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_TIMES}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"cli.replay_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    units.update(COUNTERS)
    return units


def traced(workload: str, wdir: Path, launcher: Launcher, expect: dict, seconds: float,
           golden: dict | None, ledger: Ledger) -> tuple[dict, dict]:
    """Reference CLI pass, then the traced in-process replay."""
    *_, cli_summary = run_sequence(workload, wdir, launcher, expect, golden, ledger,
                                   hostspeed.Clock())
    argv = [sys.executable, str(BENCH / "replay.py"), "--workload", workload,
            "--seconds", str(seconds), "--out", "trace.json"]
    code, _, _, _, stderr = launcher.run(argv, wdir, seconds + OP_TIMEOUT_S)
    if code != 0:
        ledger.record("replay", f"exit {code}: {stderr.decode(errors='replace').strip()[-300:]}")
        return {}, {}
    trace = json.loads((wdir / "trace.json").read_text(encoding="utf-8"))
    mismatched = [op for op in cli_summary if trace["summary"].get(op) != cli_summary[op]]
    ledger.record("replay", f"labels or totals differ from the CLI's: {mismatched}"
                  if mismatched else None)
    return layer_metrics(trace)


# --------------------------------------------------------------- record


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the package sources, which pins the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fanlex").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, launcher: Launcher,
                 meta: dict) -> dict:
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    shape, expect = gen.generate(workload, seed, str(wdir))
    golden = load_golden(workload, seed)
    ledger = Ledger()
    if trace:
        metrics, detail = traced(workload, wdir, launcher, expect, seconds, golden, ledger)
        units = per_layer_units()
    else:
        metrics, detail = measure(workload, wdir, launcher, expect, seconds, golden, ledger)
        units = END_TO_END
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **meta, "shape": shape,
        "error_rate": ledger.failed / ledger.attempted,
        "failures": ledger.messages,
    }
    (wdir / "result.json").write_text(
        json.dumps({**record, "metrics": metrics, "detail": detail}, indent=1),
        encoding="utf-8")
    print_summary(record, metrics, units, detail, ledger)
    return {
        "correct": ledger.failed == 0 and set(metrics) == set(units),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def print_summary(record: dict, metrics: dict, units: dict, detail: dict,
                  ledger: Ledger) -> None:
    print(f"== {record['workload']} seed={record['seed']} backend={record['backend']} "
          f"trace={int(record['trace'])}")
    print("record " + json.dumps(record, sort_keys=True))
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    print("  samples (times scaled to the reference host speed unless named _wall):")
    for name, values in detail.items():
        print(f"  {name:<30} {statistics.median(values):>14.6g} s  "
              f"(median of {len(values)}, min {min(values):.4g}, max {max(values):.4g})")
    print(f"  {'error_rate':<30} {ledger.failed / ledger.attempted:>14.6g} "
          f"({ledger.failed}/{ledger.attempted} ops)")
    for message in ledger.messages:
        print(f"  FAILED {message}", file=sys.stderr)


def pin(seed: int, launcher: Launcher) -> None:
    """Write golden.json from one pass of every workload on the default seed."""
    if seed != DEFAULT_SEED:
        raise BenchError("--pin needs the default seed")
    pinned = {}
    for workload, ops in WORKLOADS.items():
        wdir = WORK / workload
        shutil.rmtree(wdir, ignore_errors=True)
        _, expect = gen.generate(workload, seed, str(wdir))
        pinned[workload] = {}
        for op, argv, writes in ops:
            code, _, _, stdout, stderr = launcher.run(fanlex_argv([op, *argv]), wdir)
            if code != 0:
                raise BenchError(f"{workload} {op}: exit {code}: {stderr.decode()[-300:]}")
            check_output(op, stdout, expect)
            pinned[workload][op] = digests(op, stdout, writes, wdir)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite golden.json from the default seed and exit")
    args = parser.parse_args()
    cpu = hostspeed.pin_to_one_cpu()
    launcher = Launcher()
    try:
        meta = preflight(launcher)
        if args.pin:
            pin(args.seed, launcher)
            return 0
        meta.update(git_rev=git_rev(), src_sha256=src_digest(), nproc=os.cpu_count(),
                    pinned_cpu=cpu, platform=platform.platform(),
                    reference_calibration_s=hostspeed.REFERENCE_S)
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), launcher, meta)
                   for w in workloads}
    except (BenchError, CheckError, OSError) as exc:
        print(f"fanbench: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
