"""The benchmark's traced replay (fanbench/replay.py), run for real.

fanbench/run.py --trace 1 starts replay.py as a child and prints a result
without metrics when that child fails, so a library change that breaks a
replay call breaks the traced benchmark and no other test. Each workload
here is replayed traced, probed and replayed untraced, as replay.py's
main loop does it, on the small inputs of test_benchmark_call_shapes.
Its labels and totals must equal those the CLI prints for the same
subcommands, which is the comparison run.py makes.
"""

import json
import sys
from pathlib import Path

import pytest

from fanlex.cli import main
from fanlex.corpus import load_corpus
from test_benchmark_call_shapes import inputs  # noqa: F401  (fixture)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "fanbench"))

import replay  # noqa: E402
import run  # noqa: E402


def cli_summary(capsys, monkeypatch, workload: str) -> dict:
    """run.check_output's labels and totals for each of the workload's
    subcommands, run through fanlex.cli.main."""
    monkeypatch.delenv("FANLEX_CONFIG", raising=False)
    corpus = load_corpus("corpus.jsonl").documents
    summaries = {}
    for op, argv, _ in run.WORKLOADS[workload]:
        assert main([op, *argv]) == 0
        stdout = capsys.readouterr().out
        # The generator's expectations do not hold for these inputs. The
        # CLI's own totals stand in for them: what is checked here is the
        # replay's agreement with the CLI.
        built = json.loads(stdout) if op == "build-lexicon" else {}
        expect = {
            "fake_train_tokens": built.get("fake_total"),
            "valid_train_tokens": built.get("valid_total"),
            "lexicon_terms": built.get("unique_terms"),
            "test_ids": [d.id for d in load_corpus("test.jsonl").documents],
            "groups": len({(d.source, d.label) for d in corpus}),
        }
        summaries[op] = run.check_output(op, stdout.encode(), expect)
    return summaries


@pytest.mark.parametrize("workload", sorted(replay.REPLAYS))
def test_replay_runs_and_agrees_with_cli(inputs, capsys, monkeypatch, workload):  # noqa: F811
    tr = replay.Tracer()
    out: dict = {}
    with tr.span("replay"):
        summary = replay.REPLAYS[workload](tr, out)
    with tr.span("probes"):
        counters = replay.probe(tr, replay.Inputs(workload), out)
    replay.REPLAYS[workload](replay.NullTracer(), {})
    spans = {name for name, *_ in tr.spans}
    assert set(run.SPAN_TIMES) <= spans
    assert set(counters) == set(run.COUNTERS)
    # The summary reaches run.py through a JSON file.
    assert json.loads(json.dumps(summary)) == cli_summary(capsys, monkeypatch, workload)
