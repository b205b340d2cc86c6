import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fanlex.morph import AnalyzerRuleTable, MorphAnalysis


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}")


@pytest.fixture
def demo_table():
    """Small exact-lookup table over a handful of Turkish surfaces."""
    entries = {
        "demeyin": (
            MorphAnalysis(raw="demeyin", root="de", pos="Verb", suffixes=("Neg", "Imp", "A2pl")),
        ),
        "insanlara": (
            MorphAnalysis(raw="insanlara", root="insan", pos="Noun", suffixes=("A3pl", "Dat")),
        ),
        "gidecek": (
            MorphAnalysis(raw="gidecek", root="git", pos="Verb", suffixes=("Fut",)),
        ),
        "vergi": (MorphAnalysis(raw="vergi", root="vergi", pos="Noun"),),
        # Ambiguous on purpose: the first analysis must win.
        "yok": (
            MorphAnalysis(raw="yok", root="yok", pos="Adj"),
            MorphAnalysis(raw="yok", root="yoğ", pos="Verb", suffixes=("Neg",)),
        ),
    }
    return AnalyzerRuleTable(entries=entries)


@pytest.fixture
def write_jsonl(tmp_path):
    """Write rows of dicts as a JSONL file and return its path."""

    def _write(name, rows):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False))
                fh.write("\n")
        return str(path)

    return _write


@pytest.fixture
def write_text(tmp_path):
    def _write(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return _write
