import importlib.util
import json
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fanlex._kernels
from fanlex.morph import AnalyzerRuleTable, MorphAnalysis

CKERNELS = "fanlex._kernels._ckernels"


def pytest_sessionstart(session):
    """Compile the shipped _ckernels.c once per session, so the parity
    tests in test_kernels.py run without an in-place build.

    An importable extension is used as it is. The module is built into a
    pytest temp directory, never into the package, and registered under
    its package name; the kernel dispatch in fanlex._kernels keeps the
    backend it picked at import. Without a C compiler, Python headers or
    the .c file the compiled tests skip; a failed compile stops the run.
    """
    if importlib.util.find_spec(CKERNELS) is not None:
        return
    source = Path(fanlex._kernels.__file__).with_name("_ckernels.c")
    include = sysconfig.get_paths()["include"]
    compiler = shutil.which("cc") or shutil.which("gcc")
    if not (source.is_file() and compiler and Path(include, "Python.h").is_file()):
        return
    out_dir = session.config._tmp_path_factory.mktemp("ckernels")
    target = out_dir / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = [compiler, "-shared", "-fPIC", "-O2", f"-I{include}", str(source), "-o", str(target)]
    built = subprocess.run(command, capture_output=True, text=True)
    if built.returncode != 0:
        pytest.exit(f"{source.name} does not compile:\n{built.stderr}", returncode=1)
    spec = importlib.util.spec_from_file_location(CKERNELS, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[CKERNELS] = module


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
