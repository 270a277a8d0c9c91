"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The count test runs the catalog-variants workload traced, twice, and
takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_SUFFIXES = (".calls", ".miss_ratio")
EXACT_NAMES = ("rewrite.rules", "rewrite.ambiguities")


def _exact(layers):
    return {
        name: value
        for name, value in layers.items()
        if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES
    }


def test_traced_counts_repeat_exactly(tmp_path):
    deadline = time.monotonic() + 170
    counts = []
    for i in range(2):
        _, result = run.spawn("catalog-variants", 3, "trace", tmp_path / f"t{i}", deadline)
        assert result["wrong"] == []
        counts.append(_exact(result["layers"]))
    assert counts[0] == counts[1]
    assert counts[0]["rewrite.complete.calls"] > 0
    assert counts[0]["exprparse.parse_scalar.calls"] > 0


def test_mutants_apply_once_and_name_cheap_checks():
    catalog_dir = run.ROOT / "src" / "jqsphere" / "data"
    for mutant in workloads.load_expected()["mutants"]:
        text = (catalog_dir / mutant["file"]).read_text()
        assert text.count(mutant["old"]) == 1, mutant["name"]
        assert mutant["fails"], mutant["name"]
        assert set(mutant["fails"]) <= set(workloads.CHEAP_CHECKS), mutant["name"]


def test_refuses_a_tree_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-variants",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
