"""Fast checks of the benchmark itself.

Runs a tiny version of every workload end to end and traced, and checks
that corrupted program output is reported as a failure and counted in the
error rate.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)
END_TO_END = ("wall_s", "wall_p1_s", "efficiency", "setup_s", "peak_rss_mb")


def drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def duplicate_first_line(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines + lines[:1])


def wrong_answer(text: str) -> str:
    """Off-by-one count, a claimed model, or a reversed extension."""
    lines = text.splitlines()
    if lines and lines[-1].isdigit():
        lines[-1] = str(int(lines[-1]) + 1)
    elif lines == ["s UNSATISFIABLE"]:
        lines = ["s SATISFIABLE", "v 1 0"]
    else:
        lines[0] = " ".join(reversed(lines[0].split()))
    return "\n".join(lines) + "\n"


def test_exact_answers_match_known_values():
    k44 = [(u, v) for u in range(1, 5) for v in range(5, 9)]
    assert exact.count_spanning_trees(8, k44) == 4096
    assert exact.count_linear_extensions(8, []) == 40320
    chain = [(i, i + 1) for i in range(1, 6)]
    assert exact.count_linear_extensions(6, chain) == 1
    assert exact.extension_line_errors(3, [(1, 2)], ["1 2 3", "1 3 2", "3 1 2"], 3) == []
    assert exact.extension_line_errors(3, [(1, 2)], ["2 1 3"], 1)


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic(name, tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        prepared = workloads.prepare(name, 3, tmp_path / sub, tiny=True)
        texts.append([case.input_path.read_text() for case in prepared.cases])
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_end_to_end(name, tmp_path):
    prepared = workloads.prepare(name, 7, tmp_path, tiny=True)
    metrics, tally = bench.measure_end_to_end(prepared, 0, tmp_path, min_reps=1)
    assert tally.failed == 0, tally.problems
    assert tally.attempted == 3 * len(prepared.cases)
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value, _unit in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_traced(name, tmp_path):
    prepared = workloads.prepare(name, 7, tmp_path, tiny=True)
    tally = bench.Tally()
    metrics = layers.measure_layers(prepared, 0, 2, tally, min_reps=1)
    assert tally.failed == 0, tally.problems
    assert list(metrics) == [metric for metric, _unit, _better in layers.LAYER_METRICS]
    assert metrics["engine.jobs"][0] > 0
    assert metrics["app.init_calls"][0] >= 3


@pytest.mark.parametrize("mangle", [drop_last_line, duplicate_first_line, wrong_answer])
@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_counts_as_failure(name, mangle, tmp_path):
    prepared = workloads.prepare(name, 7, tmp_path, tiny=True)
    _metrics, tally = bench.measure_end_to_end(prepared, 0, tmp_path, mangle, min_reps=1)
    assert tally.attempted > 0
    assert tally.failed == tally.attempted, tally.problems


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _u, _b in layers.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _m, u, _b in layers.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
