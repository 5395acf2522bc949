"""Self-test of the benchmark on tiny inputs (n = 1000, small grids).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It runs every workload once untraced and twice traced, and checks that the
result line names every metric of ``BENCHMARK.json`` with its unit, that no
call raised, and that counts and output digests repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7
# exact counts: these must repeat bit for bit on the same seed
EXACT = ("ode.integrate.steps", "ode.integrate.rhs_evals")
EXACT_SUFFIXES = (".calls", ".completion_rounds_frac", ".changed_frac")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = BENCH_DIR / "results" / f"{workload}-seed{SEED}-trace{trace}-smoke.json"
    return line, json.loads(report.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    name = request.param
    return name, _result(name, 0), _result(name, 1), _result(name, 1)


def _check_line(line: dict, declared: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    assert line["correct"] == (line["failed"] == 0)
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for value in line["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_every_metric_is_emitted_with_its_unit(runs):
    _, (line0, report0), (line1, _), _ = runs
    _check_line(line0, SPEC["end_to_end"])
    _check_line(line1, SPEC["per_layer"])
    assert report0["failed_frac"]["unit"] == "ratio"
    for key in ("nproc", "cpu", "python", "numpy", "git_sha", "git_dirty"):
        assert key in report0["provenance"]


def test_no_call_raised(runs):
    for _, report in runs[1:]:
        assert report["child"]["errors"] == []


def test_counts_and_digests_repeat(runs):
    _, (_, report0), (line_a, report_a), (line_b, report_b) = runs
    exact = [
        name for name in line_a["metrics"]
        if name in EXACT or name.endswith(EXACT_SUFFIXES)
    ]
    assert exact
    for name in exact:
        assert line_a["metrics"][name] == line_b["metrics"][name], name
    digests = {r["child"]["digest"] for r in (report0, report_a, report_b)}
    assert len(digests) == 1


def test_traced_self_times_fit_in_the_traced_wall(runs):
    for _, report in runs[2:]:
        child = report["child"]
        assert 0 < child["self_sum_s"] <= child["traced_wall_s"]
        assert "self times fit in the traced wall" not in child["failed_checks"]


def test_referees_pass_their_checks_on_small_grids():
    line, _ = _result("referees", 0)
    assert line["correct"] and line["failed"] == 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
