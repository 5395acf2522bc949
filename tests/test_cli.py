"""Command-line surface: flags, outputs, exit codes."""

import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semirandom.cli import main, parse_property, parse_range


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_property_tokens():
    assert parse_property("mindeg3") == ("min_degree", 3)
    assert parse_property("pm") == ("perfect_matching", None)
    assert parse_property("ham") == ("hamilton_cycle", None)
    with pytest.raises(Exception):
        parse_property("mindeg0")
    with pytest.raises(Exception):
        parse_property("clique")


def test_parse_range():
    assert list(parse_range("2..4")) == [2, 3, 4]
    with pytest.raises(Exception):
        parse_range("4..2")
    with pytest.raises(Exception):
        parse_range("1-3")


def test_ode_table_stdout_csv(capsys):
    code, out, _ = run_cli(
        capsys, "ode-table", "--property", "mindeg", "--k-range", "1..2",
        "--l-range", "1..1",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert abs(float(rows[0]["constant"]) - math.log(2.0)) < 1e-8


def test_ode_table_json_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(
        capsys, "ode-table", "--property", "pm", "--k-range", "3..3",
        "--format", "json", "-o", str(path),
    )
    assert code == 0
    records = json.loads(path.read_text())
    kinds = {r["kind"] for r in records}
    assert kinds == {"lower", "upper"}
    upper = next(r for r in records if r["kind"] == "upper")
    assert abs(upper["constant"] - 0.80505) < 5e-4


def test_ode_table_rejects_sub_resolution_eps(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "ode-table", "--property", "pm", "--eps", "1e-16")
    assert code == 1
    assert "eps" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ("--property", "mindeg", "--k-range", "1..1", "--eps", "nan"),
    ("--property", "pm", "--k-range", "1..1", "--x-stop", "2"),
])
def test_ode_table_checks_the_stop_level_it_does_not_use(capsys, argv):
    code, out, err = run_cli(capsys, "ode-table", *argv)
    assert (code, out) == (1, "")
    assert ("eps" if "--eps" in argv else "x_stop") in err


def test_ode_table_refuses_unfinished_path_solve(capsys, monkeypatch):
    from semirandom.ode import systems

    # the k = 1 path constant is 1.87, so a budget of 1.0 misses x_stop
    monkeypatch.setattr(systems, "HAM_S_BUDGET", 1.0)
    code, out, err = run_cli(capsys, "ode-table", "--property", "ham", "--k-range", "1..1")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_oracle_prints_expectation(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--property", "mindeg1", "--n", "4", "--k", "1")
    assert code == 0
    assert out.strip() == "2.5"


def test_oracle_rejects_cycle_target(capsys):
    code, _, err = run_cli(capsys, "oracle", "--property", "ham", "--n", "4", "--k", "1")
    assert code == 1
    assert "oracle" in err


def test_oracle_needs_degree_target(capsys):
    code, out, err = run_cli(capsys, "oracle", "--property", "mindeg", "--n", "4", "--k", "1")
    assert (code, out) == (1, "")
    assert "needs a target, e.g. mindeg2" in err


def test_oracle_bounds_the_degree_target_at_n_40(capsys):
    code, _, err = run_cli(capsys, "oracle", "--property", "mindeg2", "--n", "41", "--k", "2")
    assert code == 1
    assert "invalid arguments" in err
    code, out, _ = run_cli(capsys, "oracle", "--property", "mindeg2", "--n", "20", "--k", "2")
    assert code == 0
    assert float(out) > 20


def test_simulate_validation_failure(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--property", "mindeg1", "--n", "0", "--k", "1"
    )
    assert code == 1
    assert "vertex count" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_rejects_nonpositive_threads(capsys, threads):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "simulate", "--property", "mindeg1", "--n", "100000", "--k", "1",
        "--trials", "4", "--threads", threads,
    )
    assert code == 1
    assert "workers" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command,prop,threshold",
                         [("compare", "mindeg1", "0.3"), ("simulate", "mindeg2", "0.5")])
def test_degree_target_rejects_a_threshold(capsys, command, prop, threshold):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, command, "--property", prop, "--n", "100000", "--k", "1",
        "--trials", "4", "--threshold", threshold, "--threads", "1",
    )
    assert (code, out) == (1, "")
    assert "takes no threshold" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("prop", ["pm", "ham"])
def test_matching_and_cycle_tables_reject_an_l_range(capsys, prop):
    code, out, err = run_cli(
        capsys, "ode-table", "--property", prop, "--k-range", "1..2", "--l-range", "1..3",
    )
    assert (code, out) == (1, "")
    assert "no l range" in err


@pytest.mark.parametrize("command,prop,n,message", [
    ("simulate", "pm", "101", "even vertex count"),
    ("compare", "pm", "101", "even vertex count"),
    ("simulate", "ham", "2", "at least 3 vertices"),
    ("compare", "ham", "2", "at least 3 vertices"),
])
def test_vertex_count_fails_before_any_pool_or_solve(capsys, monkeypatch, spy_pool,
                                                     command, prop, n, message):
    import semirandom.cli as cli

    solved = []
    for name in ("solve_pm", "solve_ham"):
        monkeypatch.setattr(cli, name, lambda *a, **kw: solved.append(a))
    code, out, err = run_cli(
        capsys, command, "--property", prop, "--n", n, "--k", "1",
        "--trials", "2", "--threads", "2",
    )
    assert (code, out) == (1, "")
    assert message in err
    assert (spy_pool, solved) == ([], [])


@pytest.mark.parametrize("command,seed", [("simulate", "-1"), ("compare", "-3")])
def test_negative_seed_fails_before_any_pool_or_solve(capsys, monkeypatch, spy_pool,
                                                      command, seed):
    import semirandom.cli as cli

    solved = []
    monkeypatch.setattr(cli, "solve_min_degree", lambda *a, **kw: solved.append(a))
    code, out, err = run_cli(
        capsys, command, "--property", "mindeg1", "--n", "10", "--k", "1",
        "--trials", "2", "--threads", "2", "--seed", seed,
    )
    assert (code, out) == (1, "")
    assert "seed must be >= 0" in err
    assert (spy_pool, solved) == ([], [])


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--property", "mindeg1", "--n", "4", "--k", "1",
        "--frobnicate",
    )
    assert code == 1
    assert "usage" in err.lower()


def test_simulate_outputs_summary(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--property", "mindeg1", "--n", "200", "--k", "2",
        "--trials", "3", "--threads", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"]["k"] == 2
    assert payload["main_rounds_per_n"]["trials"] == 3


def test_simulate_needs_degree_target(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--property", "mindeg", "--n", "10", "--k", "1"
    )
    assert code == 1
    assert "target" in err


def test_compare_reports_gap(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--property", "mindeg1", "--n", "2000", "--k", "1",
        "--trials", "1", "--threads", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sup_distance"] < 0.05
    assert abs(payload["solved_constant"] - math.log(2.0)) < 1e-8


def test_compare_accepts_a_coarse_matching_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--property", "pm", "--n", "2000", "--k", "1",
        "--threshold", "0.5", "--threads", "1",
    )
    assert code == 0
    assert 0.25 <= json.loads(out)["solved_constant"] < 0.5


def test_compare_rejects_sub_resolution_eps_before_simulating(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "compare", "--property", "pm", "--n", "100000", "--k", "1",
        "--trials", "4", "--threshold", "1e-16", "--threads", "1",
    )
    assert code == 1
    assert "eps" in err
    assert time.perf_counter() - start < 1.0


def test_dominance_runs(capsys):
    code, out, _ = run_cli(
        capsys, "dominance", "--property", "mindeg1", "--baseline", "uniform_circle",
        "--n", "300", "--k", "1", "--trials", "20", "--threads", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mean_strategy"] < payload["mean_baseline"]


def test_dominance_bad_baseline_exits_1_before_any_trial(capsys, monkeypatch):
    from semirandom.harness import trials

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the baseline was validated")

    monkeypatch.setattr(trials, "run_trials", no_trials)
    code, out, err = run_cli(
        capsys, "dominance", "--baseline", "nope", "--n", "20000", "--k", "2", "--trials", "10",
    )
    assert (code, out) == (1, "")
    assert "unknown strategy 'nope'" in err


def test_dominance_one_trial_exits_1_before_any_trial(capsys, monkeypatch):
    from semirandom.harness import trials

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the trial count was validated")

    monkeypatch.setattr(trials, "run_trials", no_trials)
    code, out, err = run_cli(
        capsys, "dominance", "--baseline", "uniform_circle", "--n", "50", "--k", "1",
        "--trials", "1",
    )
    assert (code, out) == (1, "")
    assert "need at least two paired differences" in err


def test_help_lists_documented_flags(capsys):
    with pytest.raises(SystemExit):
        main(["ode-table", "--help"])
    out = capsys.readouterr().out
    for flag in ("--property", "--k-range", "--l-range", "--eps", "--format",
                 "--seed", "--threads", "--verbose"):
        assert flag in out


def test_verbose_logs_the_subcommand_wall_time(capsys, caplog):
    caplog.set_level(logging.INFO, logger="semirandom")
    argv = ["oracle", "--property", "mindeg1", "--n", "4", "--k", "1"]
    code, out, _ = run_cli(capsys, *argv, "--verbose")
    assert code == 0 and out == "2.5\n"
    (record,) = [r for r in caplog.records if r.name == "semirandom"]
    assert record.levelno == logging.INFO
    assert re.fullmatch(r"oracle took \d+\.\d{3} s", record.getMessage())


# Run in a fresh interpreter: the solver, oracle and validation paths load
# neither numpy nor the process pool, and the first draw loads numpy.
COLD_START = """
import sys

def assert_cold(step):
    for name in ("numpy", "concurrent.futures.process"):
        assert name not in sys.modules, (step, name)

import semirandom
assert_cold("import semirandom")
import semirandom.cli
assert_cold("import semirandom.cli")
from semirandom.cli import main
assert main(["ode-table", "--property", "mindeg", "--k-range", "1..2", "--l-range", "1..2"]) == 0
assert_cold("ode-table")
assert main(["oracle", "--property", "mindeg2", "--n", "5", "--k", "2"]) == 0
assert_cold("oracle")
assert main(["simulate", "--property", "mindeg1", "--n", "0", "--k", "1"]) == 1
assert_cold("an invalid input")
try:
    main(["--help"])
except SystemExit:
    pass
assert_cold("--help")
assert main(["simulate", "--property", "mindeg1", "--n", "50", "--k", "1",
             "--trials", "1", "--threads", "1"]) == 0
assert "numpy" in sys.modules, "a simulation must draw through numpy"
"""


def test_cold_start_loads_numpy_only_to_draw():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # quiet without --verbose: the invalid input's message is all of stderr
    assert proc.stderr == "invalid arguments: vertex count must be >= 1, got 0\n"
