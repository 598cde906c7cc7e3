"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import threading
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from coarseops import bounds, cli, engine, thermo, verify
from coarseops.bounds import epsilon_iii
from coarseops.cli import main
from coarseops.protocol import (
    LevelTransformation as LT,
    PartialThermalization as PT,
    Protocol,
    build_thermalize_once,
    from_json_dict,
    to_json,
)
from coarseops.thermo import ThermalContext

CTX = ThermalContext(beta=1.0, e0=math.log(3))


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_simulate_empty_protocol(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text(to_json(Protocol(CTX, [])))
    result = run("simulate", "--protocol", str(f))
    assert result.exit_code == 0
    assert result.stdout == "work,probability\n0,1\n"


def test_simulate_thermalize_once(tmp_path):
    f = tmp_path / "proto.json"
    f.write_text(to_json(build_thermalize_once(0.0, 1.0, CTX)))
    result = run("simulate", "--protocol", str(f), "--p-in", "0")
    assert result.exit_code == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "work,probability"
    assert len(lines) == 3  # two atoms
    assert float(lines[1].split(",")[0]) == pytest.approx(-math.log(3))


def test_simulate_monte_carlo_deterministic():
    args = ("simulate", "--p-beta", "0.25", "--p-out", "0.3",
            "--samples", "5000", "--seed", "7")
    a, b = run(*args), run(*args)
    assert a.exit_code == 0
    assert a.stdout == b.stdout


def test_simulate_json_format(tmp_path):
    f = tmp_path / "proto.json"
    f.write_text(to_json(build_thermalize_once(0.0, 1.0, CTX)))
    result = run("simulate", "--protocol", str(f), "--p-in", "0",
                 "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["final_p_excited"] == pytest.approx(0.5)
    assert len(doc["work"]) == 2


def _law_doc(work, std_error=None, variance=0.25):
    doc = {"work": list(work), "probability": [1 / len(work)] * len(work),
           "final_p_excited": 0.3, "mean": 0.5, "variance": variance}
    if std_error is not None:
        doc["mean_std_error"] = std_error
    return doc


@pytest.mark.parametrize("doc", [
    _law_doc([0.0]),
    _law_doc([-0.0, 5e-324, 1e-05, 1e16, 1e308]),
    _law_doc([-1.5, 2.0], variance=math.inf),
    _law_doc([-1.5, 2.0], std_error=0.125),
    _law_doc([-1.5, 2.0], std_error=math.inf, variance=math.inf),
    _law_doc([-1.5, math.inf]),
    _law_doc([math.nan, 2.0, -math.inf]),
    _law_doc([1e308, 1e308]),
    _law_doc([math.inf, -math.inf]),
    {"work": [], "probability": [], "final_p_excited": 0.0, "mean": 0.0,
     "variance": 0.0},
], ids=["one atom", "extreme values", "infinite variance", "std error",
        "infinite std error", "infinite work", "nan and -inf",
        "finite values whose sum overflows", "inf and -inf", "empty"])
def test_law_json_is_json_dumps_byte_for_byte(doc):
    assert cli._law_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("extra", [(), ("--samples", "20000", "--seed", "3")])
def test_simulate_json_is_json_dumps_of_its_own_document(extra):
    result = run("simulate", "--p-beta", "0.25", "--p-in", "0.1", "--p-out",
                 "0.3", "--stage2-steps", "50", "--format", "json", *extra)
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert len(doc["work"]) > 1
    assert result.stdout == json.dumps(doc, indent=2) + "\n"


def test_simulate_bad_file(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    result = run("simulate", "--protocol", str(f))
    assert result.exit_code == 2


def test_simulate_invalid_protocol(tmp_path):
    f = tmp_path / "invalid.json"
    f.write_text(json.dumps({
        "beta": 1.0, "e0": 1.0,
        "steps": [{"type": "BT", "gamma": 1.0}],  # swap at nonzero gap
    }))
    result = run("simulate", "--protocol", str(f))
    assert result.exit_code == 2
    assert "swap" in result.stderr


def test_simulate_zero_samples_is_validation_error():
    result = run("simulate", "--p-beta", "0.25", "--p-out", "0.3",
                 "--samples", "0")
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["error: --samples must be >= 1, got 0"]


def test_simulate_null_parameter_is_validation_error(tmp_path):
    f = tmp_path / "null.json"
    f.write_text(json.dumps({
        "beta": 1.0, "e0": 1.0,
        "steps": [{"type": "PT", "lambda": None}],
    }))
    result = run("simulate", "--protocol", str(f))
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("value", [None, True, "0.5"])
def test_protocol_loader_rejects_non_numbers(value):
    step = {"beta": 1.0, "e0": 1.0, "steps": [{"type": "PT", "lambda": value}]}
    with pytest.raises(ValueError):
        from_json_dict(step)
    with pytest.raises(ValueError):
        from_json_dict({"beta": value, "e0": 1.0, "steps": []})


class _ProtocolFile(str):
    """A protocol document that the test writes to a file and passes by
    path."""


def _materialize(args, tmp_path):
    f = tmp_path / "protocol.json"
    for a in args:
        if isinstance(a, _ProtocolFile):
            f.write_text(a)
    return [str(f) if isinstance(a, _ProtocolFile) else a for a in args]


@pytest.mark.parametrize("args", [
    ("simulate", "--beta", "nan", "--p-out", "0.3"),
    ("simulate", "--e0", "inf", "--p-out", "0.3"),
    ("figure8", "--beta", "nan"),
    ("verify", "--beta", "nan"),
    ("classify", "--e0", "nan", "--p-in", "0.1", "--p-out", "0.3"),
    # e0 = ln(3) / beta overflows to inf.
    ("bounds", "--p-beta", "0.25", "--beta", "1e-320",
     "--p-in", "0.1", "--p-out", "0.3"),
    # An integer beyond the float range, and a document nested past the
    # recursion limit: refused by the loader, not a traceback.
    ("simulate", "--protocol", _ProtocolFile(
        '{"beta": 1.0, "e0": 1.0, "steps": [{"type": "PT", "lambda": 1%s}]}'
        % ("0" * 400))),
    ("simulate", "--protocol", _ProtocolFile("[" * 200_000 + "]" * 200_000)),
])
def test_non_finite_context_is_validation_error(args, tmp_path):
    result = run(*_materialize(args, tmp_path))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_simulate_requires_source():
    result = run("simulate", "--p-beta", "0.25")
    assert result.exit_code == 1


def test_figure8_output():
    result = run("figure8", "--points", "100")
    assert result.exit_code == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "p_out,work_threshold,prob_pin_1_16,prob_pin_1_8,prob_pin_3_16"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 100
    assert rows[-1][0] == pytest.approx(0.5)
    thresholds = [r[1] for r in rows]
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
    for r in rows:
        q_star = (r[0] + 0.25) / 2
        assert r[1] == pytest.approx(epsilon_iii(q_star, CTX) / 2, abs=1e-12)
        assert r[3] == pytest.approx(2 * r[2], rel=1e-12)
        assert r[4] == pytest.approx(3 * r[2], rel=1e-12)


def test_figure8_rejects_small_grid():
    assert run("figure8", "--points", "50").exit_code == 1


def test_classify_forbidden():
    result = run("classify", "--p-beta", "0.25", "--p-in", "0.1",
                 "--p-out", "0.3")
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["verdict"] == "forbidden"
    assert doc["bound"]["regime"] == "A6"
    assert doc["bound"]["probability"] > 0


def test_classify_mixing():
    result = run("classify", "--p-beta", "0.25", "--p-in", "0.3",
                 "--p-out", "0.26")
    doc = json.loads(result.stdout)
    assert doc["verdict"] == "mixing"
    assert doc["lambda"] == pytest.approx(0.8)


def test_classify_writes_witness(tmp_path):
    out = tmp_path / "witness.json"
    result = run("classify", "--p-beta", "0.25", "--p-in", "1",
                 "--p-out", "0.05", "--out", str(out))
    assert result.exit_code == 0
    assert json.loads(result.stdout)["verdict"] == "pure_excited"
    doc = json.loads(out.read_text())
    assert [s["type"] for s in doc["steps"]] == ["LT", "BT", "LT", "PT"]


@pytest.mark.parametrize("p", ["0.5", "1.0"])
def test_staying_above_p_beta_mixes_with_weight_zero(tmp_path, p):
    # p_out == p_in above p_beta divides 0.0 by p_beta - p_in < 0; the
    # verdict and the witness printed lambda = -0.0.
    out = tmp_path / "witness.json"
    result = run("classify", "--p-beta", "0.25", "--p-in", p, "--p-out", p,
                 "--out", str(out))
    assert result.exit_code == 0, result.output
    assert "-0.0" not in result.stdout + out.read_text()
    (step,) = from_json_dict(json.loads(out.read_text())).steps
    assert math.copysign(1.0, step.lam) == 1.0
    if p == "0.5":
        assert '"lambda": 0.0' in result.stdout


def test_classify_invalid_probability():
    result = run("classify", "--p-beta", "0.25", "--p-in", "1.5",
                 "--p-out", "0.3")
    assert result.exit_code == 2


def test_ctx_flags_mutually_exclusive():
    result = run("classify", "--e0", "1.0", "--p-beta", "0.25",
                 "--p-in", "0.1", "--p-out", "0.3")
    assert result.exit_code == 1


def test_bounds_json_and_csv():
    result = run("bounds", "--p-beta", "0.25", "--p-in", "0.125",
                 "--p-out", "0.375")
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["regime"] == "A6"
    assert doc["threshold"] == pytest.approx(epsilon_iii(5 / 16, CTX) / 2)
    csv = run("bounds", "--p-beta", "0.25", "--p-in", "0.125",
              "--p-out", "0.375", "--format", "csv")
    lines = csv.stdout.strip().split("\n")
    assert lines[0] == "threshold,probability,p1,p2,p3,pf,regime"
    assert lines[1].endswith(",A6")


@pytest.mark.parametrize("args", [("classify",), ("bounds",),
                                  ("bounds", "--format", "csv")])
def test_negative_zero_start_prints_the_bound_of_zero(args):
    # min(-0.0, 1.0) is -0.0, which made p1 and the probability print -0.0.
    common = ("--p-beta", "0.25", "--p-out", "0.3")
    negative = run(*args, *common, "--p-in", "-0.0")
    assert negative.exit_code == 0
    assert negative.stdout == run(*args, *common, "--p-in", "0.0").stdout


def test_bounds_achievable_is_error():
    result = run("bounds", "--p-beta", "0.25", "--p-in", "0.3",
                 "--p-out", "0.26")
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["classify", "bounds"])
def test_forbidden_move_one_ulp_from_p_beta_is_vacuous(command):
    # p_in = p_beta and p_out an ulp away: the stage-III margin rounds below
    # 0, and the bound is vacuous instead of a validation error.
    result = run(command, "--e0", "2.751535313041949",
                 "--p-in", "0.06000000000000001",
                 "--p-out", "0.060000000000000005")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    bound = doc["bound"] if command == "classify" else doc
    assert bound["threshold"] == 0.0 and bound["probability"] == 0.0


@pytest.mark.parametrize("command", ["classify", "bounds"])
def test_forbidden_move_whose_pivot_rounds_onto_0_is_vacuous(command):
    # q* = (0 + 5e-324)/2 rounds to 0, where no gap has that thermal
    # population: the bound is vacuous instead of a validation error.
    result = run(command, "--p-beta", "0.25", "--p-in", "5e-324",
                 "--p-out", "0")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    bound = doc["bound"] if command == "classify" else doc
    assert bound == {
        "threshold": 0.0, "probability": 0.0,
        "components": {"p1": 5e-324, "p2": 0.0, "p3": 1.0, "pf": 0.0},
        "regime": "A8",
    }


@pytest.mark.parametrize("command", ["classify", "bounds"])
def test_upward_pivot_onto_0_where_p_beta_underflows_is_vacuous(command):
    # At beta*e0 = 800, p_beta is 0 and 0 -> 5e-324 moves away from it;
    # q* = (5e-324 + 0)/2 rounds onto 0, so the bound is vacuous.
    result = run(command, "--e0", "800", "--p-in", "0", "--p-out", "5e-324")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    bound = doc["bound"] if command == "classify" else doc
    assert bound == {
        "threshold": 0.0, "probability": 0.0,
        "components": {"p1": 0.0, "p2": 0.0, "p3": 0.0, "pf": 0.0},
        "regime": "A8",
    }


@pytest.mark.parametrize("ctx_args", [
    ("--p-beta", "0.05"), ("--p-beta", "0.3"), ("--p-beta", "0.45"),
    ("--e0", "0"), ("--beta", "800", "--e0", "1"),
    ("--beta", "1e-6"), ("--beta", "1e9"),
])
def test_verify_passes_at_any_accepted_context(ctx_args):
    # bounds_vs_simulation builds its pairs from p_beta; once p_beta
    # underflows to 0 neither family has a pair, and the margin says so.
    # Far from beta*E ~ 1 an absolute tolerance failed engine_equivalence
    # (beta = 1e-6) and bounds_vs_simulation (1e9), but not within 4 cases.
    cases = "40" if ctx_args[1] in ("1e-6", "1e9") else "4"
    result = run("verify", "--cases", cases, *ctx_args)
    assert result.exit_code == 0, result.output
    empty = "PASS bounds_vs_simulation (min_probability_slack=inf)"
    assert (empty in result.stdout) == (ctx_args[1] == "800")


def test_verify_passes_by_default():
    result = run("verify", "--cases", "15")
    assert result.exit_code == 0, result.output
    lines = result.stdout.strip().split("\n")
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_verify_fault_injection_fails_one_check(monkeypatch):
    # Overstate the probability of both no-go bounds to near-certainty.
    for name in ("theorem_main_bound", "theorem_rev_bound"):
        def overstated(*args, honest=getattr(bounds, name)):
            b = honest(*args)
            claimed = min(1.0, b.probability_lower_bound + 0.99)
            return dataclasses.replace(b, probability_lower_bound=claimed)
        monkeypatch.setattr(bounds, name, overstated)
    # Forked workers inherit the patch: on one CPU and on ten the same
    # check fails.
    for cpus in (1, 10):
        monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
        result = run("verify", "--cases", "10", "--format", "json")
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        failed = [c["check"] for c in doc["checks"] if not c["passed"]]
        assert failed == ["bounds_vs_simulation"]


def test_verify_appendix_margin_is_positive():
    # Ties (bound 0 with share 0, bound 1 with share 1) have zero slack;
    # the reported margin excludes them and adds the swap-segment grid.
    result = run("verify", "--cases", "200", "--seed", "0", "--format", "json")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    [margin] = [c["margin"] for c in doc["checks"]
                if c["check"] == "appendix_utilities"]
    slacks = dict(field.split("=") for field in margin.split())
    assert set(slacks) == {"min_interior_slack", "grid_min_slack"}
    assert all(float(v) > 0.0 for v in slacks.values()), margin


def test_verify_quadrature_checks_the_scalar_gibbs_population(monkeypatch):
    # The quadrature runs on node arrays; a scalar branch 1e-14 off must
    # still fail the check, through the reported max_scalar_gap.
    honest = thermo.gibbs_population

    def skewed(e, ctx):
        g = honest(e, ctx)
        return g if isinstance(e, np.ndarray) else g * (1.0 + 1e-14)

    rng = np.random.Generator(np.random.Philox(key=0))
    passed, margin = verify._check_gibbs_quadrature(CTX, 20, rng)
    assert passed and "max_scalar_gap=" in margin
    monkeypatch.setattr(thermo, "gibbs_population", skewed)
    rng = np.random.Generator(np.random.Philox(key=0))
    passed, margin = verify._check_gibbs_quadrature(CTX, 20, rng)
    assert not passed
    assert float(margin.split("max_scalar_gap=")[1]) >= 1e-14


def test_verify_swap_segment_grid_equals_the_double_loop():
    grid = math.inf
    for d1 in np.linspace(1e-3, 5.0, 100):
        q = thermo.gibbs_population(float(d1), CTX)
        for d2 in np.linspace(1e-3, 5.0, 100):
            lhs = 2.0 * q * (1.0 - q) * d1 * d2
            rhs = (2.0 / CTX.beta) * (0.5 - q) * d2
            grid = min(grid, rhs - lhs)
    rng = np.random.Generator(np.random.Philox(key=0))
    passed, margin = verify._check_appendix_utilities(CTX, 5, rng)
    assert passed
    assert margin.endswith(f" grid_min_slack={grid:.3e}")


def test_verify_deterministic():
    a = run("verify", "--cases", "10", "--seed", "3")
    b = run("verify", "--cases", "10", "--seed", "3")
    assert a.stdout == b.stdout


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify_at(monkeypatch, cpus, *args):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    result = run("verify", "--cases", "3", *args)
    _assert_no_child_left()
    return result.exit_code, result.stdout, result.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_does_not_depend_on_the_cpu_count(monkeypatch, fmt):
    # At 16 CPUs the pool is clipped to one process per check: nine forks
    # and this process.
    forks = []
    fork_worker = verify._fork_worker

    def counted(*args):
        forks.append(1)
        return fork_worker(*args)

    monkeypatch.setattr(verify, "_fork_worker", counted)
    one = _verify_at(monkeypatch, 1, "--format", fmt)
    assert one[0] == 0 and not forks
    for cpus, n in ((3, 2), (16, len(verify._CHECKS) - 1)):
        assert _verify_at(monkeypatch, cpus, "--format", fmt) == one
        assert len(forks) == n
        forks.clear()


def test_verify_forks_nothing_while_another_thread_runs(monkeypatch):
    # A forked child copies only the calling thread, and could wait forever
    # on a lock the helper held; so the suite runs in this process alone,
    # with the output of one CPU.
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    one = _verify_at(monkeypatch, 1)
    assert one[0] == 0 and not forks
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        assert _verify_at(monkeypatch, 16) == one
    finally:
        release.set()
        helper.join()
    assert not forks
    assert _verify_at(monkeypatch, 16) == one
    assert len(forks) == len(verify._CHECKS) - 1


def test_verify_ignores_the_fork_warning_of_python_3_12(monkeypatch):
    # Python 3.12 and later warn in the parent when os.fork runs beside
    # other OS threads.  Under the suite's filterwarnings = error, that
    # warning would raise after the child started, and leave it unreaped.
    forks = []
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            forks.append(pid)
            warnings.warn("This process is multi-threaded, use of fork() may "
                          "lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
        return pid

    one = _verify_at(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", warning_fork)
    assert _verify_at(monkeypatch, 3) == one
    assert len(forks) == 2


def _open_fds():
    """The names of the descriptors this process holds, or None where there
    is no /proc to list them."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.mark.parametrize("refused", [1, 2])
def test_verify_runs_on_when_a_fork_is_refused(monkeypatch, refused):
    # A refused fork (EAGAIN: no process left) ends the forking: any worker
    # forked before it runs, this process drains the rest, and the refused
    # worker's pipe is closed.
    calls = []
    fork = os.fork

    def refusing():
        calls.append(1)
        if len(calls) == refused:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    one = _verify_at(monkeypatch, 1)
    assert one[0] == 0
    monkeypatch.setattr(os, "fork", refusing)
    fds = _open_fds()
    assert _verify_at(monkeypatch, 16) == one
    assert _open_fds() == fds
    assert len(calls) == refused


def _patch_check(monkeypatch, index, check):
    checks = list(verify._CHECKS)
    checks[index] = (checks[index][0], check)
    monkeypatch.setattr(verify, "_CHECKS", checks)


def _raise_value_error(ctx, cases, rng):
    raise ValueError("check three refused its input")


def _overflow(ctx, cases, rng):
    return bool(np.float64(1e308) * 10.0 > 0), "unreachable"


@pytest.mark.parametrize("raising", [
    {3: _raise_value_error},
    {8: _overflow},
    {3: _raise_value_error, 8: _overflow},
    {8: _raise_value_error, 3: _overflow},
])
def test_verify_error_in_a_check_reads_as_on_one_cpu(monkeypatch, raising):
    # A check that raises in a worker is run again by this process, in
    # suite order, so the lowest raising index gives the one error line,
    # through the CLI's boundary, at every CPU count.
    for index, check in raising.items():
        _patch_check(monkeypatch, index, check)
    one = _verify_at(monkeypatch, 1)
    code, stdout, stderr = one
    assert (code, stdout) == (2, "")
    [line] = stderr.splitlines()
    # numpy 1.x and 2.x name the overflowing operation differently.
    assert line.startswith("error: check three refused its input"
                           if raising[min(raising)] is _raise_value_error
                           else "error: overflow encountered in ")
    for cpus in (3, 16):
        assert _verify_at(monkeypatch, cpus) == one


def test_verify_reruns_the_checks_of_a_worker_that_died(monkeypatch, tmp_path):
    # Every check kills the worker that runs it, so each worker dies at its
    # first check without reporting, and this process runs them all.
    parent, marker = os.getpid(), tmp_path / "died"
    honest = list(verify._CHECKS)
    one = _verify_at(monkeypatch, 1)
    for i, (_, check) in enumerate(honest):
        def dying(ctx, cases, rng, check=check):
            if os.getpid() != parent:
                marker.touch()
                os._exit(1)
            return check(ctx, cases, rng)
        _patch_check(monkeypatch, i, dying)
    assert _verify_at(monkeypatch, 3) == one
    assert marker.exists()


def test_verify_interrupt_kills_the_workers(monkeypatch):
    # Ctrl-C in this process, while the workers are still busy, reaches the
    # caller at once, and no worker outlives run_checks.
    parent = os.getpid()

    def interrupted(ctx, cases, rng):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    for i in range(len(verify._CHECKS)):
        _patch_check(monkeypatch, i, interrupted)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_checks(CTX, 3, 0)
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_verify_rejects_bad_cases():
    assert run("verify", "--cases", "0").exit_code == 1


def test_unknown_option_is_usage_error():
    assert run("simulate", "--frobnicate").exit_code == 1


@pytest.mark.parametrize("args", [
    ("classify", "--beta", "800", "--e0", "1", "--p-in", "0.1",
     "--p-out", "0.3"),
    ("verify", "--cases", "2", "--beta", "400"),
    # Works of order 1e200 square past the float range: variance=inf.
    ("simulate", "--beta", "1e-200", "--p-beta", "0.25", "--p-in", "0.1",
     "--p-out", "0.3", "--stage2-steps", "20"),
    ("simulate", "--beta", "1e-200", "--p-beta", "0.25", "--p-in", "0.1",
     "--p-out", "0.3", "--stage2-steps", "20", "--samples", "100"),
    # Both ends of the float range, where a squared energy or beta**2
    # overflows.
    ("verify", "--cases", "40", "--beta", "1e-300"),
    ("verify", "--cases", "40", "--beta", "1e-160"),
    ("verify", "--cases", "40", "--beta", "1e160"),
    ("verify", "--cases", "40", "--beta", "1e250"),
    ("verify", "--cases", "40", "--beta", "1e300"),
])
def test_large_beta_times_gap_prints_no_traceback(args):
    # beta*e beyond exp's overflow point: the Gibbs curve is still finite.
    result = run(*args)
    assert result.exit_code == 0, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if args[0] == "simulate":
        assert " variance=inf " in result.stderr


def test_simulate_underflowed_thermal_start_names_the_cause():
    # exp(-800) underflows, so the default thermal start is no population
    # a staged protocol can start from; the start must be given.
    args = ("simulate", "--beta", "800", "--e0", "1", "--p-out", "0.3")
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: the boundary thermal population "
                           "underflows to 0 at beta*e0 = 800;")
    assert "--p-in" in line
    assert isinstance(result.exception, SystemExit)
    assert run(*args, "--p-in", "0.1", "--stage2-steps", "4").exit_code == 0


def test_simulate_protocol_file_starts_from_an_underflowed_thermal_state(
        tmp_path):
    # Only the built staged protocol needs a start of finite gap; a file at
    # beta*e0 = 800 runs from p_beta = 0.0, the thermal population to double
    # precision.
    f = tmp_path / "proto.json"
    f.write_text(to_json(build_thermalize_once(
        0.0, 1.0, ThermalContext(1.0, 800.0))))
    result = run("simulate", "--protocol", str(f))
    assert result.exit_code == 0, result.output
    assert result.stdout == "work,probability\n-800,0.5\n0,0.5\n"
    assert result.stderr.startswith("final_p_excited=0.5 mean=-400 ")


def test_simulate_past_atom_cap_prints_one_hint(monkeypatch):
    monkeypatch.setattr("coarseops.engine.ATOM_CAP", 100)
    result = run("simulate", "--p-beta", "0.25", "--p-in", "0.1",
                 "--p-out", "0.3", "--stage2-steps", "200")
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: work support of 102 exceeds ATOM_CAP = 100; "
        "rerun with --samples"]


@pytest.mark.parametrize("command", ["classify", "bounds"])
@pytest.mark.parametrize("option, value, shown", [
    ("--e0", "0", "0"),
    ("--e0", "1e-20", "1e-20"),
    ("--p-beta", "0.5", "0"),
], ids=["0", "1e-20", "p_beta=0.5"])
def test_boundary_gap_too_small_names_p_beta(command, option, value, shown):
    # Below beta*e0 of about 2e-16, p_beta rounds to exactly 1/2 although
    # e0 > 0, so the refusal names p_beta and beta*e0, not the gap's sign.
    # p_beta = 1/2 gives e0 = -log(1) / beta = -0.0, which prints as 0.
    result = run(command, option, value, "--p-in", "0.1", "--p-out", "0.3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: classification requires p_beta < 1/2, got p_beta = 0.5 "
        f"at beta*e0 = {shown}"]


def test_verify_passes_at_large_beta():
    # The quadrature endpoints and the refutation's pinned path scale with
    # 1/beta, so beta = 400 tests the same physics as beta = 1.
    result = run("verify", "--cases", "2", "--beta", "400")
    assert result.exit_code == 0, result.output
    assert "(counterexample_excess=0.240031)" in result.stdout


@pytest.mark.parametrize("e0, cases, check", [
    ("1e16", "100", "stage2_concentration"),
    ("1e308", "20", "variance_area_toward_zero"),
])
def test_path_checks_pass_at_large_e0(e0, cases, check):
    # Each path gap is stored as drawn, so no gap carries the rounding of
    # e0: a swap meant for zero gap once landed at -0.94 at e0 = 1e16.
    # engine_equivalence still fails here (see README).
    result = run("verify", "--cases", cases, "--e0", e0)
    assert f"\nPASS {check} (" in result.stdout, result.output


def test_verify_margins_read_the_same_at_large_beta():
    # Every energy is drawn in units of 1/beta and the variance excess is
    # reported in units of 1/beta^2, so beta = 400 reads what beta = 1 does
    # (it read -1.775e-166, the frozen tail, before the draws were scaled).
    def margins(beta):
        result = run("verify", "--cases", "20", "--beta", beta,
                     "--format", "json")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        return dict(field.split("=") for c in doc["checks"]
                    for field in c["margin"].split())

    cold, warm = margins("400"), margins("1")
    excess = float(warm["max_variance_excess"])
    assert excess < -1e-3
    assert float(cold["max_variance_excess"]) == pytest.approx(excess, rel=1e-6)


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("args", [
    ("verify", "--cases", "1"),
    ("simulate", "--p-beta", "0.25", "--p-out", "0.3", "--samples", "10"),
])
def test_seed_outside_philox_range_is_validation_error(args, seed):
    result = run(*args, "--seed", seed)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: seed must lie in [0, ")


def test_verify_highest_seed_runs_every_check():
    # run_checks keys check i at seed + 1000*i, up to 2**128 - 1.
    top = 2**128 - 1 - 9000
    assert run("verify", "--cases", "1", "--seed", str(top)).exit_code == 0
    assert run("verify", "--cases", "1", "--seed", str(top + 1)).exit_code == 2


def _staged_summary(beta, rounds):
    result = run("simulate", "--beta", beta, "--p-beta", "0.25",
                 "--p-in", "0.1", "--p-out", "0.3", "--stage2-steps", rounds)
    assert result.exit_code == 0, result.output
    [line] = result.stderr.splitlines()
    return dict(field.split("=") for field in line.split())


@pytest.mark.parametrize("beta, rounds, atoms", [
    ("1e9", "20", 79), ("1e-6", "3", 11), ("1e-6", "200", 799),
    ("1e-7", "3", 11),
])
def test_staged_law_is_the_same_in_every_unit_of_energy(beta, rounds, atoms):
    # The staged protocol's energies scale with 1/beta, so its law of
    # beta*W is the beta = 1 law.  Absolute tolerances merged every atom at
    # beta = 1e9, split one at 1e-6, and refused the protocol at 1e-6 with
    # 200 rounds and at 1e-7.
    summary = _staged_summary(beta, rounds)
    reference = _staged_summary("1", rounds)
    assert int(summary["atoms"]) == int(reference["atoms"]) == atoms
    assert float(summary["variance"]) * float(beta) ** 2 == pytest.approx(
        float(reference["variance"]), rel=1e-9)


@pytest.mark.parametrize("args", [
    ("figure8", "--points", "100"),
    ("classify", "--p-beta", "0.25", "--p-in", "1", "--p-out", "0.05"),
    ("simulate", "--p-beta", "0.25", "--p-out", "0.3", "--stage2-steps", "2"),
    ("bounds", "--p-beta", "0.25", "--p-in", "0.1", "--p-out", "0.3"),
])
def test_unwritable_out_is_one_line_validation_error(tmp_path, args):
    result = run(*args, "--out", str(tmp_path / "missing" / "out.txt"))
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith("error: cannot write output: ")
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_simulate_monte_carlo_json_carries_the_standard_error():
    result = run("simulate", "--p-beta", "0.25", "--p-in", "0.1",
                 "--p-out", "0.3", "--stage2-steps", "20", "--samples", "100",
                 "--format", "json")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["mean_std_error"] == math.sqrt(doc["variance"] / 100)


def test_figure8_refuses_p_beta_below_the_reference_inputs():
    # The reference inputs go up to 3/16 = 0.1875 and must lie below p_beta.
    result = run("figure8", "--p-beta", "0.15")
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith("error: p_beta=0.15")
    assert line.endswith("leaves no room for the reference inputs")


def test_classify_needs_a_context():
    # classify has no default p_beta, so leaving out both flags is a usage
    # error.
    result = run("classify", "--p-in", "0.1", "--p-out", "0.3")
    assert result.exit_code == 1
    assert "one of --e0 or --p-beta is required" in result.output


def test_classify_refuses_p_beta_above_one_half():
    result = run("classify", "--p-beta", "0.6", "--p-in", "0.1",
                 "--p-out", "0.3")
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: p_beta must lie in (0, 1/2], got 0.6"]


@pytest.mark.parametrize("document, message", [
    ("[]", "protocol document must be a JSON object"),
    ('{"beta": 1.0, "e0": 1.0, "steps": {}}',
     "protocol steps must be a JSON array"),
    ('{"beta": 1.0, "e0": 1.0, "steps": [1]}',
     "step 0: expected an object with a 'type' key"),
    ('{"beta": 1.0, "e0": 1.0, "steps": [{"type": "PT"}]}',
     "step 0: missing 'lambda'"),
])
def test_simulate_malformed_protocol_document_is_one_line(tmp_path, document,
                                                          message):
    f = tmp_path / "protocol.json"
    f.write_text(document)
    result = run("simulate", "--protocol", str(f))
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: invalid protocol file: {message}"]


@pytest.mark.parametrize("beta", ["4e-308", "1e-308", "5e-324",
                                  repr(math.nextafter(verify._MIN_BETA, 0))])
def test_verify_refuses_beta_where_its_widest_value_overflows(beta):
    # Below verify._MIN_BETA = 32/DBL_MAX a random protocol's work can
    # overflow; at 4e-308 a quadrature span already did, and at
    # 1e-308 numpy warned twice before the error.
    result = run("verify", "--beta", beta, "--e0", "0.5")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: verify needs beta >= {verify._MIN_BETA!r}, where 32/beta "
        f"is finite, got beta = {float(beta)!r}"]


def test_verify_passes_at_its_smallest_beta():
    assert 32.0 / verify._MIN_BETA < math.inf
    for e0 in ("0.5", repr(math.log(3) / verify._MIN_BETA)):
        result = run("verify", "--beta", repr(verify._MIN_BETA),
                     "--e0", e0, "--cases", "40")
        assert result.exit_code == 0, result.output
        assert result.stderr == ""


def _write_protocol(tmp_path, ctx, steps):
    f = tmp_path / "protocol.json"
    f.write_text(to_json(Protocol(ctx, steps)))
    return str(f)


@pytest.mark.parametrize("extra", [(), ("--samples", "2000"),
                                   ("--samples", "100000"),
                                   ("--format", "json")])
def test_simulate_work_past_the_float_range_is_one_line(monkeypatch, tmp_path,
                                                       extra):
    # beta = 2**-1020 and shifts of 4/beta: beta*W is tame, but a branch
    # that pays four shifts of -4/beta has a work beyond DBL_MAX, which
    # numpy alone turns into a warning and a -inf atom.  At 100,000
    # samples the sampler's first chunk runs as two slices, one on a
    # helper thread, which must raise under the CLI's numpy error state.
    # Warnings are recorded, not raised: a helper's warning would be
    # printed to a user, but as an error it would lose to the caller's.
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    beta = 2.0**-1020
    rounds = [LT(-4 / beta), PT(1.0), LT(4 / beta), PT(1.0)] * 4
    f = _write_protocol(tmp_path, ThermalContext(beta, 1 / beta), rounds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run("simulate", "--protocol", f, "--p-in", "0.5", *extra)
    assert [str(w.message) for w in caught] == []
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and "overflow" in line


def test_simulate_overflow_in_a_cell_without_mass_is_no_error(tmp_path):
    # The lattice window reaches shift counts of +-2, whose work +-3e308
    # overflows, but no branch ends there: the law is the one atom at 0.
    steps = [LT(1.5e308), LT(-1.5e308), LT(1.5e308), LT(-1.5e308)]
    f = _write_protocol(tmp_path, ThermalContext(1.0, 0.0), steps)
    result = run("simulate", "--protocol", f, "--p-in", "0.5")
    assert result.exit_code == 0, result.output
    assert result.stdout == "work,probability\n0,1\n"
    assert result.stderr.splitlines() == [
        "final_p_excited=0.5 mean=0 variance=0 atoms=1"]
