"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from click.testing import CliRunner

from coarseops import bounds
from coarseops.cli import main
from coarseops.paths import epsilon_iii
from coarseops.protocol import (
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


@pytest.mark.parametrize("args", [
    ("simulate", "--beta", "nan", "--p-out", "0.3"),
    ("simulate", "--e0", "inf", "--p-out", "0.3"),
    ("figure8", "--beta", "nan"),
    ("verify", "--beta", "nan"),
    ("classify", "--e0", "nan", "--p-in", "0.1", "--p-out", "0.3"),
    # e0 = ln(3) / beta overflows to inf.
    ("bounds", "--p-beta", "0.25", "--beta", "1e-320",
     "--p-in", "0.1", "--p-out", "0.3"),
])
def test_non_finite_context_is_validation_error(args):
    result = run(*args)
    assert result.exit_code == 2
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


def test_bounds_achievable_is_error():
    result = run("bounds", "--p-beta", "0.25", "--p-in", "0.3",
                 "--p-out", "0.26")
    assert result.exit_code == 2


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
    result = run("verify", "--cases", "10", "--format", "json")
    assert result.exit_code == 3
    doc = json.loads(result.stdout)
    failed = [c["check"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["bounds_vs_simulation"]


def test_verify_deterministic():
    a = run("verify", "--cases", "10", "--seed", "3")
    b = run("verify", "--cases", "10", "--seed", "3")
    assert a.stdout == b.stdout


def test_verify_rejects_bad_cases():
    assert run("verify", "--cases", "0").exit_code == 1


def test_unknown_option_is_usage_error():
    assert run("simulate", "--frobnicate").exit_code == 1
