"""The benchmark's workloads: inputs made from a seed, one timed pass of
the program, and the checks on what the pass returned.

Every check is one operation.  Right after it, the same check runs on a
copy of the output perturbed by the benchmark (an atom moved, mass off by
1e-9, a verdict flipped, a Monte Carlo law pushed out of its band); that
negative control is an operation too, and it fails if the check accepts
the copy.  A pass attempts the same operations every time, so the share of
failed operations does not depend on how many passes a run makes.

The program is driven through its public entry points only: the
`simulate` and `verify` subcommands run in-process as a user runs them, and
the classifier grid uses the library calls.  Module attributes are looked
up at call time so that a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

import reference as ref
from coarseops import characterize, cli, engine, protocol, thermo

BETA = 1.0
P_BETA = 0.25
E0 = ref.gap_of(P_BETA, BETA)
# Moments of exact laws agree with the recursion to about 1e-15.
MOMENT_TOL = 1e-11
MASS_TOL = 1e-12
RANGE_TOL = 1e-9
# Atoms closer than this are one point when CDFs are compared.
ATOM_TOL = 1e-9
# False-alarm rate of the Monte Carlo band and the standard errors allowed
# for its mean and final occupation (a two-sided 6-sigma miss has
# probability 2e-9).
DKW_ALPHA = 1e-6
MC_SIGMAS = 6.0


class Tally:
    """Operations attempted and failed.  A failure of a check marked as a
    known fault is counted but leaves the run correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def record(self, name: str, ok: bool, known_fault: bool = False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(name)

    def check(self, name, holds, output, perturb, known_fault=False):
        """Run a check on the output and its negative control."""
        self.record(name, holds(output), known_fault)
        self.record(f"{name}.control", not holds(perturb(output)))


# One buffer per stream for the whole process: click caches a wrapper per
# stream object and keeps it alive, so a fresh buffer per call would keep
# every call's output in memory.
_STDOUT, _STDERR = io.StringIO(), io.StringIO()


def run_cli(args):
    """Invoke a subcommand in-process; returns seconds, exit code, stdout."""
    for buffer in (_STDOUT, _STDERR):
        buffer.seek(0)
        buffer.truncate()
    with contextlib.redirect_stdout(_STDOUT), contextlib.redirect_stderr(_STDERR):
        start = time.perf_counter()
        try:
            cli.main.main(args=args, prog_name="coarseops", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        seconds = time.perf_counter() - start
    return seconds, code, _STDOUT.getvalue()


# --------------------------------------------------------------------------
# Perturbations for the negative controls.  Each returns a modified copy.


def _copy(law):
    return {**law, "work": list(law["work"]),
            "probability": list(law["probability"])}


def _heaviest(law):
    probs = law["probability"]
    return max(range(len(probs)), key=probs.__getitem__)


def _shift_heaviest(amount):
    def perturb(law):
        law = _copy(law)
        law["work"][_heaviest(law)] += amount
        return law
    return perturb


def _add_mass(law):
    law = _copy(law)
    law["probability"][_heaviest(law)] += 1e-9
    return law


def _shift_out_of(hi):
    def perturb(law):
        law = _copy(law)
        work = law["work"]
        work[max(range(len(work)), key=work.__getitem__)] = hi + 1e-6
        return law
    return perturb


def _split_heaviest(amount):
    """Move `amount` of mass from the heaviest atom to a new atom one unit
    of work above it."""
    def perturb(law):
        law = _copy(law)
        k = _heaviest(law)
        law["probability"][k] -= amount
        law["work"].append(law["work"][k] + 1.0)
        law["probability"].append(amount)
        return law
    return perturb


def _swap_middle(law):
    law = _copy(law)
    work, k = law["work"], len(law["work"]) // 2
    work[k - 1], work[k] = work[k], work[k - 1]
    return law


def _move_final(amount):
    def perturb(law):
        return {**law, "final_p_excited": law["final_p_excited"] + amount}
    return perturb


# --------------------------------------------------------------------------
# Properties of a law, as predicates on the simulate JSON document.


def _mass_is_one(law):
    return abs(math.fsum(law["probability"]) - 1.0) <= MASS_TOL


def _within(lo, hi):
    def holds(law):
        return (min(law["work"]) >= lo - RANGE_TOL
                and max(law["work"]) <= hi + RANGE_TOL)
    return holds


def _atoms_mean(law):
    return math.fsum(w * p for w, p in zip(law["work"], law["probability"]))


def _atoms_variance(law):
    mean = _atoms_mean(law)
    return math.fsum((w - mean) ** 2 * p
                     for w, p in zip(law["work"], law["probability"]))


def descents(values) -> int:
    """Adjacent atoms that do not ascend strictly."""
    return sum(1 for a, b in zip(values, values[1:]) if b <= a)


def _ascending(law):
    return descents(law["work"]) == 0


def check_exact_law(tally, label, law, steps, p0, thermal):
    """The checks every exact law must pass, against the moment recursion
    and the attainable range of its protocol."""
    mean, var, occ = ref.moments(steps, BETA, E0, p0)
    lo, hi = ref.work_range(steps, BETA, E0, p0)

    def mean_matches(d):
        return (abs(_atoms_mean(d) - mean) <= MOMENT_TOL
                and abs(d["mean"] - mean) <= MOMENT_TOL)

    def variance_matches(d):
        return (abs(_atoms_variance(d) - var) <= MOMENT_TOL
                and abs(d["variance"] - var) <= MOMENT_TOL)

    def occupation_matches(d):
        return abs(d["final_p_excited"] - occ) <= MOMENT_TOL

    def jarzynski(d):
        # E[exp(beta W)] = 1 for a thermal start and a cyclic protocol.
        s = math.fsum(p * math.exp(BETA * w)
                      for w, p in zip(d["work"], d["probability"]))
        return abs(s - 1.0) <= MOMENT_TOL

    tally.check(f"{label}.mass", _mass_is_one, law, _add_mass)
    tally.check(f"{label}.range", _within(lo, hi), law, _shift_out_of(hi))
    tally.check(f"{label}.mean", mean_matches, law, _shift_heaviest(1e-6))
    tally.check(f"{label}.variance", variance_matches, law,
                _shift_heaviest(1e-3))
    tally.check(f"{label}.final_occupation", occupation_matches, law,
                _move_final(1e-9))
    if thermal:
        tally.check(f"{label}.jarzynski", jarzynski, law, _shift_heaviest(1e-6))
    # Fails on long staged protocols until the merge-center fault in
    # engine._compact/_merge_close is mended; counted on its own so that it
    # hides no other check on the same law.
    tally.check(f"{label}.ascending", _ascending, law, _swap_middle,
                known_fault=True)


def _law_doc(dist, final_p):
    return {"work": list(dist.values), "probability": list(dist.probabilities),
            "final_p_excited": final_p, "mean": dist.mean,
            "variance": dist.variance}


# --------------------------------------------------------------------------


class StagedExact:
    """Exact work laws of long staged protocols through `simulate`: one
    thermal start and one start below thermal.  The inputs do not depend on
    the seed, because the ascending-order check fails on them by a known
    fault, and a kept failure must not depend on the seed."""

    name = "staged-exact"
    # (initial population or None for thermal, target, stage-II rounds)
    CASES = ((None, 0.3, 3000), (0.1, 0.3, 2000))

    def __init__(self, seed: int):
        self.cases = []
        for p_in, p_out, rounds in self.CASES:
            args = ["simulate", "--p-beta", str(P_BETA), "--p-out", str(p_out),
                    "--stage2-steps", str(rounds), "--format", "json"]
            if p_in is not None:
                args += ["--p-in", str(p_in)]
            p0 = ref.gibbs(E0, BETA) if p_in is None else p_in
            steps = ref.staged_steps(p0, p_out, BETA, E0, rounds)
            self.cases.append((args, steps, p0, p_in is None))

    def run(self):
        seconds, outputs = 0.0, []
        for args, *_ in self.cases:
            elapsed, code, out = run_cli(args)
            seconds += elapsed
            outputs.append((code, out))
        return seconds, outputs

    def check(self, outputs, tally):
        for (code, out), (_, steps, p0, thermal) in zip(outputs, self.cases):
            label = f"staged.{'thermal' if thermal else 'below'}"
            tally.record(f"{label}.exit", code == 0)
            if code == 0:
                check_exact_law(tally, label, json.loads(out), steps, p0, thermal)


class MonteCarloSample:
    """`simulate --samples` on the README's 200-round staged protocol.  The
    sampler seed is the benchmark seed; the law is compared with the exact
    law of the same protocol, solved once outside the timed region."""

    name = "mc-sample"
    P_IN, P_OUT, ROUNDS = 0.1, 0.3, 200
    # Two full chunks of the sampler.
    SAMPLES = 2 * 65536

    def __init__(self, seed: int):
        self.per_pass = self.SAMPLES
        self.args = ["simulate", "--p-beta", str(P_BETA),
                     "--p-in", str(self.P_IN), "--p-out", str(self.P_OUT),
                     "--stage2-steps", str(self.ROUNDS),
                     "--samples", str(self.SAMPLES),
                     "--seed", str(seed % 2**63), "--format", "json"]
        self.steps = ref.staged_steps(self.P_IN, self.P_OUT, BETA, E0,
                                      self.ROUNDS)

    def prepare(self):
        """Exact law of the same protocol, through the library."""
        ctx = thermo.ThermalContext(BETA, E0)
        proto = protocol.build_average_work_protocol(
            self.P_IN, self.P_OUT, ctx, self.ROUNDS)
        start = thermo.QubitState(self.P_IN)
        dist = engine.exact_work_distribution(proto, start)
        self.exact = _law_doc(dist, engine.final_state(proto, start).p_excited)

    def run(self):
        seconds, code, out = run_cli(self.args)
        return seconds, (code, out)

    def check(self, outputs, tally):
        code, out = outputs
        check_exact_law(tally, "mc.exact", self.exact, self.steps, self.P_IN,
                        thermal=False)
        tally.record("mc.exit", code == 0)
        if code != 0:
            return
        law = json.loads(out)
        n = self.SAMPLES
        mean, var, occ = ref.moments(self.steps, BETA, E0, self.P_IN)
        lo, hi = ref.work_range(self.steps, BETA, E0, self.P_IN)
        eps = ref.dkw_epsilon(n, DKW_ALPHA)
        mean_se = math.sqrt(var / n)
        occ_se = math.sqrt(occ * (1.0 - occ) / n)
        exact = self.exact

        def in_band(d):
            return ref.cdf_distance(d["work"], d["probability"], exact["work"],
                                    exact["probability"], ATOM_TOL) <= eps

        def out_of_band(d):
            # Move 3 eps of mass from the heaviest atom to an end atom.
            d = _copy(d)
            work, probs = d["work"], d["probability"]
            heavy = _heaviest(d)
            low = min(range(len(work)), key=work.__getitem__)
            end = low if low != heavy else max(range(len(work)),
                                               key=work.__getitem__)
            moved = min(3.0 * eps, probs[heavy])
            probs[heavy] -= moved
            probs[end] += moved
            return d

        def mean_close(d):
            return abs(_atoms_mean(d) - mean) <= MC_SIGMAS * mean_se

        def moved_law(d):
            d = _copy(d)
            d["work"] = [w + 10.0 * MC_SIGMAS * mean_se for w in d["work"]]
            return d

        def occupation_close(d):
            return abs(d["final_p_excited"] - occ) <= MC_SIGMAS * occ_se

        tally.check("mc.mass", _mass_is_one, law, _add_mass)
        tally.check("mc.range", _within(lo, hi), law, _shift_out_of(hi))
        tally.check("mc.dkw_band", in_band, law, out_of_band)
        tally.check("mc.mean", mean_close, law, moved_law)
        tally.check("mc.final_occupation", occupation_close, law,
                    _move_final(10.0 * MC_SIGMAS * occ_se))


class ClassifyGrid:
    """Every cell of a (p_in, p_out) grid: classify it, and for an
    achievable cell build the witness protocol, evolve its population and
    solve it exactly.  The seed shifts the whole grid inside its cells, so
    each seed meets other boundary cases at the same cost."""

    name = "classify-grid"
    SIDE = 192

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed % 2**63)
        offset_in, offset_out = 0.25 + 0.5 * rng.random(2)
        n = self.SIDE
        p_ins = [(k + offset_in) / n for k in range(n - 1)] + [1.0]
        p_outs = [(k + offset_out) / n for k in range(n)]
        self.cells = [(a, b) for a in p_ins for b in p_outs]
        self.per_pass = len(self.cells)

    def run(self):
        ctx = thermo.ThermalContext(BETA, E0)
        state = thermo.QubitState
        results = []
        start = time.perf_counter()
        for p_in, p_out in self.cells:
            verdict = characterize.classify_transition(p_in, p_out, ctx)
            if verdict.verdict == "forbidden":
                results.append((verdict, None, None, None))
                continue
            proto = characterize.synthesize_protocol(verdict, p_in, p_out, ctx)
            final = engine.final_state(proto, state(p_in)).p_excited
            law = engine.exact_work_distribution(proto, state(p_in))
            results.append((verdict, proto, final, law))
        return time.perf_counter() - start, results

    def check(self, outputs, tally):
        p_beta = ref.gibbs(E0, BETA)
        controls = {}
        for (p_in, p_out), (verdict, proto, final, law) in zip(self.cells,
                                                               outputs):
            kind = verdict.verdict
            rule = ref.verdict_rule(p_in, p_out, p_beta)
            tally.record("classify.verdict", kind == rule)
            if kind == "forbidden":
                bound = verdict.bound
                tally.record("classify.bound", _bound_positive(
                    bound.work_threshold, bound.probability_lower_bound))
                controls.setdefault(kind, (p_in, p_out, bound))
                continue
            steps = steps_of(proto)
            reached = ref.final_population(steps, BETA, E0, p_in)
            witness = {"reached": reached, "final": final, "p_out": p_out}
            tally.record("classify.witness_population", _reaches(witness))
            doc = {"work": list(law.values),
                   "probability": list(law.probabilities)}
            tally.record("classify.witness_work", _no_loss(doc))
            law_checks = _witness_law_checks(steps, p_in)
            for name, holds, _ in law_checks:
                tally.record(f"classify.witness_{name}", holds(doc))
            controls.setdefault(kind, (p_in, p_out, witness, doc, law_checks))
        # Negative controls on the first cell of each verdict.
        for kind in ("mixing", "pure_excited"):
            p_in, p_out, witness, doc, law_checks = controls[kind]
            flipped = "forbidden" if kind == "mixing" else "mixing"
            tally.record(f"classify.{kind}.verdict.control",
                         flipped != ref.verdict_rule(p_in, p_out, p_beta))
            tally.record(f"classify.{kind}.witness_population.control",
                         not _reaches({**witness,
                                       "reached": witness["reached"] + 1e-9}))
            shifted = _copy(doc)
            shifted["work"][0] = -1e-9
            tally.record(f"classify.{kind}.witness_work.control",
                         not _no_loss(shifted))
            for name, holds, perturb in law_checks:
                tally.record(f"classify.{kind}.witness_{name}.control",
                             not holds(perturb(doc)))
        p_in, p_out, bound = controls["forbidden"]
        tally.record("classify.forbidden.verdict.control",
                     "mixing" != ref.verdict_rule(p_in, p_out, p_beta))
        tally.record("classify.forbidden.bound.control",
                     not _bound_positive(0.0, bound.probability_lower_bound)
                     and not _bound_positive(bound.work_threshold, 0.0))


def steps_of(proto):
    """A program protocol as (kind, parameter) pairs."""
    kinds = {"LevelTransformation": ("LT", "delta_e"),
             "PartialThermalization": ("PT", "lam"),
             "BistochasticTransformation": ("BT", "gamma")}
    steps = []
    for step in proto.steps:
        kind, attr = kinds[type(step).__name__]
        steps.append((kind, getattr(step, attr)))
    return steps


def _witness_law_checks(steps, p_in):
    """(name, check, perturbation) for a witness law against the moment
    recursion and the attainable range of its protocol."""
    mean, var, _ = ref.moments(steps, BETA, E0, p_in)
    lo, hi = ref.work_range(steps, BETA, E0, p_in)
    return (
        ("mean", lambda d: abs(_atoms_mean(d) - mean) <= MOMENT_TOL,
         _shift_heaviest(1e-6)),
        # A witness law may be one atom, which no shift of an atom spreads.
        ("variance", lambda d: abs(_atoms_variance(d) - var) <= MOMENT_TOL,
         _split_heaviest(1e-6)),
        ("range", _within(lo, hi), _shift_out_of(hi)),
    )


def _reaches(witness):
    return (abs(witness["reached"] - witness["p_out"]) <= MASS_TOL
            and abs(witness["final"] - witness["p_out"]) <= MASS_TOL)


def _no_loss(doc):
    return min(doc["work"]) >= 0.0 and _mass_is_one(doc)


def _bound_positive(threshold, probability):
    return threshold > 0.0 and probability > 0.0


class VerifySuite:
    """`verify` with a fixed case count; the benchmark seed is its seed."""

    name = "verify-suite"
    CASES = 500

    def __init__(self, seed: int):
        self.args = ["verify", "--cases", str(self.CASES),
                     "--seed", str(seed % 2**31)]

    def run(self):
        seconds, code, out = run_cli(self.args)
        return seconds, (code, out)

    def check(self, outputs, tally):
        code, out = outputs
        lines = out.splitlines()

        def all_pass(text_lines):
            return bool(text_lines) and all(
                line.startswith("PASS ") for line in text_lines)

        def flip_one(text_lines):
            return ["FAIL" + text_lines[0][4:]] + text_lines[1:]

        tally.check("verify.exit", lambda c: c == 0, code, lambda c: 3)
        tally.check("verify.all_pass", all_pass, lines, flip_one)


WORKLOADS = {w.name: w for w in
             (StagedExact, MonteCarloSample, ClassifyGrid, VerifySuite)}
