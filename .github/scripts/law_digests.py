"""Print one sha256 per output of coarseops, so that two source trees can be
compared bit for bit.

Usage, from the root of each tree:

    PYTHONPATH=src python .github/scripts/law_digests.py > digests.txt

An empty diff of the two files means every output listed below is
byte-identical; a changed line names the output that moved.  Each line is
`<name> <sha256>`.  CLI outputs run in-process, as a user runs them, and are
hashed with their exit code, stdout and stderr; library laws are hashed by
repr, which tells -0.0 from 0.0.  It gates nothing, and takes about 20 s
on one core.  The Monte Carlo and `verify` digests must not depend on the
number of CPUs the process may use, so a run under `taskset -c 0` prints
the same lines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import tempfile

import numpy as np

import coarseops
from coarseops import bounds, characterize, cli, engine, paths
from coarseops.protocol import (
    BistochasticTransformation as BT,
    LevelTransformation as LT,
    PartialThermalization as PT,
    GAP_TOL,
    Protocol,
    build_average_work_protocol,
    random_protocol,
    to_json,
    validate,
)
from coarseops.thermo import QubitState, ThermalContext

CTX = ThermalContext(beta=1.0, e0=math.log(3))
# One buffer per stream for the whole run: click keeps a wrapper per
# stream object alive, so a fresh buffer per call would keep every output.
_STDOUT, _STDERR = io.StringIO(), io.StringIO()


def run_cli(*args) -> str:
    """Exit code, stdout and stderr of one subcommand, run in-process."""
    for buffer in (_STDOUT, _STDERR):
        buffer.seek(0)
        buffer.truncate()
    with contextlib.redirect_stdout(_STDOUT), \
            contextlib.redirect_stderr(_STDERR):
        try:
            cli.main.main(args=[str(a) for a in args], prog_name="coarseops")
            code = 0
        except SystemExit as exc:
            code = exc.code
    return f"{code}\n{_STDOUT.getvalue()}\n{_STDERR.getvalue()}"


def digest(name: str, outputs) -> None:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode() if isinstance(out, str) else repr(out).encode())
        h.update(b"\0")
    print(name, h.hexdigest(), flush=True)


def start(seed: int) -> QubitState:
    return QubitState((seed % 11) / 10)


def dp_occupation(proto: Protocol, initial: QubitState) -> float:
    """The mass of the exact DP's occupied column at the end of the
    protocol, which final_state gives by the population recursion."""
    return float(np.sum(engine._run_dp(proto.steps, proto.energy_trajectory(),
                                       proto.ctx, initial.p_excited)[2]))


def path_final_state(path: paths.Path, initial: QubitState) -> QubitState:
    """The population recursion over a resolved path's steps and stored
    gaps."""
    return QubitState(engine._final_population(
        *paths._path_steps(path), path.ctx, initial.p_excited))


def full_thermalizations(seed: int, max_steps: int) -> Protocol:
    """random_protocol with every lambda set to 1, which it never draws."""
    steps = random_protocol(seed, max_steps, 2.0, CTX).steps
    return Protocol(CTX, [PT(1.0) if isinstance(s, PT) else s for s in steps])


def shift_free(seed: int, ctx: ThermalContext) -> Protocol:
    """One to six thermalizations at the boundary gap, some of them full: a
    protocol without a level shift, so the DP builds no lattice."""
    lams = np.random.default_rng(seed).choice([0.25, 0.5, 1.0], 1 + seed % 6)
    return Protocol(ctx, [PT(float(lam)) for lam in lams])


def run_edges() -> list:
    """Step lists whose runs, each a PT(1) and the (nonzero shift, PT(1))
    pairs after it, which the DP takes on one column, start, stop or
    stride at an edge: one pair; cut by a lone shift, LT(0), a swap at zero
    gap or PT(0.5); ending at the last step; before the first shift, with
    mixed signs and a stride wider than the window; and where the Gibbs
    population is subnormal."""
    ln3 = math.log(3)
    prefix = [LT(0.5), PT(0.3), LT(-0.25), PT(0.6)]
    suffix = [LT(-0.5), PT(0.4), LT(0.25)]
    middles = [
        [PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(0.7)],
        [PT(1.0), LT(0.25), PT(1.0), LT(0.0), LT(-0.25), PT(1.0), LT(0.0),
         PT(1.0), PT(0.7)],
        [LT(-0.25 - ln3), PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(1.0),
         BT(0.3), LT(0.25 + ln3)],
        [PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(1.0), PT(0.5)],
    ]
    return [prefix + middle + suffix for middle in middles] + [
        prefix + [PT(1.0), LT(0.25), PT(1.0), LT(-0.5), PT(1.0)],
        [PT(1.0), LT(0.25), PT(1.0), LT(0.5), PT(1.0), LT(-0.5), PT(1.0),
         LT(-0.25)],
        [LT(720.0 - ln3), PT(1.0), LT(0.25), PT(1.0), LT(-0.25), PT(1.0),
         LT(ln3 - 720.0)],
    ]


def one_atom_laws() -> list:
    """from_atoms on one float each, at the certain law {+0.0: 1.0} (the
    one shared law) and beside it: -0.0, the masses 1 - 2**-53, 1 + 2**-52,
    5e-324, 0 and -0.0, numpy floats; then the exact laws of shift-free
    [PT(lam)] at the boundary gap and [BT(gamma), PT(lam)] at zero gap over
    a (p_in, lam) grid, most of them the certain law."""
    f64 = np.float64
    below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    inputs = [(0.0, 1.0), (f64(0.0), f64(1.0)), (-0.0, 1.0),
              (f64(-0.0), f64(1.0)), (0.0, below), (0.0, above),
              (-0.0, above), (0.0, 5e-324), (-0.0, 5e-324), (0.0, 0.0),
              (0.0, -0.0), (-0.0, 0.0), (2.5, 1.0)]
    laws = [engine.WorkDistribution.from_atoms(v, p, CTX) for v, p in inputs]
    zero_gap = ThermalContext(beta=1.0, e0=0.0)
    grid = [(i / 40, j / 40) for i in range(41) for j in range(41)]
    laws += [engine.exact_work_distribution(Protocol(CTX, [PT(lam)]),
                                            QubitState(p_in))
             for p_in, lam in grid]
    laws += [engine.exact_work_distribution(
        Protocol(zero_gap, [BT(gamma), PT(lam)]), QubitState(p_in))
        for p_in, lam in grid for gamma in (0.3, 1.0)]
    return laws


def renewal_protocols() -> list:
    """Protocols for final_state's start at its last full thermalization:
    staged ones at three values of beta*e0, random ones with lambda as
    drawn (never 1) and with every lambda set to 1, PT(1) as the first and
    the last step and at zero gap beside swaps, and thermalizations at
    lambda = 1 - 2**-53, which are not full."""
    protos = []
    for e0 in (0.05, math.log(3), 3.0):
        ctx = ThermalContext(beta=1.0, e0=e0)
        protos += [build_average_work_protocol(p_in, p_out, ctx, n)
                   for n in (1, 2, 3, 400)
                   for p_in, p_out in ((ctx.p_beta, 0.3), (0.1, 0.45),
                                       (0.9, 0.05))]
    for seed in range(300):
        protos += [random_protocol(seed, 12, 2.0, CTX),
                   full_thermalizations(seed, 12)]
    ln3, nearly_one = math.log(3), 1.0 - 2.0**-53
    protos += [Protocol(CTX, steps) for steps in (
        [PT(1.0), LT(0.5), PT(0.3), LT(-0.5)],
        [LT(0.5), PT(0.3), LT(-0.5), PT(1.0)],
        [LT(-ln3), BT(0.3), PT(1.0), BT(0.6), LT(ln3)],
        [LT(-ln3), PT(1.0), BT(1.0), LT(ln3), PT(0.7)],
        [PT(nearly_one)],
        [PT(1.0), LT(0.5), PT(nearly_one), LT(-0.5)],
    )]
    return protos


def gap_corpus() -> list:
    """renewal_protocols(), random_protocol(seed, 40) for seeds 0-299 and
    the two staged protocols of perfbench's staged-exact workload."""
    return (renewal_protocols()
            + [random_protocol(seed, 40, 2.0, CTX) for seed in range(300)]
            + [build_average_work_protocol(p_in, 0.3, CTX, rounds)
               for p_in, rounds in ((CTX.p_beta, 3000), (0.1, 2000))])


def interleaved(protos) -> list:
    """Each protocol's gaps, asked in the order A, B, A, C, B, D, C, ...,
    and then each asked twice in a row."""
    order = protos[:1] + [p for pair in zip(protos[1:], protos)
                          for p in pair]
    order += [p for p in protos for _ in range(2)]
    return [p.energy_trajectory() for p in order]


def invalid_protocols() -> list:
    """Protocols at validate's edges: swaps off zero gap (gamma 0.5 and
    0), open cycles, and a swap gap and a final gap off by GAP_TOL / beta
    and one ulp either side of it, both signs, at beta in {1e-3, 1, 1e3}
    and e0 in {ln 3 / beta, 0.0, -0.0}."""
    protos = []
    for beta in (1e-3, 1.0, 1e3):
        tol = GAP_TOL / beta
        misses = [math.nextafter(tol, 0.0), tol, math.nextafter(tol, 1.0)]
        misses += [-m for m in misses]
        unit = 1.0 / beta
        for e0 in (math.log(3) / beta, 0.0, -0.0):
            ctx = ThermalContext(beta=beta, e0=e0)
            protos += [Protocol(ctx, steps) for steps in (
                [BT(0.5)], [BT(0.0)], [LT(unit)], [LT(unit), LT(-unit)],
                [LT(unit), BT(0.3), LT(-unit)], [LT(-e0), BT(1.0), LT(e0)])]
            for m in misses:
                protos += [Protocol(ctx, steps) for steps in (
                    [LT(m - e0), BT(0.5), LT(e0 - m)], [LT(m)],
                    [LT(unit), LT(m - unit)])]
    return protos


def simulate_files(protos) -> list:
    """`simulate --protocol FILE --format json` of each protocol, exact,
    from the start population of its index, each written to a file of a
    temporary directory."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, proto in enumerate(protos):
            path = os.path.join(tmp, "protocol.json")
            with open(path, "w") as fh:
                fh.write(to_json(proto))
            outputs.append(run_cli("simulate", "--protocol", path, "--p-in",
                                   start(k).p_excited, "--format", "json"))
    return outputs


def corpus(ctx: ThermalContext) -> list:
    """The 500 cyclic paths that the path digests share."""
    rng = np.random.Generator(np.random.Philox(key=0))
    return [paths.random_cyclic_path(rng, ctx, with_swaps=i % 2 == 1)
            for i in range(500)]


def contexts() -> list:
    """(repr, hash, p_beta, p_beta at half the gap) of each context of a
    beta x e0 grid, across the edges of p_beta: e0 at +-0, subnormal and
    tiny, beta*e0 about 745 where p_beta underflows, and overflowing
    products."""
    out = []
    for beta in (1e-300, 1e-3, 1.0, 1e3, 1e300):
        for e0 in (0.0, -0.0, 5e-324, 1e-300, math.log(3), 700.0, 745.2,
                   800.0, 1e300):
            ctx = ThermalContext(beta=beta, e0=e0)
            out.append((repr(ctx), hash(ctx), ctx.p_beta,
                        dataclasses.replace(ctx, e0=e0 / 2).p_beta))
    return out


def perfbench_cells(seed: int) -> list:
    """The 192 x 192 grid that perfbench's classify-grid workload runs at
    `seed`: 191 p_in points and 1.0 against 192 p_out points, each shifted
    inside its cell by the seed's offsets."""
    offset_in, offset_out = 0.25 + 0.5 * np.random.default_rng(seed).random(2)
    n = 192
    p_ins = [(k + offset_in) / n for k in range(n - 1)] + [1.0]
    p_outs = [(k + offset_out) / n for k in range(n)]
    return [(p_in, p_out) for p_in in p_ins for p_out in p_outs]


def edge_cells(ctx: ThermalContext) -> list:
    """Every pair of 0, -0.0, the smallest subnormal, p_beta and 1 and 2
    ulp either side, 1/2 and 1 ulp either side, 1 - 2**-53, 1 and i/48."""
    p = ctx.p_beta
    below, above = math.nextafter(p, 0.0), math.nextafter(p, 1.0)
    pops = [0.0, -0.0, 5e-324, math.nextafter(below, 0.0), below, p, above,
            math.nextafter(above, 1.0), math.nextafter(0.5, 0.0), 0.5,
            math.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0,
            *(i / 48 for i in range(1, 48))]
    return [(p_in, p_out) for p_in in pops for p_out in pops]


def classify_cells(cells, ctx: ThermalContext):
    """(verdict, witness, final population, exact law) of each cell, or
    the message of the ValueError it raises."""
    for p_in, p_out in cells:
        try:
            verdict = characterize.classify_transition(p_in, p_out, ctx)
        except ValueError as exc:
            yield f"ValueError: {exc}"
            continue
        if verdict.verdict == "forbidden":
            yield verdict, None, None, None
            continue
        proto = characterize.synthesize_protocol(verdict, p_in, p_out, ctx)
        yield (verdict, proto,
               engine.final_state(proto, QubitState(p_in)).p_excited,
               engine.exact_work_distribution(proto, QubitState(p_in)))


def main() -> None:
    # Where each public name of the package is defined.
    digest("package.exports", (
        (obj.__module__, obj.__qualname__)
        for obj in (getattr(coarseops, name) for name in coarseops.__all__)))

    digest("thermo.contexts", contexts())

    for beta in ("1", "1e300"):
        digest(f"figure8.beta={beta}",
               [run_cli("figure8", "--beta", beta, "--points", 2500)])

    grid = [(i / 100, j / 100) for i in range(101) for j in range(101)]
    common = ("--p-beta", 0.25)
    digest("classify.grid", (run_cli("classify", *common, "--p-in", a,
                                     "--p-out", b) for a, b in grid))
    for fmt in ("json", "csv"):
        digest(f"bounds.grid.{fmt}", (run_cli(
            "bounds", *common, "--p-in", a, "--p-out", b, "--format", fmt)
            for a, b in grid))
    digest("classify-bounds.p_in=-0.0", [
        run_cli(*command, *common, "--p-in", "-0.0", "--p-out", 0.3)
        for command in (("classify",), ("bounds",),
                        ("bounds", "--format", "csv"))])

    # Hashed by repr, so a law holding numpy floats would change the line.
    for seed in (0, 5):
        digest(f"classify_grid.witnesses.seed={seed}",
               classify_cells(perfbench_cells(seed), CTX))
    # Cells at the edges of [0, 1] and next to p_beta and 1/2, at four
    # values of beta*e0.
    digest("classify.witnesses.edges", (
        out for e0 in (0.05, 0.5, math.log(3), 3.0)
        for ctx in [ThermalContext(beta=1.0, e0=e0)]
        for out in classify_cells(edge_cells(ctx), ctx)))
    # The same cells where p_beta underflows to 0.
    digest("classify.witnesses.edges.p_beta=0", (
        out for ctx in (ThermalContext(beta=1.0, e0=800.0),
                        ThermalContext(beta=1e300, e0=1.0))
        for out in classify_cells(edge_cells(ctx), ctx)))

    for seed in (0, 1, 7):
        for fmt in ("text", "json"):
            digest(f"verify.cases=500.seed={seed}.{fmt}", [run_cli(
                "verify", "--cases", 500, "--seed", seed, "--format", fmt)])

    staged = ("simulate", "--p-beta", 0.25, "--p-in", 0.1, "--p-out", 0.3,
              "--stage2-steps", 200)
    digest("simulate.exact", [run_cli(*staged)])
    digest("simulate.samples", [run_cli(*staged, "--samples", 100_000,
                                        "--seed", 7)])
    # The two solves of perfbench's staged-exact workload, and the sampled
    # law, as JSON.
    digest("simulate.json.staged", [
        run_cli("simulate", "--p-beta", 0.25, "--p-out", 0.3,
                "--stage2-steps", 3000, "--format", "json"),
        run_cli("simulate", "--p-beta", 0.25, "--p-in", 0.1, "--p-out", 0.3,
                "--stage2-steps", 2000, "--format", "json")])
    digest("simulate.json.samples", [run_cli(
        *staged, "--samples", 100_000, "--seed", 7, "--format", "json")])
    # The first ends in a chunk that is not a whole number of Philox
    # blocks; the second has three full chunks.
    for samples in (69_537, 200_003):
        digest(f"simulate.samples={samples}", [run_cli(
            *staged, "--samples", samples, "--seed", 7)])

    for steps in (8, 12, 40):
        protos = [random_protocol(seed, steps, 2.0, CTX) for seed in range(300)]
        digest(f"dp.random_protocol.{steps}", (
            engine.exact_work_distribution(p, start(seed))
            for seed, p in enumerate(protos)))
        digest(f"dp_final_occupation.random_protocol.{steps}", (
            dp_occupation(p, start(seed))
            for seed, p in enumerate(protos)))
    digest("dp.random_protocol.40.lam=1", (
        engine.exact_work_distribution(full_thermalizations(seed, 40),
                                       start(seed))
        for seed in range(300)))
    digest("dp_final_occupation.random_protocol.40.lam=1", (
        dp_occupation(full_thermalizations(seed, 40), start(seed))
        for seed in range(300)))
    # random_protocol closes with a shift; this corpus ends in PT(1).
    digest("dp.lam=1.ends_in_PT", (
        engine.exact_work_distribution(
            Protocol(CTX, full_thermalizations(seed, 40).steps
                     + (PT(1.0),)),
            start(seed))
        for seed in range(300)))
    # Shift-free laws and occupations, at a Gibbs weight that is denormal
    # where beta*e0 = 720.
    for e0 in (0.05, math.log(3), 3.0, 720.0):
        ctx = ThermalContext(beta=1.0, e0=e0)
        digest(f"dp.off_lattice.lam=1.e0={e0:g}", (
            (engine.exact_work_distribution(shift_free(seed, ctx),
                                            start(seed)),
             dp_occupation(shift_free(seed, ctx), start(seed)))
            for seed in range(300)))
    digest("engine.one_atom_laws", one_atom_laws())
    digest("final_state.renewal", (
        engine.final_state(proto, QubitState(p)).p_excited
        for proto in renewal_protocols() for p in (0.0, -0.0, 0.3, 1.0)))
    # The gaps and the reports read from energy_trajectory(), whose last
    # protocol's gaps are kept: each protocol asked between others and
    # twice in a row.
    gap_protos = gap_corpus()
    digest("energy_trajectory.corpus", interleaved(gap_protos))
    digest("validate.corpus", (validate(p) for p in gap_protos))
    digest("validate.invalid", (validate(p) for p in invalid_protocols()))
    # The lattice axes, in the order of each |delta_e|'s last shift.
    digest("dp.lattice_axes.random_protocol.40", (
        engine._shift_lattice(random_protocol(seed, 40, 2.0, CTX).steps)
        for seed in range(300)))
    digest("dp.lattice_axes.staged", (
        engine._shift_lattice(
            build_average_work_protocol(p_in, p_out, ctx, rounds).steps)
        for e0 in (0.05, math.log(3), 3.0)
        for ctx in [ThermalContext(beta=1.0, e0=e0)]
        for p_in, p_out, rounds in ((ctx.p_beta, 0.3, 3000),
                                    (0.1, 0.45, 500), (0.9, 0.05, 300),
                                    (0.3, 0.2, 1))))
    digest("simulate.json.protocol.random_protocol.40.lam=1", simulate_files(
        [full_thermalizations(seed, 40) for seed in range(300)]))
    digest("oracle.random_protocol.8", (
        engine.brute_force_work_distribution(
            random_protocol(seed, 8, 2.0, CTX), start(seed))
        for seed in range(300)))
    digest("oracle.random_protocol.8.lam=1", (
        engine.brute_force_work_distribution(full_thermalizations(seed, 8),
                                             start(seed))
        for seed in range(300)))
    digest("monte_carlo.random_protocol.12", (
        engine.monte_carlo(random_protocol(seed, 12, 2.0, CTX), start(seed),
                           10_000, seed)
        for seed in range(40)))
    # A full chunk each, which runs as one slice per CPU.
    digest("monte_carlo.random_protocol.12.samples=70000", (
        engine.monte_carlo(random_protocol(seed, 12, 2.0, CTX), start(seed),
                           70_000, seed)
        for seed in range(20)))
    digest("staged", (
        engine.exact_work_distribution(
            build_average_work_protocol(p_in, 0.3, CTX, rounds),
            QubitState(p_in))
        for p_in, rounds in ((CTX.p_beta, 3000), (0.1, 2000))))
    digest("dp.runs.edges", (
        (engine.exact_work_distribution(Protocol(CTX, steps), QubitState(p)),
         dp_occupation(Protocol(CTX, steps), QubitState(p)))
        for steps in run_edges() for p in (0.0, 0.3, 1.0)))
    # Staged runs away from p_beta = 1/4, one from the thermal start.
    for e0 in (0.05, 3.0):
        ctx = ThermalContext(beta=1.0, e0=e0)
        digest(f"dp.staged.beta*e0={e0:g}", (
            (engine.exact_work_distribution(proto, QubitState(p_in)),
             dp_occupation(proto, QubitState(p_in)))
            for p_in, p_out, rounds in ((ctx.p_beta, 0.3, 1000),
                                        (0.1, 0.45, 500), (0.9, 0.05, 300),
                                        (0.3, 0.2, 1))
            for proto in [build_average_work_protocol(p_in, p_out, ctx,
                                                      rounds)]))

    protos = [random_protocol(seed, 8, 2.0, CTX) for seed in range(300)]
    # As a list, because each protocol's paths are read twice.
    digest("paths.enumerate_shrink.random_protocol.8", (
        repr((branches, [paths.shrink(p) for p in branches]))
        for branches in map(list, map(paths.enumerate_paths, protos))))

    # Both stage-III margins and the simple-case lemma, with q within 1e-9
    # of p_beta and at the edges of (0, 1).  The margin lines keep the names
    # they had when the margins lived in `paths`.
    for beta, e0 in ((1.0, 0.05), (1.0, math.log(3)), (0.5, 600.0)):
        ctx = ThermalContext(beta=beta, e0=e0)
        qs = ([i / 1000 for i in range(1, 1000)] + [1e-300, 1.0 - 2.0**-53]
              + (ctx.p_beta * (1 + np.linspace(-1e-9, 1e-9, 41))).tolist())
        digest(f"paths.stage3_margins.beta*e0={beta * e0:g}", (
            (q, bounds.epsilon_iii(q, ctx), bounds.epsilon_iii_tilde(q, ctx))
            for q in qs))
        digest(f"bounds.lemma_simplecase.beta*e0={beta * e0:g}", (
            (i, j, bounds.lemma_simplecase_bound(i / 100, j / 100, ctx))
            for i in range(1, 100) for j in range(1, 50)))
    # The binomial tail at n = 0..400, 1030 and 5000 and at p on a numpy
    # grid of step 0.01 and the edges of [0, 1], with n ascending and then
    # descending, so the row of log coefficients kept for one n cannot
    # decide a value.
    ns = [*range(401), 1030, 5000]
    ps = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, *np.arange(0.01, 1.0, 0.01)]
    digest("bounds.exact_binomial_upper_tail.grid", (
        (n, float(p), bounds.exact_binomial_upper_tail(n, p))
        for order in (ns, ns[::-1]) for n in order for p in ps))

    path_list = corpus(CTX)
    digest("paths.stage2", (paths.stage2_work_distribution(path)
                            for path in path_list))
    digest("paths.full.p=0.3", (paths.path_work_distribution(
        path, QubitState(0.3)) for path in path_list))
    digest("paths.area_csv", (paths.area_between(path).to_csv()
                              for path in path_list))
    far_paths = corpus(ThermalContext(beta=1.0, e0=1e16))
    digest("paths.stage2.e0=1e16", (paths.stage2_work_distribution(path)
                                    for path in far_paths))
    # Full-path laws and final states, which thermalize at the stored gaps.
    digest("paths.full.e0=1e16", (
        (paths.path_work_distribution(path, QubitState(0.3)),
         path_final_state(path, QubitState(0.3)))
        for path in far_paths))


if __name__ == "__main__":
    main()
