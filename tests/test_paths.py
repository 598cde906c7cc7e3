"""Tests for the resolved-branch formalism: enumeration, shrinking, stage
decomposition, Gibbs-curve areas, and the stage-III loss margins (which
live in `bounds`)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from coarseops.bounds import epsilon_iii, epsilon_iii_tilde
from coarseops.engine import (
    MERGE_TOL,
    ResourceError,
    _final_population,
    exact_work_distribution,
    final_state,
    total_variation,
)
from coarseops.paths import (
    Path,
    Tag,
    _path_steps,
    area_between,
    cyclic_path,
    decompose_stages,
    enumerate_paths,
    path_work_distribution,
    random_cyclic_path,
    shrink,
    stage2_work_distribution,
)
from coarseops.protocol import (
    LevelTransformation,
    PartialThermalization,
    PartialThermalization as PT,
    Protocol,
    random_protocol,
)
from coarseops.thermo import (
    QubitState,
    ThermalContext,
    energy_of_population,
    gibbs_population,
    partition_function,
)

CTX = ThermalContext(beta=1.0, e0=math.log(3))
LN3 = math.log(3)

I, G, S = Tag.IDENTITY, Tag.GIBBS, Tag.SWAP


def make_path(gaps, tags, weight=1.0, ctx=CTX):
    return Path(tuple(gaps), tuple(tags), weight, ctx)


def _path_final_population(path, p):
    """Reference: the population recursion over the path's steps and stored
    gaps, from population p."""
    return _final_population(*_path_steps(path), path.ctx, p)


def random_shrunk_path(seed: int, with_swaps: bool):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return random_cyclic_path(rng, CTX, with_swaps)


def test_path_needs_two_more_gaps_than_tags():
    with pytest.raises(ValueError, match=r"k\+2 gaps \(got 2 and 1\)"):
        make_path([0.0, 0.0], [G])


def is_subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def test_enumerate_two_thermalizations():
    proto = Protocol(CTX, [PT(0.3), PT(0.6)])
    paths = list(enumerate_paths(proto))
    assert len(paths) == 4
    weights = sorted(p.weight for p in paths)
    expected = sorted([0.7 * 0.4, 0.3 * 0.4, 0.7 * 0.6, 0.3 * 0.6])
    assert weights == pytest.approx(expected)
    assert sum(p.weight for p in paths) == pytest.approx(1.0, abs=1e-15)


def test_enumerate_deterministic_protocol():
    proto = Protocol(CTX, [PT(1.0), PT(1.0)])
    paths = list(enumerate_paths(proto))
    assert len(paths) == 1
    assert paths[0].weight == 1.0
    assert paths[0].tags == (G, G)
    # Zero-weight choices never enter the product, so a long protocol with
    # one branch is one path.
    long = enumerate_paths(Protocol(CTX, [PT(1.0)] * 30))
    assert [(p.weight, p.tags) for p in long] == [(1.0, (G,) * 30)]


def test_enumerate_refuses_past_atom_cap(monkeypatch):
    # Only positive-weight choices count against the budget.
    monkeypatch.setattr("coarseops.engine.ATOM_CAP", 1000)
    steps = [PT(0.5)] * 9 + [PT(1.0)] * 30
    assert len(list(enumerate_paths(Protocol(CTX, steps)))) == 512
    # Refused at the call, before the first path is asked for.
    with pytest.raises(ResourceError, match=r"^path enumeration of 1024 "
                       r"exceeds ATOM_CAP = 1000$"):
        enumerate_paths(Protocol(CTX, [PT(0.5)] * 10))


def test_enumerate_yields_paths_one_at_a_time():
    # An iterator, so the first path comes before the other 65,535 exist.
    paths = enumerate_paths(Protocol(CTX, [PT(0.5)] * 16))
    assert iter(paths) is paths
    first = next(paths)
    assert (first.weight, first.tags) == (0.5**16, (I,) * 16)


def test_enumerate_weight_sum_on_random_protocols():
    for seed in range(30):
        proto = random_protocol(seed, 8, 2.0, CTX)
        paths = enumerate_paths(proto)
        assert sum(p.weight for p in paths) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_mixture_reproduces_final_state():
    for seed in range(20):
        proto = random_protocol(seed, 6, 2.0, CTX)
        initial = QubitState(0.3)
        mixed = sum(
            p.weight * _path_final_population(p, initial.p_excited)
            for p in enumerate_paths(proto)
        )
        assert mixed == pytest.approx(
            final_state(proto, initial).p_excited, abs=1e-12
        )


def test_enumerate_mixture_reproduces_work_law():
    for seed in range(20):
        proto = random_protocol(seed, 6, 2.0, CTX)
        initial = QubitState(0.4)
        paths = enumerate_paths(proto)
        values, probs = [], []
        for p in paths:
            d = path_work_distribution(p, initial)
            values.extend(d.values)
            probs.extend(q * p.weight for q in d.probabilities)
        from coarseops.engine import WorkDistribution

        mixture = WorkDistribution.from_atoms(values, probs, CTX)
        exact = exact_work_distribution(proto, initial)
        assert total_variation(mixture, exact, CTX) <= 1e-12, seed


def test_shrink_removes_identity():
    path = make_path([LN3, 1.5, 2.2, 2.2], [I, G])
    out = shrink(path)
    assert out.tags == (G,)
    assert out.gaps == (LN3, 2.2, 2.2)


def test_shrink_cancels_swap_pairs():
    path = make_path([LN3, 0.0, 0.0, LN3], [S, S])
    out = shrink(path)
    assert out.tags == ()
    assert out.gaps == (LN3, LN3)


def test_shrink_empty_path():
    path = make_path([LN3, LN3], [])
    assert shrink(path) == path


def test_shrink_preserves_work_law():
    for seed in range(50):
        proto = random_protocol(seed, 8, 2.0, CTX)
        initial = QubitState(0.25)
        for p in enumerate_paths(proto):
            assert (
                total_variation(
                    path_work_distribution(p, initial),
                    path_work_distribution(shrink(p), initial),
                    CTX,
                )
                <= 1e-12
            )


# Reference implementations: enumeration re-walking the protocol for every
# branch, and shrinking that restarts its scan after every cancellation.
# The linear-pass versions must reproduce them bit for bit.
def reference_enumerate_paths(proto):
    branch_steps = [
        s for s in proto.steps if not isinstance(s, LevelTransformation)
    ]
    paths = []
    for picks in itertools.product((False, True), repeat=len(branch_steps)):
        weight = 1.0
        tags = []
        gap = proto.ctx.e0
        gaps = [gap]
        it = iter(picks)
        for step in proto.steps:
            if isinstance(step, LevelTransformation):
                gap = gap + step.delta_e
                continue
            taken = next(it)
            if isinstance(step, PartialThermalization):
                weight *= step.lam if taken else (1.0 - step.lam)
                tag = Tag.GIBBS if taken else Tag.IDENTITY
            else:
                weight *= step.gamma if taken else (1.0 - step.gamma)
                tag = Tag.SWAP if taken else Tag.IDENTITY
            gaps.append(gap)
            tags.append(tag)
        gaps.append(gap)
        if weight == 0.0:
            continue
        paths.append(Path(tuple(gaps), tuple(tags), weight, proto.ctx))
    return paths


def reference_shrink(path):
    # gaps[i + 1] is the gap at tags[i].
    gaps = list(path.gaps)
    tags = list(path.tags)
    i = 0
    while i < len(tags):
        if tags[i] is Tag.IDENTITY:
            del gaps[i + 1]
            del tags[i]
        else:
            i += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(tags) - 1):
            if (
                tags[i] is Tag.SWAP
                and tags[i + 1] is Tag.SWAP
                and abs(gaps[i + 2] - gaps[i + 1]) < MERGE_TOL / path.ctx.beta
            ):
                del gaps[i + 1 : i + 3]
                del tags[i : i + 2]
                changed = True
                break
    return Path(tuple(gaps), tuple(tags), path.weight, path.ctx)


def adversarial_path(seed: int):
    """Mostly swaps and identities at gaps that repeat the previous one, or
    move from it by less than MERGE_TOL, by MERGE_TOL up to rounding or by
    order 1: swap runs, nested pairs and identities after cancelled pairs
    all occur."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    gaps = [float(rng.uniform(-1.0, 1.0))]
    tags = []
    for _ in range(int(rng.integers(0, 14))):
        r = rng.random()
        tags.append(S if r < 0.55 else I if r < 0.85 else G)
        r = rng.random()
        if r < 0.35:
            gaps.append(gaps[-1])
        elif r < 0.6:
            gaps.append(gaps[-1] + float(rng.uniform(-MERGE_TOL, MERGE_TOL)))
        elif r < 0.7:
            gaps.append(gaps[-1] + float(rng.choice([-1.0, 1.0])) * MERGE_TOL)
        else:
            gaps.append(gaps[-1] + float(rng.uniform(-2.0, 2.0)))
    gaps.append(gaps[-1] + float(rng.uniform(-1.0, 1.0)))
    return make_path(gaps, tags, weight=float(rng.random()))


@pytest.mark.parametrize("max_steps, seeds", [(6, 400), (8, 400), (12, 60)])
def test_enumerate_and_shrink_match_the_references(max_steps, seeds):
    for seed in range(seeds):
        proto = random_protocol(seed, max_steps, 2.0, CTX)
        paths = list(enumerate_paths(proto))
        expected = reference_enumerate_paths(proto)
        assert repr(paths) == repr(expected), seed
        assert repr([shrink(p) for p in paths]) == repr(
            [reference_shrink(p) for p in expected]), seed


def test_shrink_matches_the_reference_on_adversarial_tags():
    nested = 0
    for seed in range(8000):
        path = adversarial_path(seed)
        out = shrink(path)
        assert repr(out) == repr(reference_shrink(path)), seed
        assert is_subsequence(out.gaps, path.gaps), seed
        nested += path.tags.count(S) - out.tags.count(S) >= 4
    assert nested > 0
    # A pair exactly MERGE_TOL apart stays; one ulp closer, it cancels.
    for far, kept in ((MERGE_TOL, (S, S)),
                      (math.nextafter(MERGE_TOL, 0.0), ())):
        path = make_path([LN3, 0.0, far, LN3], [S, S])
        assert shrink(path).tags == kept
        assert repr(shrink(path)) == repr(reference_shrink(path))


def test_shrink_cancels_nested_pairs_and_glues_identities_after_them():
    # The inner pair (both at gap 1.5) cancels first and leaves the outer
    # pair (both at gap 0.5) adjacent, which cancels too; the identity's gap
    # is dropped.  No gap is formed: the output gaps are input gaps.
    path = make_path([LN3, 0.5, 1.5, 1.5, 0.5, 0.75, 0.875, 0.875],
                     [S, S, S, S, I, G])
    out = shrink(path)
    assert out.tags == (G,)
    assert out.gaps == (LN3, 0.875, 0.875)
    assert is_subsequence(out.gaps, path.gaps)
    assert repr(out) == repr(reference_shrink(path))


def test_decompose_stages_example():
    path = make_path([LN3, 1.5, 1.3, 1.6], [G, G])
    d = decompose_stages(path)
    assert d.stage1.tags == (G,)
    assert d.stage1.gaps == (LN3, 1.5, 1.5)
    assert d.stage2.tags == (G,)
    assert d.stage2.gaps == (1.5, 1.3, 1.3)
    assert d.stage3.tags == ()
    assert d.stage3.gaps == (1.3, 1.6)
    assert (d.e_a, d.e_b) == (1.5, 1.3)


@pytest.mark.parametrize("e0", [LN3, 1e16, 1e308])
def test_large_start_gap_leaves_the_drawn_gaps_alone(e0):
    # The corpus stores each gap as drawn: the stage-II start is the first
    # draw and every swap sits at gap 0.0, however large the start gap.
    ctx = ThermalContext(beta=1.0, e0=e0)
    for seed in range(200):
        rng = np.random.Generator(np.random.Philox(key=seed))
        path = random_cyclic_path(rng, ctx, with_swaps=True)
        twin = np.random.Generator(np.random.Philox(key=seed))
        twin.integers(1, 6)
        first = float(twin.uniform(-2.0, 2.0)) / ctx.beta
        assert decompose_stages(path).e_a == first, seed
        assert all(gap == 0.0 for gap, tag in zip(path.gaps[1:], path.tags)
                   if tag is S), seed


@pytest.mark.parametrize("gap", [0.5, 0.34])
@pytest.mark.parametrize("e0", [LN3, 1e6, 1e16])
def test_path_laws_thermalize_at_the_stored_gaps(e0, gap):
    # A Gibbs tag thermalizes at the gap the path stores, not at e0 plus
    # the shifts taken back from the stored gaps.  Such a sum would read
    # the gap 0.5 as 0.0 from e0 = 1e16 (final population 0.5, masses
    # (0.35, 0.5, 0.15)), and move the gap 0.34 by an ulp from e0 = ln 3 or
    # 1e6, enough to move its Gibbs population.
    ctx = ThermalContext(beta=1.0, e0=e0)
    path = cyclic_path([gap], [G], ctx)
    initial = QubitState(0.3)
    assert _path_final_population(path, initial.p_excited) == gibbs_population(
        gap, ctx)
    at_one = cyclic_path([gap], [G], ThermalContext(beta=1.0, e0=1.0))
    assert (path_work_distribution(path, initial).probabilities
            == path_work_distribution(at_one, initial).probabilities)


def test_decompose_no_thermalization():
    path = make_path([LN3, 2.0, LN3], [S])  # swap path (not at zero; structural only)
    d = decompose_stages(path)
    assert d.stage1 == path
    assert d.stage2.tags == ()
    assert d.stage3.tags == ()
    assert d.delta_f_2 == 0.0
    assert d.delta_f_3 == 0.0


def test_stage_free_energy_closure():
    for seed in range(500):
        path = random_shrunk_path(seed, with_swaps=(seed % 3 == 0))
        d = decompose_stages(path)
        assert abs(d.delta_f_1 + d.delta_f_2 + d.delta_f_3) <= 1e-10, seed


def test_area_example_segment():
    # Level 1/2 from gap 0 to gap ln 3, entered by a Gibbs draw at 0.
    path = make_path([LN3, 0.0, LN3, LN3], [G, G])
    report = area_between(path)
    seg = report.segments[1]
    assert seg.level == pytest.approx(0.5)
    assert seg.area == pytest.approx(abs(math.log(1.5) - 0.5 * LN3), rel=1e-12)
    assert report.total == pytest.approx(seg.area, rel=1e-12)


def test_area_zero_width_segment():
    path = make_path([0.0, 0.0, 0.0, 0.0], [G, G])
    report = area_between(path)
    assert report.total == 0.0


def test_area_csv_dump():
    path = make_path([LN3, 1.5, LN3], [G])
    csv = area_between(path, initial_level=0.2).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "segment,e_from,e_to,level_q,tag,area"
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "G"
    assert lines[2].split(",")[4] == "end"


def test_variance_area_bound_toward_zero_regime():
    # The claimed inequality Var W_II <= (2/beta) A is provable when every
    # segment moves toward zero gap (the tangent-triangle containment is
    # valid there); verify it holds with margin in that regime.
    rng = np.random.Generator(np.random.Philox(key=99))
    for _ in range(500):
        e = float(rng.uniform(1.0, 3.0)) * (1 if rng.random() < 0.5 else -1)
        energies = [e]
        for _ in range(int(rng.integers(1, 6))):
            e = float(rng.uniform(0, abs(e))) * math.copysign(1.0, e)
            energies.append(e)
        path = cyclic_path(energies, [G] * len(energies), CTX)
        var = stage2_work_distribution(path).variance
        area = area_between(path).total
        assert var <= (2.0 / CTX.beta) * area + 1e-9


def test_variance_area_bound_refuted_for_away_segments():
    # Known refutation of the universal variance-area claim: a single
    # stage-II segment moving away from zero gap violates it, at any
    # discretization.  Pin the counterexample so the verifier's refutation
    # report stays honest.
    path = cyclic_path([1.0, 3.0], [G, G], CTX)
    q = gibbs_population(1.0, CTX)
    var = stage2_work_distribution(path).variance
    area = area_between(path).total
    assert var == pytest.approx(q * (1 - q) * 4.0, rel=1e-12)
    assert var > (2.0 / CTX.beta) * area + 0.2


def test_variance_area_violation_rate_on_fair_corpus():
    # On unconstrained random shrunk paths a non-negligible fraction
    # violates the claimed bound; record that the corpus genuinely
    # exercises both regimes (and still contains many swap paths).
    swap_count = 0
    violations = 0
    for seed in range(500):
        path = random_shrunk_path(seed, with_swaps=(seed % 3 == 0))
        if any(t is S for t in path.tags):
            swap_count += 1
        var = stage2_work_distribution(path).variance
        area = area_between(path).total
        if var > (2.0 / CTX.beta) * area + 1e-9:
            violations += 1
    assert swap_count >= 100
    assert violations > 0


def test_mean_area_identity():
    for seed in range(200):
        path = random_shrunk_path(seed, with_swaps=False)
        mean = stage2_work_distribution(path).mean
        identity = -decompose_stages(path).delta_f_2 - area_between(path).total
        assert mean == pytest.approx(identity, abs=1e-9), seed


def test_swap_segment_inequality_grid():
    # 2 q (1-q) d1 d2 <= (2/beta) (1/2 - q) d2 with q = g(d1), equivalent
    # to x <= sinh(x).
    for d1 in np.linspace(1e-3, 5.0, 100):
        q = gibbs_population(float(d1), CTX)
        for d2 in np.linspace(1e-3, 5.0, 100):
            lhs = 2.0 * q * (1.0 - q) * d1 * d2
            rhs = (2.0 / CTX.beta) * (0.5 - q) * d2
            assert lhs <= rhs + 1e-12


def test_sign_constancy_along_segments():
    # Between consecutive tags of a shrunk all-thermalize path the level
    # stays on one side of the Gibbs curve.
    for seed in range(100):
        path = random_shrunk_path(seed, with_swaps=False)
        report = area_between(path, initial_level=math.nan)
        for seg in report.segments:
            if math.isnan(seg.level) or seg.e_from == seg.e_to:
                continue
            samples = np.linspace(seg.e_from, seg.e_to, 7)[1:-1]
            signs = {
                math.copysign(1.0, gibbs_population(float(e), CTX) - seg.level)
                for e in samples
                if abs(gibbs_population(float(e), CTX) - seg.level) > 1e-13
            }
            assert len(signs) <= 1, (seed, seg)


def test_epsilon_iii_values():
    assert epsilon_iii(CTX.p_beta, CTX) == pytest.approx(0.0, abs=1e-12)
    assert epsilon_iii(0.5, CTX) == pytest.approx(math.log(2), rel=1e-12)
    with pytest.raises(ValueError):
        epsilon_iii(0.0, CTX)
    rng = np.random.Generator(np.random.Philox(key=1))
    for q in rng.uniform(CTX.p_beta + 1e-9, 0.5, size=1000):
        assert epsilon_iii(float(q), CTX) > 0.0


def test_epsilon_iii_tilde_values():
    assert epsilon_iii_tilde(CTX.p_beta, CTX) == pytest.approx(0.0, abs=1e-12)
    expected = math.log(7 / 3) + math.log(7 / 6)
    assert epsilon_iii_tilde(1 / 8, CTX) == pytest.approx(expected, rel=1e-12)
    rng = np.random.Generator(np.random.Philox(key=2))
    for q in rng.uniform(1e-6, CTX.p_beta - 1e-9, size=1000):
        assert epsilon_iii_tilde(float(q), CTX) > 0.0


def test_epsilon_functions_relate_to_energy_map():
    # Sanity: both margins agree with their definition via the population
    # energy map at an arbitrary point.
    q = 0.41
    e_q = energy_of_population(q, CTX)
    log_term = math.log((1 + math.exp(-CTX.e0)) / (1 + math.exp(-e_q)))
    assert epsilon_iii(q, CTX) == pytest.approx(-e_q + CTX.e0 + log_term, rel=1e-12)
    assert epsilon_iii_tilde(q, CTX) == pytest.approx(
        e_q - CTX.e0 + log_term, rel=1e-12
    )


@pytest.mark.parametrize("ctx", [CTX, ThermalContext(0.3, 2.0),
                                 ThermalContext(7.0, 0.05)])
def test_stage3_margins_equal_thermo_composition_bit_for_bit(ctx):
    # The margins write out energy_of_population and partition_function;
    # they must keep the bits of the composed thermo functions.
    rng = np.random.Generator(np.random.Philox(key=3))
    for q in np.concatenate([rng.uniform(1e-6, 1 - 1e-6, size=2000),
                             ctx.p_beta * (1 + np.linspace(-1e-9, 1e-9, 41))]):
        q = float(q)
        e_q = energy_of_population(q, ctx)
        log_term = math.log(partition_function(ctx.e0, ctx)
                            / partition_function(e_q, ctx)) / ctx.beta
        assert epsilon_iii(q, ctx) == (ctx.e0 - e_q) + log_term, q
        assert epsilon_iii_tilde(q, ctx) == -(ctx.e0 - e_q) + log_term, q
