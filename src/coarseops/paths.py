"""Resolved-branch (path) formalism.

A protocol is a weighted mixture of paths: one path per assignment of each
thermalization to {identity, fresh Gibbs draw} and each swap to {identity,
flip}.  A path records the level-shift increments between those choices.
Increments are stored as one list of length k+1 for k tags: increment i
happens before tag i, and the final entry is the trailing shift after the
last tag (zero when there is none), so a shrunk path carries no identity
tags at all.

A path's exact work law is the protocol DP of `engine` (atoms closer than
MERGE_TOL / beta merged, zero-mass atoms dropped) run on its steps: LT(inc)
for each nonzero increment, PT(1) for a Gibbs tag and BT(1) for a swap tag.

Stages: I up to and including the first Gibbs tag, II until the last Gibbs
tag, III after it.  Stage free-energy changes are Gibbs-curve integrals
over the corresponding energy windows.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from coarseops.engine import (
    MERGE_TOL,
    WorkDistribution,
    _final_population,
    _run_dp,
)
from coarseops.protocol import (
    BistochasticTransformation,
    LevelTransformation,
    PartialThermalization,
    Protocol,
)
from coarseops.thermo import (
    QubitState,
    ThermalContext,
    gibbs_integral,
    gibbs_population,
)

ENUMERATION_MAX_BRANCHES = 24


class Tag(enum.Enum):
    IDENTITY = "I"
    GIBBS = "G"
    SWAP = "S"


@dataclass(frozen=True)
class Path:
    """One resolved branch: k tags with k+1 surrounding increments."""

    increments: tuple[float, ...]
    tags: tuple[Tag, ...]
    weight: float
    ctx: ThermalContext
    start_energy: float

    def __post_init__(self):
        if len(self.increments) != len(self.tags) + 1:
            raise ValueError(
                "a path with k tags needs k+1 increments "
                f"(got {len(self.increments)} and {len(self.tags)})"
            )

    def tag_energies(self) -> list[float]:
        """Energy gap at each tag."""
        out = []
        e = self.start_energy
        for inc, _ in zip(self.increments, self.tags):
            e += inc
            out.append(e)
        return out

    @property
    def end_energy(self) -> float:
        return self.start_energy + sum(self.increments)


def cyclic_path(energies, tags, ctx: ThermalContext) -> Path:
    """Weight-1 path from the boundary gap back to it, with tag i placed
    at gap energies[i]."""
    increments = [energies[0] - ctx.e0]
    increments += [b - a for a, b in zip(energies, energies[1:])]
    increments.append(ctx.e0 - energies[-1])
    return Path(tuple(increments), tuple(tags), 1.0, ctx, ctx.e0)


def random_cyclic_path(rng, ctx: ThermalContext, with_swaps: bool) -> Path:
    """Seeded corpus generator: a cyclic path opening and closing with
    Gibbs draws at gaps in [-2, 2]/beta, with 1-5 tags between; with
    `with_swaps` each of those is a swap at zero gap with probability 1/2.
    Scaling the gaps by 1/beta keeps beta times the gap, and with it every
    population, the same at every beta."""
    beta = ctx.beta
    n_mid = int(rng.integers(1, 6))
    energies = [float(rng.uniform(-2.0, 2.0)) / beta]
    tags = [Tag.GIBBS]
    for _ in range(n_mid):
        if with_swaps and rng.random() < 0.5:
            energies.append(0.0)
            tags.append(Tag.SWAP)
        else:
            energies.append(float(rng.uniform(-2.0, 2.0)) / beta)
            tags.append(Tag.GIBBS)
    energies.append(float(rng.uniform(-2.0, 2.0)) / beta)
    tags.append(Tag.GIBBS)
    return cyclic_path(energies, tags, ctx)


def enumerate_paths(proto: Protocol) -> list[Path]:
    """All resolved branches of a protocol with positive probability.

    Each thermalization resolves to IDENTITY (weight 1-lambda) or GIBBS
    (lambda); each swap to IDENTITY (1-gamma) or SWAP (gamma).  Weights of
    the enumeration sum to 1."""
    increments, choices = [0.0], []  # shared by every branch
    for step in proto.steps:
        if isinstance(step, LevelTransformation):
            increments[-1] += step.delta_e
            continue
        if isinstance(step, PartialThermalization):
            w, taken = step.lam, Tag.GIBBS
        else:
            w, taken = step.gamma, Tag.SWAP
        choices.append(((1.0 - w, Tag.IDENTITY), (w, taken)))
        increments.append(0.0)
    if len(choices) > ENUMERATION_MAX_BRANCHES:
        raise ValueError(
            f"{len(choices)} branching steps exceed the enumeration "
            f"limit of {ENUMERATION_MAX_BRANCHES}"
        )
    increments = tuple(increments)
    paths = []
    for picks in itertools.product(*choices):
        weight = math.prod((w for w, _ in picks), start=1.0)
        if weight != 0.0:
            # From a list: a tuple grown from a generator is allocated at a
            # guessed size and shrunk, stranding memory on tuple free lists.
            paths.append(Path(increments, tuple([t for _, t in picks]),
                              weight, proto.ctx, proto.ctx.e0))
    return paths


def shrink(path: Path) -> Path:
    """Canonical form: identity tags removed (their surrounding increments
    glued), and adjacent swap pairs with zero net increment in between
    (below MERGE_TOL / beta) cancelled (a swap is an involution).  The
    conditional work law is unchanged.

    Two linear passes: the first glues every identity, the second cancels
    swap pairs leftmost first against a stack of the shrunk prefix.  Fusing
    them would re-associate the sums where an identity follows a pair."""
    glued, glued_tags = [], []
    carry = path.increments[0]
    for tag, inc in zip(path.tags, path.increments[1:]):
        if tag is Tag.IDENTITY:
            carry = inc + carry
        else:
            glued.append(carry)
            glued_tags.append(tag)
            carry = inc
    glued.append(carry)
    increments, tags = [], []
    carry = glued[0]
    for tag, inc in zip(glued_tags, glued[1:]):
        if (tag is Tag.SWAP and tags and tags[-1] is Tag.SWAP
                and abs(carry) < MERGE_TOL / path.ctx.beta):
            tags.pop()
            carry = inc + (carry + increments.pop())
        else:
            increments.append(carry)
            tags.append(tag)
            carry = inc
    increments.append(carry)
    return Path(tuple(increments), tuple(tags), path.weight, path.ctx,
                path.start_energy)


@dataclass(frozen=True)
class StageDecomposition:
    stage1: Path
    stage2: Path
    stage3: Path
    e_a: float
    e_b: float

    @property
    def delta_f_1(self) -> float:
        ctx = self.stage1.ctx
        return gibbs_integral(self.stage1.start_energy, self.e_a, ctx)

    @property
    def delta_f_2(self) -> float:
        return gibbs_integral(self.e_a, self.e_b, self.stage1.ctx)

    @property
    def delta_f_3(self) -> float:
        return gibbs_integral(self.e_b, self.stage3.end_energy, self.stage1.ctx)


def decompose_stages(path: Path) -> StageDecomposition:
    """Split at the first and last Gibbs tags.  Paths with no Gibbs tag are
    all stage I."""
    gibbs_at = [i for i, t in enumerate(path.tags) if t is Tag.GIBBS]
    energies = path.tag_energies()
    w, ctx, e0 = path.weight, path.ctx, path.start_energy
    if not gibbs_at:
        empty_at = Path((0.0,), (), w, ctx, path.end_energy)
        return StageDecomposition(path, empty_at, empty_at,
                                  path.end_energy, path.end_energy)
    first, last = gibbs_at[0], gibbs_at[-1]
    e_a, e_b = energies[first], energies[last]
    stage1 = Path(
        tuple(path.increments[: first + 1]) + (0.0,),
        tuple(path.tags[: first + 1]),
        w, ctx, e0,
    )
    stage2 = Path(
        tuple(path.increments[first + 1 : last + 1]) + (0.0,),
        tuple(path.tags[first + 1 : last + 1]),
        w, ctx, e_a,
    )
    stage3 = Path(
        tuple(path.increments[last + 1 :]),
        tuple(path.tags[last + 1 :]),
        w, ctx, e_b,
    )
    return StageDecomposition(stage1, stage2, stage3, e_a, e_b)


@dataclass(frozen=True)
class Segment:
    index: int
    e_from: float
    e_to: float
    level: float
    tag: str
    area: float
    in_stage2: bool


@dataclass(frozen=True)
class AreaReport:
    total: float
    segments: tuple[Segment, ...]

    def to_csv(self) -> str:
        lines = ["segment,e_from,e_to,level_q,tag,area"]
        for s in self.segments:
            lines.append(
                f"{s.index},{s.e_from:.17g},{s.e_to:.17g},"
                f"{s.level:.17g},{s.tag},{s.area:.17g}"
            )
        return "\n".join(lines) + "\n"


def area_between(path: Path, initial_level: float = math.nan) -> AreaReport:
    """Per-segment areas between the path's horizontal segments and the
    Gibbs curve, in closed form.  The total is over stage-II segments (the
    only ones the variance bound uses); stage-I segments need the initial
    occupation, which may be unknown (NaN level, NaN area)."""
    ctx = path.ctx
    gibbs_at = [i for i, t in enumerate(path.tags) if t is Tag.GIBBS]
    first = gibbs_at[0] if gibbs_at else len(path.tags)
    last = gibbs_at[-1] if gibbs_at else -1
    segments = []
    total = 0.0
    level = initial_level
    e = path.start_energy
    for i, (inc, tag) in enumerate(
        itertools.zip_longest(path.increments, path.tags, fillvalue=None)
    ):
        e_from, e_to = e, e + inc
        e = e_to
        if math.isnan(level):
            area = math.nan
        else:
            area = abs(
                gibbs_integral(e_from, e_to, ctx) - level * (e_to - e_from)
            )
        # Stage II spans the segments after the first Gibbs tag up to and
        # including the one ending at the last Gibbs tag.
        in_stage2 = first < i <= last
        if in_stage2:
            total += area
        segments.append(
            Segment(i, e_from, e_to, level,
                    tag.value if tag is not None else "end", area, in_stage2)
        )
        if tag is Tag.GIBBS:
            level = gibbs_population(e_to, ctx)
        elif tag is Tag.SWAP:
            level = 1.0 - level if not math.isnan(level) else math.nan
    return AreaReport(total, tuple(segments))


_TAG_STEPS = {
    Tag.GIBBS: PartialThermalization(1.0),
    Tag.SWAP: BistochasticTransformation(1.0),
}


def _path_steps(path: Path) -> list:
    """The path as protocol steps; identity tags and zero increments
    vanish."""
    steps = []
    for inc, tag in itertools.zip_longest(
        path.increments, path.tags, fillvalue=None
    ):
        if inc != 0.0:
            steps.append(LevelTransformation(inc))
        if tag in _TAG_STEPS:
            steps.append(_TAG_STEPS[tag])
    return steps


def path_work_distribution(path: Path, initial: QubitState) -> WorkDistribution:
    """Exact work law conditional on this resolved path.

    The occupation starts Bernoulli(initial), redraws from the Gibbs
    population at each Gibbs tag, and flips at each swap tag; every
    increment charges work -delta_e on the occupied branch."""
    works, unocc, occ = _run_dp(
        _path_steps(path), path.start_energy, path.ctx, initial.p_excited
    )
    return WorkDistribution.from_atoms(works, unocc + occ, path.ctx)


def stage2_work_distribution(path: Path) -> WorkDistribution:
    """Work law of the path's stage II, started from the Gibbs population
    at its first Gibbs tag."""
    d = decompose_stages(path)
    q_a = QubitState(gibbs_population(d.e_a, path.ctx))
    return path_work_distribution(d.stage2, q_a)


def path_final_state(path: Path, initial: QubitState) -> QubitState:
    """Occupation law at the end of the resolved path."""
    return QubitState(_final_population(
        _path_steps(path), path.start_energy, path.ctx, initial.p_excited
    ))


def _stage3_margin(q_out: float, ctx: ThermalContext, sign: float) -> float:
    """sign * (e0 - E(q_out)) + log(Z(e0) / Z(E(q_out))) / beta, where E(q)
    is the gap at which the thermal population is q."""
    if not 0.0 < q_out < 1.0:
        raise ValueError(f"q_out must lie strictly in (0, 1), got {q_out}")
    # energy_of_population and partition_function written out, operation
    # for operation: q_out is checked above and the context on creation.
    beta, e0 = ctx.beta, ctx.e0
    e_q = -math.log(q_out / (1.0 - q_out)) / beta
    log_term = math.log(
        (1.0 + math.exp(-beta * e0)) / (1.0 + math.exp(-beta * e_q))
    ) / beta
    return sign * (e0 - e_q) + log_term


def epsilon_iii(q_out: float, ctx: ThermalContext) -> float:
    """Guaranteed stage-III work-loss margin for an endpoint level above the
    boundary thermal population: strictly positive for q_out > p_beta and
    zero at q_out = p_beta."""
    return _stage3_margin(q_out, ctx, 1.0)


def epsilon_iii_tilde(q_out: float, ctx: ThermalContext) -> float:
    """Mirror margin for an endpoint level below the boundary thermal
    population: strictly positive for q_out < p_beta."""
    return _stage3_margin(q_out, ctx, -1.0)
