"""Resolved-branch (path) formalism.

A protocol is a weighted mixture of paths: one path per assignment of each
thermalization to {identity, fresh Gibbs draw} and each swap to {identity,
flip}.  A path stores the gaps it visits: for k tags, k+2 gaps, namely the
start gap, the gap at each tag and the end gap.  Shrinking, stages and
areas read the stored gaps and re-derive none from the start gap, so a gap
given exactly (a drawn gap, a swap at 0.0) stays exact however large the
start gap e0 is.  A shrunk path carries no identity tags at all.

A path's exact work law is the protocol DP of `engine` (atoms closer than
MERGE_TOL / beta merged, zero-mass atoms dropped) run on its steps: LT(b -
a) between consecutive gaps a, b, PT(1) for a Gibbs tag and BT(1) for a
swap tag.  A Gibbs tag thermalizes at the gap the path stores for it.

Stages: I up to and including the first Gibbs tag, II until the last Gibbs
tag, III after it.  Stage free-energy changes are Gibbs-curve integrals
over the corresponding energy windows; the stage-III loss margins are
`bounds`', beside the no-go bounds built on them.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from coarseops.engine import (
    MERGE_TOL,
    WorkDistribution,
    _check_budget,
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


class Tag(enum.Enum):
    IDENTITY = "I"
    GIBBS = "G"
    SWAP = "S"


@dataclass(frozen=True, slots=True)
class Path:
    """One resolved branch: k tags and k+2 gaps, the start gap, the gap at
    each tag and the end gap."""

    gaps: tuple[float, ...]
    tags: tuple[Tag, ...]
    weight: float
    ctx: ThermalContext

    def __post_init__(self):
        if len(self.gaps) != len(self.tags) + 2:
            raise ValueError(
                "a path with k tags needs k+2 gaps "
                f"(got {len(self.gaps)} and {len(self.tags)})"
            )

    @property
    def start_energy(self) -> float:
        return self.gaps[0]

    @property
    def end_energy(self) -> float:
        return self.gaps[-1]


def cyclic_path(energies, tags, ctx: ThermalContext) -> Path:
    """Weight-1 path from the boundary gap back to it, with tag i placed
    at gap energies[i]."""
    return Path((ctx.e0, *energies, ctx.e0), tuple(tags), 1.0, ctx)


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


def enumerate_paths(proto: Protocol) -> Iterator[Path]:
    """Yields each resolved branch of a protocol with positive probability.

    Each thermalization resolves to IDENTITY (weight 1-lambda) or GIBBS
    (lambda); each swap to IDENTITY (1-gamma) or SWAP (gamma).  Weights of
    the enumeration sum to 1.  Every branch shares the gaps of the
    protocol's energy trajectory at its start, at each of these steps and
    at its end.  Choices of zero weight are dropped before the product,
    which must fit engine.ATOM_CAP paths (ResourceError otherwise, the
    budget every exhaustive structure shares, checked at the call); a path
    whose weight underflows to 0 is dropped after it."""
    trajectory = proto.energy_trajectory()
    gaps, choices = [trajectory[0]], []
    for step, gap in zip(proto.steps, trajectory):
        if isinstance(step, LevelTransformation):
            continue
        if isinstance(step, PartialThermalization):
            w, taken = step.lam, Tag.GIBBS
        else:
            w, taken = step.gamma, Tag.SWAP
        choices.append([c for c in ((1.0 - w, Tag.IDENTITY), (w, taken))
                        if c[0] > 0.0])
        gaps.append(gap)
    gaps.append(trajectory[-1])
    _check_budget(math.prod(map(len, choices)), "path enumeration")
    return _weighted_paths(tuple(gaps), choices, proto.ctx)


def _weighted_paths(gaps, choices, ctx: ThermalContext) -> Iterator[Path]:
    for picks in itertools.product(*choices):
        weight = math.prod((w for w, _ in picks), start=1.0)
        if weight != 0.0:
            # From a list: a tuple grown from a generator is allocated at a
            # guessed size and shrunk, stranding memory on tuple free lists.
            yield Path(gaps, tuple([t for _, t in picks]), weight, ctx)


def shrink(path: Path) -> Path:
    """Canonical form: identity tags dropped with their gaps, and adjacent
    swap pairs whose gaps differ by less than MERGE_TOL / beta cancelled
    (a swap is an involution).  The output gaps are a subsequence of the
    input gaps, and the conditional work law is unchanged.

    One pass against a stack of the shrunk prefix, so nested pairs cancel
    innermost first and a run of swaps cancels leftmost first."""
    tol = MERGE_TOL / path.ctx.beta
    gaps, tags = [path.gaps[0]], []
    for tag, gap in zip(path.tags, path.gaps[1:]):
        if tag is Tag.IDENTITY:
            continue
        if (tag is Tag.SWAP and tags and tags[-1] is Tag.SWAP
                and abs(gap - gaps[-1]) < tol):
            tags.pop()
            gaps.pop()
        else:
            gaps.append(gap)
            tags.append(tag)
    gaps.append(path.gaps[-1])
    return Path(tuple(gaps), tuple(tags), path.weight, path.ctx)


@dataclass(frozen=True, slots=True)
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

    def stage2_work_distribution(self) -> WorkDistribution:
        """Work law of stage II, started from the Gibbs population at e_a,
        the gap of the first Gibbs tag."""
        q_a = QubitState(gibbs_population(self.e_a, self.stage1.ctx))
        return path_work_distribution(self.stage2, q_a)


def decompose_stages(path: Path) -> StageDecomposition:
    """Split at the first and last Gibbs tags.  Paths with no Gibbs tag are
    all stage I."""
    gibbs_at = [i for i, t in enumerate(path.tags) if t is Tag.GIBBS]
    gaps, tags, w, ctx = path.gaps, path.tags, path.weight, path.ctx
    if not gibbs_at:
        end = path.end_energy
        empty_at = Path((end, end), (), w, ctx)
        return StageDecomposition(path, empty_at, empty_at, end, end)
    # Tag i sits at gaps[i + 1]; each stage ends where its last tag sits.
    first, last = gibbs_at[0], gibbs_at[-1]
    e_a, e_b = gaps[first + 1], gaps[last + 1]
    stage1 = Path((*gaps[: first + 2], e_a), tags[: first + 1], w, ctx)
    stage2 = Path((*gaps[first + 1 : last + 2], e_b),
                  tags[first + 1 : last + 1], w, ctx)
    stage3 = Path(gaps[last + 1 :], tags[last + 1 :], w, ctx)
    return StageDecomposition(stage1, stage2, stage3, e_a, e_b)


@dataclass(frozen=True, slots=True)
class Segment:
    index: int
    e_from: float
    e_to: float
    level: float
    tag: str
    area: float


@dataclass(frozen=True, slots=True)
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
    for i, (e_from, e_to, tag) in enumerate(
        zip(path.gaps, path.gaps[1:], (*path.tags, None))
    ):
        area = abs(gibbs_integral(e_from, e_to, ctx) - level * (e_to - e_from))
        # Stage II spans the segments after the first Gibbs tag up to and
        # including the one ending at the last Gibbs tag.
        if first < i <= last:
            total += area
        segments.append(
            Segment(i, e_from, e_to, level,
                    tag.value if tag is not None else "end", area)
        )
        if tag is Tag.GIBBS:
            level = gibbs_population(e_to, ctx)
        elif tag is Tag.SWAP:
            level = 1.0 - level
    return AreaReport(total, tuple(segments))


_TAG_STEPS = {
    Tag.GIBBS: PartialThermalization(1.0),
    Tag.SWAP: BistochasticTransformation(1.0),
}


def _path_steps(path: Path) -> tuple[tuple, tuple[float, ...]]:
    """The path as protocol steps and the stored gap at each: LT(b - a) at
    gap a for consecutive gaps a, b, then the tag's step at gap b; identity
    tags vanish."""
    pairs = []
    for a, b, tag in zip(path.gaps, path.gaps[1:], (*path.tags, None)):
        pairs.append((LevelTransformation(b - a), a))
        if tag in _TAG_STEPS:
            pairs.append((_TAG_STEPS[tag], b))
    return tuple(zip(*pairs))


def path_work_distribution(path: Path, initial: QubitState) -> WorkDistribution:
    """Exact work law conditional on this resolved path.

    The occupation starts Bernoulli(initial), redraws from the Gibbs
    population at the stored gap of each Gibbs tag, and flips at each swap
    tag; every level shift charges work -delta_e on the occupied branch."""
    works, unocc, occ = _run_dp(*_path_steps(path), path.ctx,
                                initial.p_excited)
    return WorkDistribution.from_atoms(works, unocc + occ, path.ctx)


def stage2_work_distribution(path: Path) -> WorkDistribution:
    """Work law of the path's stage II, started from the Gibbs population
    at its first Gibbs tag (StageDecomposition.stage2_work_distribution)."""
    return decompose_stages(path).stage2_work_distribution()

