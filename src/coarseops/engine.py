"""Exact and sampled evaluation of a protocol.

A map of the module; each function's docstring states its rules.

* Work laws: `WorkDistribution`, whose `from_atoms` drops the atoms
  without mass and merges the rest by `_merge_atoms` at MERGE_TOL / beta,
  and hands out the one shared certain law `_CERTAIN_ZERO`;
  `prob_work_at_most` and `total_variation` read them.
* The exact DP: `_run_dp`, the one kernel over (occupation, work) for
  protocols and resolved paths, on the shift-count lattice of
  `_shift_lattice` or, past it, with a merge after every level shift;
  on the lattice, `_thermalization_run` takes each full thermalization,
  with the run of (level shift, full thermalization) pairs after it, on
  one column in place, and `_lattice_works` forms the work of the cells
  with mass at the end.
  `exact_work_distribution` and `paths.path_work_distribution` call it.
* The population recursion: `_final_population`, and `final_state`, its
  one caller, which starts it at the last full thermalization, where the
  population is that step's Gibbs weight whatever came before.
* The oracle: `brute_force_work_distribution`, a breadth-first branch
  enumeration that shares no code with the DP.
* The sampler: `monte_carlo`, seeded and counter-based, for laws past
  ATOM_CAP.  `_word_limit` and `_uniform_below` decide each branch on raw
  Philox words; `_slice_starts`, `_sample_slice` and `_in_threads` run a
  chunk as one slice per CPU (`_usable_cpus`) with the same bits.
* Budgets: MERGE_TOL, ATOM_CAP (`_check_budget` raises `ResourceError`)
  and _LATTICE_CELLS_PER_SHIFT.

The DP and the population recursion read each step's gap from their
caller (a protocol's `energy_trajectory()`, a path's stored gaps) and sum
no increments.  No engine forms a work value for a branch without mass.
Tolerances are in units of 1/beta, so the law of beta*W is a function of
beta*E.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from coarseops.protocol import (
    BistochasticTransformation,
    LevelTransformation,
    PartialThermalization,
    Protocol,
)
from coarseops.thermo import QubitState, gibbs_population

# Work atoms closer than this, in units of 1/beta, are one atom: increments
# drawn from a common grid are meant to collide.
MERGE_TOL = 1e-10
# The one size budget of every exhaustive structure, checked where each
# grows; binning past it instead would corrupt the bounds' tail probabilities.
ATOM_CAP = 1_000_000
# Dense shift-count lattice budget, in cells per level shift (_shift_lattice).
_LATTICE_CELLS_PER_SHIFT = 32


class ResourceError(RuntimeError):
    """The exact computation would exceed its configured budget."""


def _check_budget(size: int, what: str) -> None:
    """Refuse a structure of `size` entries past ATOM_CAP (read per call)."""
    if size > ATOM_CAP:
        raise ResourceError(f"{what} of {size} exceeds ATOM_CAP = {ATOM_CAP}")


def _merge_atoms(values: np.ndarray, tol: float, *mass_columns: np.ndarray):
    """Sort atoms stably by value and merge each run whose adjacent gaps are
    below tol into one atom; returns the values and the summed columns.

    A merged atom sits at first + sum p*(v - first) / sum p, with p the
    atom's total over all columns and first the run's smallest value, so it
    stays inside its own run even when the run's mass is denormal."""
    order = values.argsort(kind="stable")
    values = values[order]
    columns = [c[order] for c in mass_columns]
    new_run = values[1:] - values[:-1] >= tol
    if np.count_nonzero(new_run) == len(new_run):
        return (values, *columns)
    # Atom i opens a run where edges[i] is set and closes one where
    # edges[i + 1] is.
    edges = np.concatenate(([True], new_run, [True]))
    group = edges[:-1].cumsum()
    group -= 1
    first, last = values[edges[:-1]], values[edges[1:]]
    p = functools.reduce(operator.add, columns)
    mass = np.bincount(group, weights=p)
    offset = np.bincount(group, weights=p * (values - first[group]))
    offset = np.divide(offset, mass, out=np.zeros(len(mass)),
                       where=mass > 0.0)
    return (first + np.minimum(offset, last - first),
            *(np.bincount(group, weights=c) for c in columns))


@dataclass(frozen=True, slots=True)
class WorkDistribution:
    """Finite probability mass over work values, sorted ascending."""

    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    @staticmethod
    def from_atoms(values, probs, ctx) -> "WorkDistribution":
        """The law of atoms given as parallel arrays (or one float each):
        atoms without positive mass are dropped and the rest merged by
        _merge_atoms at MERGE_TOL / ctx.beta.  One float each, the whole law
        of a shift-free protocol as _run_dp returns it, needs no array, sort
        or merge: the atom is kept when its mass is positive.  The law holds
        Python floats, also where numpy floats are given.  The certain law
        {+0.0: 1.0}, which most classifier witnesses have, is one shared
        object (_CERTAIN_ZERO), so two certain laws may be one object; an
        atom at -0.0 or a mass off 1.0 by any amount gets its own law."""
        if isinstance(values, float):
            if not probs > 0:
                return WorkDistribution((), ())
            if (probs == 1.0 and values == 0.0
                    and math.copysign(1.0, values) == 1.0):
                return _CERTAIN_ZERO
            return WorkDistribution((float(values),), (float(probs),))
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        keep = probs > 0.0
        values, probs = _merge_atoms(values[keep], MERGE_TOL / ctx.beta,
                                     probs[keep])
        return WorkDistribution(tuple(values.tolist()), tuple(probs.tolist()))

    @property
    def atoms(self) -> dict[float, float]:
        return dict(zip(self.values, self.probabilities))

    @property
    def total(self) -> float:
        return float(sum(self.probabilities))

    @property
    def mean(self) -> float:
        return float(sum(map(operator.mul, self.values, self.probabilities)))

    @property
    def variance(self) -> float:
        """The variance, or inf when a squared deviation overflows a float
        (|w - mean| above about 1.3e154)."""
        m = self.mean
        try:
            return float(sum(
                (w - m) ** 2 * p for w, p in zip(self.values, self.probabilities)
            ))
        except OverflowError:
            return math.inf

    def to_csv(self) -> str:
        lines = ["work,probability"]
        for w, p in zip(self.values, self.probabilities):
            lines.append(f"{w:.17g},{p:.17g}")
        return "\n".join(lines) + "\n"


# The law of a shift-free protocol's certain work 0, shared by from_atoms;
# frozen, slotted and made of tuples, so no holder can change it.
_CERTAIN_ZERO = WorkDistribution((0.0,), (1.0,))


def prob_work_at_most(dist: WorkDistribution, threshold: float, ctx) -> float:
    """Total mass at or below the threshold, with a slack of MERGE_TOL /
    ctx.beta so atoms sitting numerically on the threshold are counted."""
    limit = threshold + MERGE_TOL / ctx.beta
    return float(sum(p for w, p in zip(dist.values, dist.probabilities)
                     if w <= limit))


def total_variation(a: WorkDistribution, b: WorkDistribution, ctx) -> float:
    """Total-variation distance, matching atoms whose work values merge
    under MERGE_TOL / ctx.beta."""
    _, pa, pb = _merge_atoms(
        np.array(a.values + b.values), MERGE_TOL / ctx.beta,
        np.array(a.probabilities + (0.0,) * len(b.probabilities)),
        np.array((0.0,) * len(a.probabilities) + b.probabilities),
    )
    return 0.5 * float(np.add.reduce(np.abs(pa - pb)))


def _final_population(steps, gaps, ctx, p: float) -> float:
    """Scalar population recursion over a step sequence, with gaps[i] the
    gap at step i: thermalization mixes toward the thermal population at
    that gap, shifts leave populations alone, swaps mix with the flipped
    population."""
    for step, e in zip(steps, gaps):
        if isinstance(step, PartialThermalization):
            p = (1.0 - step.lam) * p + step.lam * gibbs_population(e, ctx)
        elif isinstance(step, BistochasticTransformation):
            p = (1.0 - step.gamma) * p + step.gamma * (1.0 - p)
    return p


def final_state(proto: Protocol, initial: QubitState) -> QubitState:
    """Deterministic population evolution of a protocol (_final_population).
    A full thermalization forgets the population: the recursion gives 0*p +
    g there, which is its Gibbs weight g for every finite p, -0.0 included.
    So the recursion starts at the last full thermalization, from its g,
    and runs over the steps after it only, with the same bits; without
    one, it runs over every step."""
    steps, gaps, p = proto.steps, proto.energy_trajectory(), initial.p_excited
    j = len(steps)
    while j:
        j -= 1
        step = steps[j]
        if isinstance(step, PartialThermalization) and step.lam == 1.0:
            p = gibbs_population(gaps[j], proto.ctx)
            steps, gaps = steps[j + 1:], gaps[j + 1:]
            break
    return QubitState(_final_population(steps, gaps, proto.ctx, p))


def _shift_lattice(steps):
    """The dense lattice of signed shift counts of a step sequence, or None
    when it is too large to pay off or there is no shift to count.

    One axis per distinct |delta_e|, spanning the signed counts its shifts
    can reach.  Strides ascend in the order of each axis's last shift, so
    the window of reachable cells grows by the smallest strides while most
    shifts remain: on a staged protocol it is 2 cells per stage-II round.
    Returns ([(|delta_e|, stride, size, lowest count)], cells, origin
    cell).  A cell costs a few array operations per step and a merge of
    the support costs a sort per shift, so the lattice is used while it has
    at most _LATTICE_CELLS_PER_SHIFT cells per level shift (plus one) and
    at most ATOM_CAP cells."""
    deltas = [s.delta_e for s in steps
              if isinstance(s, LevelTransformation) and s.delta_e != 0.0]
    if not deltas:
        return None
    limit = min(ATOM_CAP, _LATTICE_CELLS_PER_SHIFT * (len(deltas) + 1))
    # Counted from the last shift back, so each |delta_e| enters at its
    # last shift and the axes are read back in reverse.
    counts: dict[float, list[int]] = {}
    for d in reversed(deltas):
        n = counts.get(abs(d))
        if n is None:
            n = counts[abs(d)] = [0, 0]
        # Not n[d > 0]: for a numpy-float shift that index is a numpy.bool_.
        n[1 if d > 0 else 0] += 1
    axes, cells, origin = [], 1, 0
    for m, (neg, pos) in reversed(counts.items()):
        axes.append((m, cells, neg + pos + 1, neg))
        origin += neg * cells
        cells *= neg + pos + 1
        if cells > limit:
            return None
    return axes, cells, origin


def _lattice_works(axes, cell):
    """The work of each given cell of _shift_lattice's lattice, 0 - c_1 *
    |delta_e_1| - c_2 * |delta_e_2| - ..., subtracted in axis order, over
    its signed counts c_j.  As the strides ascend axis by axis, the counts
    are the cell's Fortran-order multi-index (one np.unravel_index call)
    less each axis's lowest count."""
    counts = np.unravel_index(cell, [size for _, _, size, _ in axes],
                              order="F")
    works = np.zeros(len(cell))
    for (m, _, _, neg), count in zip(axes, counts):
        works -= (count - neg) * m
    return works


def _thermalization_run(steps, gaps, i, ctx, strides, column, spare,
                        lo, hi, unocc, occ):
    """A full thermalization at step i on _run_dp's lattice, over cells
    [lo, hi) with columns unocc and occ, and the (nonzero level shift,
    full thermalization) pairs that follow it.  The run adds the columns
    into `column` and keeps that one column, the total, through the run:
    each pair is the two-point update total'[c] =
    (1 - g) * total[c] + g * total[c - s], for the Gibbs weight g of the
    thermalization before it and the shift's signed stride s, done in place
    with spare[lo:hi] holding the products g * total.  The bits are those
    of forming the two columns and summing them at the next thermalization:
    each cell gets the same two products and the same IEEE addition, which
    commutes.  A cell the shift vacates keeps (1 - g) * total[c], which
    adding its occupied +0.0 gives there, as no mass is -0.0; a cell it
    newly reaches adds onto the +0.0 it holds here.  spare keeps products
    inside the window, which the column writes after the run always cover.
    g and 1 - g reach np.multiply as two 0-d float64 arrays of the run, set
    in place at each pair: the same IEEE products, without converting a
    Python float on every call.  Returns the index past the run, the
    window and the last thermalization's two columns, (1 - g) * total and
    g * total, formed with the same two arrays."""
    total = np.add(unocc, occ, column[lo:hi])
    g = gibbs_population(gaps[i], ctx)
    gv, hv = np.empty(()), np.empty(())
    i, n = i + 1, len(steps)
    while (i + 1 < n and isinstance(steps[i], LevelTransformation)
           and steps[i].delta_e != 0.0
           and isinstance(steps[i + 1], PartialThermalization)
           and steps[i + 1].lam == 1.0):
        delta = steps[i].delta_e
        products = spare[lo:hi]
        gv[()] = g
        hv[()] = 1.0 - g
        np.multiply(total, gv, products)
        np.multiply(total, hv, total)
        if delta > 0.0:
            s = strides[delta]
            target = column[lo + s:hi + s]
            hi += s
        else:
            s = strides[-delta]
            target = column[lo - s:hi - s]
            lo -= s
        np.add(target, products, target)
        total = column[lo:hi]
        g = gibbs_population(gaps[i + 1], ctx)
        i += 2
    gv[()] = g
    hv[()] = 1.0 - g
    return i, lo, hi, total * hv, total * gv


def _run_dp(steps, gaps, ctx, p: float):
    """Exact work law of a step sequence from excited population p, with
    gaps[i] the gap at step i, as parallel arrays: work values with their
    mass split by final occupation.  Thermalizations and swaps mix the two
    occupation columns atom by atom; only level shifts move mass between
    work values (the occupied column pays -delta_e).  On the lattice a full
    thermalization (lam = 1) opens a run, with the (nonzero shift, full
    thermalization) pairs after it, which _thermalization_run takes on one
    column in place.  It ends with the two columns that the general mixing
    forms at lam = 1, (1 - g) * total and g * total: the masses are finite
    and their total is never -0.0, so 0*x + y == y, and 1*(1 - g) == 1 - g.

    Until the first level shift the support is the one atom at work 0, so
    the columns are plain floats, or one-element arrays after a run, with
    the same IEEE results; a shift-free sequence returns floats.  While the shift-count
    lattice fits (_shift_lattice), the support is that lattice, flattened,
    and the columns cover the window of cells the shifts so far can reach:
    a level shift stores the window and moves the occupied column by its
    axis's stride with one slice assignment.  The cells of zero mass are
    dropped at the end, and the work of each other cell is formed once
    (_lattice_works); nothing is merged here: the caller's from_atoms
    merges once, deterministically (a stable sort in cell order).
    Otherwise each level shift keeps the atoms with unoccupied mass,
    appends those with occupied mass, shifted, and merges by _merge_atoms
    at MERGE_TOL / beta, refusing with ResourceError once the support
    exceeds ATOM_CAP atoms."""
    works, unocc, occ = 0.0, 1.0 - p, p
    lattice = _shift_lattice(steps)
    if lattice is not None:
        axes, cells, lo = lattice
        strides = {m: stride for m, stride, _, _ in axes}
        hi = lo + 1
        cell_unocc, cell_occ = np.zeros(cells), np.zeros(cells)
    i, n = 0, len(steps)
    while i < n:
        step = steps[i]
        if isinstance(step, PartialThermalization):
            lam = step.lam
            if lam == 1.0 and lattice is not None:
                i, lo, hi, unocc, occ = _thermalization_run(
                    steps, gaps, i, ctx, strides, cell_unocc, cell_occ,
                    lo, hi, unocc, occ)
                continue
            total = unocc + occ
            g = gibbs_population(gaps[i], ctx)
            unocc = (1.0 - lam) * unocc + lam * (1.0 - g) * total
            occ = (1.0 - lam) * occ + lam * g * total
        elif isinstance(step, BistochasticTransformation):
            gam = step.gamma
            unocc, occ = (
                (1.0 - gam) * unocc + gam * occ,
                (1.0 - gam) * occ + gam * unocc,
            )
        elif step.delta_e != 0.0 and lattice is not None:
            s = strides[abs(step.delta_e)]
            if step.delta_e > 0:
                shifted = slice(lo + s, hi + s)
                vacated = slice(lo, min(lo + s, hi))
            else:
                shifted = slice(lo - s, hi - s)
                vacated = slice(max(hi - s, lo), hi)
            cell_unocc[lo:hi] = unocc
            cell_occ[shifted] = occ
            cell_occ[vacated] = 0.0
            lo, hi = min(lo, shifted.start), max(hi, shifted.stop)
            unocc, occ = cell_unocc[lo:hi], cell_occ[lo:hi]
        elif step.delta_e != 0.0:
            works, unocc, occ = np.atleast_1d(works, unocc, occ)
            stay, moved = unocc > 0, occ > 0
            works = np.concatenate((works[stay], works[moved] - step.delta_e))
            unocc = np.concatenate((unocc[stay],
                                    np.zeros(np.count_nonzero(moved))))
            occ = np.concatenate((np.zeros(np.count_nonzero(stay)), occ[moved]))
            works, unocc, occ = _merge_atoms(works, MERGE_TOL / ctx.beta,
                                             unocc, occ)
            _check_budget(len(works), "work support")
        i += 1
    if lattice is not None:
        live = unocc + occ > 0.0
        works = _lattice_works(axes, np.arange(lo, hi)[live])
        unocc, occ = unocc[live], occ[live]
    return works, unocc, occ


def exact_work_distribution(
    proto: Protocol, initial: QubitState
) -> WorkDistribution:
    """Exact law of the total work by dynamic programming (_run_dp).
    Raises ResourceError past ATOM_CAP; monte_carlo samples such a law."""
    works, unocc, occ = _run_dp(proto.steps, proto.energy_trajectory(),
                                proto.ctx, initial.p_excited)
    return WorkDistribution.from_atoms(works, unocc + occ, proto.ctx)


def brute_force_work_distribution(
    proto: Protocol, initial: QubitState
) -> WorkDistribution:
    """Independent oracle: exhaustively enumerate every resolved outcome of
    every random choice, with no DP merging along the way.

    The branches form a breadth-first frontier of parallel arrays
    (occupied, probability, work), starting from the occupied and the empty
    branch.  Before each step the branches of zero probability are dropped.
    A level shift charges -delta_e to the occupied branches; a
    thermalization splits every branch into the children of nonzero weight
    among three (unchanged, occupied, empty) and a swap among two
    (unchanged, flipped), each branch's children kept adjacent, so the
    leaves come out in depth-first order.  Nothing is merged before
    WorkDistribution.from_atoms.  Before each split the live branches times
    the children of nonzero weight must fit ATOM_CAP, so no frontier
    exceeds it, however long."""
    energies = proto.energy_trajectory()
    p0 = initial.p_excited
    occupied = np.array([True, False])
    prob = np.array([p0, 1.0 - p0])
    work = np.zeros(2)
    for i, step in enumerate(proto.steps):
        live = prob.nonzero()[0]
        occupied, prob, work = occupied[live], prob[live], work[live]
        if isinstance(step, LevelTransformation):
            # An empty branch subtracts +-0.0, a no-op as work is never -0.0.
            work = work - occupied * step.delta_e
            continue
        if isinstance(step, PartialThermalization):
            g = gibbs_population(energies[i], proto.ctx)
            lam = step.lam
            mixed = prob * lam
            children = ((1.0 - lam, occupied, prob, 1.0 - lam),
                        (lam * g, True, mixed, g),
                        (lam * (1.0 - g), False, mixed, 1.0 - g))
        else:
            gam = step.gamma
            children = ((1.0 - gam, occupied, prob, 1.0 - gam),
                        (gam, ~occupied, prob, gam))
        # Children as (weight, occupied, parent mass, factor); one of zero
        # weight has zero probability on every branch, so it gets no
        # column.  Row b of the (branches, children) arrays holds branch
        # b's children, each probability its parent mass times its factor.
        children = [c[1:] for c in children if c[0] != 0.0]
        shape = (len(prob), len(children))
        _check_budget(shape[0] * shape[1], "oracle frontier")
        occupied_out, prob_out = np.empty(shape, dtype=bool), np.empty(shape)
        for j, (o, p, f) in enumerate(children):
            occupied_out[:, j] = o
            np.multiply(p, f, prob_out[:, j])
        occupied, prob = occupied_out.ravel(), prob_out.ravel()
        work = work.repeat(shape[1])
    return WorkDistribution.from_atoms(work, prob, proto.ctx)


# Fixed chunk size, so that a result depends on (seed, n_samples) alone:
# chunk c always covers the same samples and draws from its own jumped
# stream.  Peak memory is a few arrays of one chunk's length.
_MC_CHUNK = 65536
# Shortest slice worth a thread of its own (_slice_starts), in samples.
# Shorter slices spend more on handing the interpreter lock between short
# numpy calls than they save: on 2 CPUs, a chunk of a 12-step protocol ran
# 18 % slower as two slices of 8,192 samples than as one slice, and 13 %
# faster as two of 16,384 (medians of 200 alternating runs).
_MC_SLICE_MIN = 16384


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    distribution: WorkDistribution
    final_p_excited: float
    n_samples: int

    @property
    def mean_std_error(self) -> float:
        d = self.distribution
        return math.sqrt(d.variance / self.n_samples)


def _word_limit(t: float) -> int | None:
    """The word bound of the uniforms below t.  numpy's Generator.random
    forms u = (x >> 11) * 2**-53 from a raw Philox word x, and u < t exactly
    when x < ceil(t * 2**53) << 11 (the product is exact, a scaling by a
    power of two); None stands for every word, once ceil(t * 2**53) >=
    2**53."""
    k = math.ceil(t * 2.0**53)
    return None if k >= 2**53 else max(k, 0) << 11


def _uniform_below(words: np.ndarray, limit: int | None) -> np.ndarray:
    """The mask u < t of the words' uniforms, given t's _word_limit."""
    if limit is None:
        return np.ones(len(words), dtype=bool)
    return words < limit


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slice_starts(m: int) -> list[int]:
    """The first sample of each slice of an m-sample chunk, then m: one
    slice per CPU (_usable_cpus), each a run of whole 4-word Philox blocks
    of at least _MC_SLICE_MIN samples, or the one slice [0, m) when m is
    not a whole number of blocks."""
    n = 1 if m % 4 else max(1, min(_usable_cpus(), m // _MC_SLICE_MIN))
    return [4 * (m // 4 * k // n) for k in range(n)] + [m]


def _sample_slice(plan, bitgen, skip: int, work: np.ndarray) -> int:
    """Run the samples of one slice through the protocol, charging their
    work to `work`, a view of the chunk's work array, and return how many
    end occupied.  bitgen stands at the slice's first word of the chunk's
    stream; each random choice reads the slice's words and then skips the
    `skip` blocks that the other slices read."""
    def words():
        x = bitgen.random_raw(len(work))
        if skip:
            bitgen.advance(skip)
        return x

    occupied = None
    for kind, a, b in plan:
        if kind == "shift":
            # An empty sample subtracts -0.0 when delta_e < 0, a no-op:
            # work starts at +0.0 and never becomes -0.0.
            work -= occupied * a
        elif kind == "draw":
            occupied = _uniform_below(words(), a)
        elif kind == "mix":
            # u < lam*g implies u < lam, so this is the three-way split.
            x = words()
            occupied = _uniform_below(x, a) | (
                occupied & ~_uniform_below(x, b))
        else:
            occupied ^= _uniform_below(words(), a)
    return int(np.count_nonzero(occupied))


def _in_threads(tasks) -> list:
    """Each task's result: tasks[0] runs in this thread and every other on
    a helper thread under this thread's numpy error state.  All helpers
    are joined before this returns or raises; a task's exception, the
    first by index, is raised here."""
    errstate = dict(np.geterr(), call=np.geterrcall())
    results = [None] * len(tasks)
    errors = [None] * len(tasks)

    def run(k):
        try:
            with np.errstate(**errstate):
                results[k] = tasks[k]()
        except BaseException as exc:  # raised again in the calling thread
            errors[k] = exc

    helpers = []
    try:
        for k in range(1, len(tasks)):
            helper = threading.Thread(target=run, args=(k,))
            helper.start()
            helpers.append(helper)
        results[0] = tasks[0]()
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def monte_carlo(
    proto: Protocol, initial: QubitState, n_samples: int, seed: int
) -> MonteCarloResult:
    """Sampled work law and final-state estimate.

    Chunk c of a run reads raw 64-bit words from Philox(seed) jumped c
    times, one word per sample for each random choice, in a fixed order:
    the initial occupation, then each thermalization or swap, in step
    order.  Each choice compares the uniform u = (x >> 11) * 2**-53 of its
    word x with a threshold, decided on the word itself (`_word_limit`),
    so the stream and every branch are those of Generator(Philox).random.
    A thermalization splits u three ways (u < lam*g occupied, u < lam
    empty, otherwise unchanged; at lam = 1 the old occupation is forgotten
    and one comparison decides); a swap flips when u < gamma.  The word
    limits are formed once per call.  A chunk runs as contiguous slices
    of whole 4-word Philox blocks, one per CPU the process may use
    (_slice_starts), each on its own thread: a slice's copy of the
    chunk's stream reads the slice's words of each choice and advances
    past the other slices' blocks, and writes its samples' work into the
    chunk's one work array.  So the result is a pure function of (seed,
    n_samples), whatever the number of CPUs."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    energies = proto.energy_trajectory()
    plan = [("draw", _word_limit(initial.p_excited), None)]
    for i, step in enumerate(proto.steps):
        if isinstance(step, LevelTransformation):
            plan.append(("shift", step.delta_e, None))
        elif isinstance(step, PartialThermalization):
            lam = step.lam
            g = gibbs_population(energies[i], proto.ctx)
            if lam == 1.0:
                plan.append(("draw", _word_limit(g), None))
            else:
                plan.append(("mix", _word_limit(lam * g), _word_limit(lam)))
        else:
            plan.append(("flip", _word_limit(step.gamma), None))

    all_values = []
    all_counts = []
    occupied_total = 0
    base = np.random.Philox(key=seed)
    for chunk_index, start in enumerate(range(0, n_samples, _MC_CHUNK)):
        m = min(_MC_CHUNK, n_samples - start)
        work = np.zeros(m)
        starts = _slice_starts(m)
        tasks = [
            functools.partial(
                _sample_slice, plan,
                base.jumped(chunk_index).advance(lo // 4),
                (m - (hi - lo)) // 4, work[lo:hi])
            for lo, hi in zip(starts, starts[1:])
        ]
        occupied_total += sum(_in_threads(tasks))
        values, counts = np.unique(work, return_counts=True)
        all_values.append(values)
        all_counts.append(counts.astype(float))
    values = np.concatenate(all_values)
    probs = np.concatenate(all_counts) / n_samples
    dist = WorkDistribution.from_atoms(values, probs, proto.ctx)
    return MonteCarloResult(dist, occupied_total / n_samples, n_samples)
