"""Certified lower bounds on level intersection numbers.

For a graded fragmentation whose level n+2 has exact antichain constant K,
the intersection number of level n is at least 1/(30 K^2).  ``certify_level``
checks that bound by exact LP; ``certify_fragmentation`` certifies every
level and blends the per-level dual measures into a strictly positive one.

``replay_proof`` makes the underlying combinatorial argument executable for
one explicit sequence: either the deepest atom already witnesses a large
common-intersection index set (this always closes on honest inputs), or the
signature partition, a random verified expander family, Hall choice
functions, and the induced (i, j) table are built and every assertion along
the contradiction route is checked one by one.  On fixtures whose levels are
mislabeled (claimed graded but not), the route runs to the end and pinpoints
the first assertion that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import Element, enumerate_nonzero
from .errors import CertificationError, ContractError, InputError, InternalError
from .expanders import ExpanderFamily, build_expander, choice_function
from .fragmentation import (
    AntichainReport,
    Fragmentation,
    max_disjoint_family,
    require_valid,
    search_disjoint_family,
)
from .intersection import GameSolution, SequenceScore, _solve, kappa_of_sequence
from .intersection import intersection_number  # unused; bench/test_bench.py reads it here
from .measures import Measure, combine_measures

#: Sequences must be at least this factor times K^2 long for the replay.
MIN_SEQUENCE_FACTOR = 100


def intersection_bound(K: int) -> Fraction:
    """The certified lower bound 1/(30 K^2) for antichain constant K."""
    if K < 1:
        raise InputError("antichain constant must be at least 1")
    return Fraction(1, 30 * K * K)


def minimum_sequence_length(K: int) -> int:
    return MIN_SEQUENCE_FACTOR * K * K


@dataclass(frozen=True)
class KRParameters:
    """The derived integers of the counting argument.

    k is the largest integer >= 3 with k/m < 1/(30 K^2); p the largest
    integer >= k with p/m < 1/K.  Both the expander precondition
    p*p >= 15*m*k and p*K < m then hold, and are re-asserted on construction.
    """

    K: int
    m: int
    k: int
    p: int

    def __post_init__(self):
        if self.p * self.p < 15 * self.m * self.k or self.p * self.K >= self.m:
            raise InternalError("derived parameters violate their guaranteed inequalities")


def select_parameters(K: int, m: int) -> KRParameters:
    """Compute (k, p) from (K, m) by exact integer comparisons."""
    if not isinstance(K, int) or K < 1:
        raise InputError(f"K must be a positive integer, got {K!r}")
    if not isinstance(m, int) or m < minimum_sequence_length(K):
        raise InputError(f"m must be at least 100*K^2 = {minimum_sequence_length(K)}, got {m!r}")
    d = 30 * K * K
    k = (m - 1) // d  # largest k with k*d < m
    if k < 3:
        raise InternalError("k >= 3 must follow from m >= 100*K^2")
    p = (m - 1) // K  # largest p with p*K < m
    if p < k:
        raise InternalError("p >= k must follow from K <= 30*K^2")
    if (k + 1) * d < m:
        raise InternalError("k is not maximal")
    return KRParameters(K=K, m=m, k=k, p=p)


@dataclass(frozen=True)
class SignaturePartition:
    """Atoms grouped by their membership signature across the sequence.

    Only signatures that actually occur are materialized (at most one cell
    per atom, never 2^m).  Cells are pairwise disjoint, union to the unit,
    and the union of the cells whose signature contains i is exactly the
    i-th member.
    """

    sequence: tuple[Element, ...]
    cells: Mapping[frozenset[int], Element]


def build_signature_partition(sequence: Sequence[Element]) -> SignaturePartition:
    seq = tuple(sequence)
    if not seq:
        raise InputError("sequence must be nonempty")
    space = seq[0].space
    if any(e.space != space for e in seq):
        raise InputError("sequence members belong to different atom spaces")
    indices_of_atom: dict[int, list[int]] = {}
    for i, e in enumerate(seq):
        for x in e.atoms:
            indices_of_atom.setdefault(x, []).append(i)
    cell_masks: dict[frozenset[int], int] = {}
    covered = 0
    for x, idx in indices_of_atom.items():
        sig = frozenset(idx)
        cell_masks[sig] = cell_masks.get(sig, 0) | (1 << x)
        covered |= 1 << x
    rest = space.unit_mask & ~covered
    if rest:
        cell_masks[frozenset()] = rest
    cells = {sig: Element(space, mask) for sig, mask in cell_masks.items()}
    return SignaturePartition(seq, cells)


@dataclass(frozen=True)
class TraceVerdict:
    """Which step closed the argument.

    kind "witness": a large index set with nonzero meet was found directly.
    kind "descent_violation": the contradiction route ran to its end and the
    graded/nested descent failed at the recorded spot, localizing why the
    input was not the graded fragmentation it claimed to be.
    """

    kind: str
    witness: SequenceScore | None = None
    index: int | None = None
    failing_step: str | None = None
    level: int | None = None
    whole: Element | None = None
    part: Element | None = None


@dataclass(frozen=True)
class ProofTrace:
    parameters: KRParameters
    partition: SignaturePartition
    expander: ExpanderFamily | None
    a_table: Mapping[tuple[int, int], Element] | None
    verdict: TraceVerdict
    notes: tuple[str, ...] = ()


def _level(frag: Fragmentation, n: int) -> frozenset[Element]:
    """Level n, where levels past the last are B+ (the last level itself when
    that is all of B+, as it is on every covering fragmentation)."""
    if n <= frag.depth:
        return frag.levels[n - 1]
    last = frag.levels[-1]
    return last if len(last) == frag.space.unit_mask else frozenset(enumerate_nonzero(frag.space))


def replay_proof(
    frag: Fragmentation,
    n: int,
    sequence: Sequence[Element],
    seed: int,
    *,
    trust_fragmentation: bool = False,
) -> ProofTrace:
    """Replay the bound's argument on one explicit sequence from level n.

    With ``trust_fragmentation`` the validity and gradedness of the input are
    taken on the caller's word instead of being checked; that is how
    deliberately corrupted fixtures (and levels over atom spaces too large to
    enumerate) are driven into the contradiction route.
    """
    seq = tuple(sequence)
    if not seq:
        raise InputError("sequence must be nonempty")
    if n < 1 or n > frag.depth:
        raise InputError(f"level {n} does not exist")
    mins = None if trust_fragmentation else require_valid(frag, graded=True)
    for i, c in enumerate(seq):
        if c.space != frag.space:
            raise InputError(f"sequence member {i} lives in a different atom space")
        if c not in frag.levels[n - 1]:
            raise ContractError(f"sequence member {i} is not in level {n}")
    if mins is None:
        K, _ = max_disjoint_family(_level(frag, n + 2), frag.space)
    else:
        K = _LevelAnalysis(frag, mins).antichain(n + 2).size
    return _replay(frag, n, seq, seed, K)


def _replay(frag: Fragmentation, n: int, seq: Sequence[Element], seed: int, K: int) -> ProofTrace:
    """``replay_proof`` of a sequence from level n, given K = K_{n+2}."""
    space = frag.space
    extended = n + 2 - frag.depth
    notes = (f"extended with {extended} copies of B+ to reach level {n + 2}",) if extended > 0 else ()
    level_n1, level_n2 = _level(frag, n + 1), _level(frag, n + 2)
    m = len(seq)
    if m < minimum_sequence_length(K):
        raise InputError(
            f"sequence length {m} is below 100*K^2 = {minimum_sequence_length(K)} for K = {K}"
        )
    params = select_parameters(K, m)
    score = kappa_of_sequence(seq)  # a deepest atom x and J = {i : x in c_i}
    partition = build_signature_partition(seq)
    if score.ratio >= intersection_bound(K):
        return ProofTrace(params, partition, None, None, TraceVerdict("witness", witness=score), notes)

    # No index set of ratio >= 1/(30K^2) has a common atom, so every occurring
    # signature has size <= k.  Build the expander route and check each step.
    family = build_expander(m, params.p, params.k, seed)
    a_masks: dict[tuple[int, int], int] = {}
    for sig in sorted((s for s in partition.cells if s), key=sorted):
        if len(sig) > params.k:
            raise InternalError("an occurring signature exceeds k despite the depth check")
        f = choice_function(family, sig)
        cell_mask = partition.cells[sig].mask
        for i in sig:
            key = (i, f.assignment[i])
            a_masks[key] = a_masks.get(key, 0) | cell_mask
    a_table = {key: Element(space, mask) for key, mask in a_masks.items()}

    for i in range(m):  # each member must be the union of its three pieces
        mask = 0
        for j in family.sets[i]:
            mask |= a_masks.get((i, j), 0)
        if mask != seq[i].mask:
            raise InternalError(f"pieces of member {i} do not reconstruct it")
    columns: dict[int, list[tuple[int, int]]] = {}
    for (i, j), mask in a_masks.items():
        columns.setdefault(j, []).append((i, mask))
    for j, col in sorted(columns.items()):
        union = 0
        total = 0
        for _, mask in col:
            union |= mask
            total += mask.bit_count()
        if union.bit_count() != total:
            raise InternalError(f"pieces in column {j} are not pairwise disjoint")
        hits = sum(1 for i, _ in col if a_table[(i, j)] in level_n2)
        if hits > K:
            raise InternalError(
                f"column {j} holds {hits} > K = {K} members of level {n + 2}; "
                "the antichain constant was computed wrong"
            )
    if params.p * K >= m:
        raise InternalError("p*K < m must hold for selected parameters")

    bad_i = None
    for i in range(m):
        if all(a_table.get((i, j)) not in level_n2 for j in family.sets[i]):
            bad_i = i
            break
    if bad_i is None:
        raise InternalError("pigeonhole guarantees an index with no piece in level n+2")

    verdict = _descend(seq[bad_i], bad_i, family, a_table, n, level_n1, level_n2)
    return ProofTrace(params, partition, family, a_table, verdict, notes)


def _descend(
    c: Element,
    index: int,
    family: ExpanderFamily,
    a_table: Mapping[tuple[int, int], Element],
    n: int,
    level_n1: frozenset[Element],
    level_n2: frozenset[Element],
) -> TraceVerdict:
    """Run the graded descent at a member none of whose pieces reached
    level n+2; one of the checks below must fail, and its location is the
    verdict."""
    parts = [a_table[(index, j)] for j in family.sets[index] if (index, j) in a_table]
    parts = [p for p in parts if not p.is_zero]
    if len(parts) == 1:
        # c itself escaped level n+2 although it sits in level n.
        return TraceVerdict(
            "descent_violation",
            index=index,
            failing_step=f"nestedness: member of level {n} is outside level {n + 2}",
            level=n,
            whole=c,
            part=parts[0],
        )
    first, rest = parts[0], parts[1:]
    rest_union = rest[0] if len(rest) == 1 else rest[0].union(rest[1])
    if first not in level_n1 and rest_union not in level_n1:
        return TraceVerdict(
            "descent_violation",
            index=index,
            failing_step=f"gradedness between levels {n} and {n + 1}",
            level=n,
            whole=c,
            part=first,
        )
    if first in level_n1:
        return TraceVerdict(
            "descent_violation",
            index=index,
            failing_step=f"nestedness between levels {n + 1} and {n + 2}",
            level=n + 1,
            whole=first,
            part=first,
        )
    if len(rest) == 1:
        return TraceVerdict(
            "descent_violation",
            index=index,
            failing_step=f"nestedness between levels {n + 1} and {n + 2}",
            level=n + 1,
            whole=rest_union,
            part=rest_union,
        )
    return TraceVerdict(
        "descent_violation",
        index=index,
        failing_step=f"gradedness between levels {n + 1} and {n + 2}",
        level=n + 1,
        whole=rest_union,
        part=rest[0],
    )


@dataclass(frozen=True)
class LevelCertificate:
    """Exact intersection number of one level against its certified bound.

    ``kappa`` and ``bound`` are None only for an empty level, where the bound
    holds vacuously and any measure works.
    """

    level: int
    kappa: Fraction | None
    antichain: AntichainReport
    bound: Fraction | None
    measure: Measure
    notes: tuple[str, ...] = ()

    @property
    def K(self) -> int:
        return self.antichain.size


@dataclass(frozen=True)
class FragmentationCertificate:
    level_certificates: tuple[LevelCertificate, ...]
    measure: Measure
    notes: tuple[str, ...] = ()


class _LevelAnalysis:
    """Each distinct level of one valid fragmentation, analysed at most once.

    Lives for a single certify call, over the minimal masks ``require_valid``
    returned; levels past the last are the last, B+.  A level's minimal
    members feed one LP, and the LP's value kappa also bounds the level's
    antichain search, since a disjoint family of K members forces kappa <= 1/K.
    """

    def __init__(self, frag: Fragmentation, mins: list[list[int]]):
        self.frag = frag
        self.mins = mins
        self._games: dict[int, GameSolution | None] = {}
        self._antichains: dict[int, tuple[int, tuple[Element, ...]]] = {}

    def game(self, n: int) -> tuple[list[int], GameSolution | None]:
        """Masks of the minimal members of level n in canonical order, and the
        exact game over them (None for an empty level)."""
        key = min(n, self.frag.depth) - 1
        mins = self.mins[key]
        if key not in self._games:
            self._games[key] = _solve(mins, mins, self.frag.space) if mins else None
        return mins, self._games[key]

    def antichain(self, n: int) -> AntichainReport:
        key = min(n, self.frag.depth) - 1
        if key not in self._antichains:
            mins, solution = self.game(n)
            bound = math.floor(1 / solution.value) if solution else 0
            self._antichains[key] = search_disjoint_family(mins, self.frag.space, bound)
        return AntichainReport(n, *self._antichains[key])

    def certify(self, n: int) -> LevelCertificate:
        frag, space = self.frag, self.frag.space
        notes = (f"levels {frag.depth + 1}..{n + 2} taken as B+",) if n + 2 > frag.depth else ()
        antichain = self.antichain(n + 2)
        mins, solution = self.game(n)
        if solution is None:
            uniform = Measure(space, tuple(Fraction(1, space.atom_count) for _ in range(space.atom_count)))
            return LevelCertificate(n, None, antichain, None, uniform, notes + ("level empty; bound vacuous",))
        bound = intersection_bound(antichain.size)
        if solution.value < bound:
            raise CertificationError(
                f"kappa(level {n}) = {solution.value} < 1/(30*K^2) = {bound} with K = {antichain.size}",
                witness={
                    "level": n,
                    "kappa": solution.value,
                    "bound": bound,
                    "K": antichain.size,
                    "member_weights": solution.member_weights,
                    "members": tuple(Element(space, mask) for mask in mins),
                },
            )
        # the saddle-point check gave m(c) >= kappa on the minimal members; every
        # other member contains one of them, and weights are nonnegative
        measure = Measure(space, solution.atom_weights)
        return LevelCertificate(n, solution.value, antichain, bound, measure, notes)


def certify_level(frag: Fragmentation, n: int) -> LevelCertificate:
    """Exact kappa of level n, checked against 1/(30 K^2) with K = K_{n+2}.

    Missing levels n+1, n+2 are treated as copies of B+ (noted in the
    certificate).  Raises :class:`CertificationError` with the LP witness
    when the bound fails, which cannot happen for honest graded inputs.
    """
    mins = require_valid(frag, graded=True)
    if n < 1 or n > frag.depth:
        raise InputError(f"level {n} does not exist")
    return _LevelAnalysis(frag, mins).certify(n)


def certify_fragmentation(frag: Fragmentation) -> FragmentationCertificate:
    """Certify every level and produce a strictly positive measure.

    Each level's LP is solved once and also bounds the antichain search of
    the level two below.  The per-level dual measures are blended with
    weights 2^-n.  The blend is a ``Measure``, whose axioms hold by
    construction, so only its strict positivity is checked.
    """
    analysis = _LevelAnalysis(frag, require_valid(frag, graded=True))
    certs = tuple(analysis.certify(n) for n in range(1, frag.depth + 1))
    blended = combine_measures([cert.measure for cert in certs])  # each proved m_n >= kappa_n
    if not blended.strictly_positive:
        raise InternalError("covering plus per-level bounds must force strict positivity")
    return FragmentationCertificate(certs, blended)
