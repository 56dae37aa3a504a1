"""Kelley's intersection number, computed exactly.

For a finite collection C of nonzero elements, the intersection number is
the infimum over finite sequences from C (repetition allowed) of k/n, where
n is the sequence length and k the largest number of terms with a common
atom.  Sequences with repetition are exactly rational mixed strategies over
C, so the infimum is the value of the zero-sum game "pick a member" versus
"pick an atom" and is computed here by exact LP: on a set algebra it equals
the reciprocal of the fractional covering number of the membership
hypergraph.  A brute-force multiset search over short sequences provides an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Sequence

from .algebra import AtomSpace, Collection, Element, canonical_key, minimal_elements
from .errors import InputError, InternalError, SizeError
from .simplex import exact_lp_solve

#: Cap on the number of multisets the brute-force search will visit.
BRUTEFORCE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SequenceScore:
    """The score k/n of one explicit sequence: a deepest atom with the indices
    of all members containing it."""

    depth: int
    length: int
    ratio: Fraction
    atom: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class GameSolution:
    """Optimal value and both optimal mixtures of the intersection game.

    ``atom_weights`` is the optimizing probability vector over atoms (the
    measure side); ``member_weights`` the optimizing mixture over the
    collection, indexed like the input.  Both sum to one and satisfy
    ``min_c atom_weights(c) == value == max_x sum_c member_weights[c]*[x in c]``.
    """

    value: Fraction
    atom_weights: tuple[Fraction, ...]
    member_weights: tuple[Fraction, ...]


def kappa_of_sequence(sequence: Sequence[Element]) -> SequenceScore:
    """Score k/n of an explicit sequence.

    On a set algebra a subfamily has nonzero meet exactly when some atom lies
    in every term, so the depth is the maximum atom multiplicity.
    """
    seq = tuple(sequence)
    if not seq:
        raise InputError("sequence must be nonempty")
    space = seq[0].space
    counts: dict[int, int] = {}
    for i, e in enumerate(seq):
        if e.space != space:
            raise InputError("sequence members belong to different atom spaces")
        if e.is_zero:
            raise InputError(f"sequence member {i} is zero")
        for a in e.atoms:
            counts[a] = counts.get(a, 0) + 1
    depth = max(counts.values())
    atom = min(a for a, c in counts.items() if c == depth)
    indices = tuple(i for i, e in enumerate(seq) if (e.mask >> atom) & 1)
    return SequenceScore(depth, len(seq), Fraction(depth, len(seq)), atom, indices)


def intersection_number(collection: Collection) -> GameSolution:
    """Exact intersection number with both optimal strategy vectors.

    Solves the packing LP ``max sum(y)`` subject to, per atom, total weight of
    members containing it at most one; the value is the reciprocal of the
    optimum and the LP duals give the atom-side optimum.  Equivalent to
    minimizing the best-response atom load over member mixtures.
    """
    members = collection.members
    if not members:
        raise InputError("collection must be nonempty")
    # Dropping duplicates and non-minimal members leaves the value unchanged:
    # shrinking a played member never increases any atom's load, and removing
    # members can only raise the value, so both reductions are exact.
    reduced = [e.mask for e in minimal_elements(members)]
    return _solve([e.mask for e in members], reduced, collection.space)


def _solve(members: Sequence[int], minimal: list[int], space: AtomSpace) -> GameSolution:
    """The game over the ``members`` masks by the packing LP over ``minimal``,
    their distinct inclusion-minimal masks, each weighted at its first
    occurrence in ``members``; the saddle-point check covers all ``members``."""
    atoms_used = [x for x in range(space.atom_count) if any(mask >> x & 1 for mask in minimal)]
    sol = exact_lp_solve(minimal, atoms_used)
    tau = sol.objective
    if tau <= 0:
        raise InternalError("packing optimum must be positive for a nonempty collection")
    kappa = 1 / tau

    weight = dict(zip(minimal, sol.variables))  # each popped at its first occurrence
    member_weights = [weight.pop(mask, 0) * kappa for mask in members]
    price = dict(zip(atoms_used, sol.duals))
    atom_weights = [price.get(x, 0) * kappa for x in range(space.atom_count)]

    _check_game_solution(members, kappa, atom_weights, member_weights)
    return GameSolution(kappa, tuple(atom_weights), tuple(member_weights))


def _check_game_solution(members, kappa, atom_weights, member_weights) -> None:
    # Exact saddle-point identities in integers: each strategy vector is taken
    # over the least common denominator D of its entries, so its sums are
    # integers and each is compared with kappa * D.  A failure is a solver bug.
    prices, price_unit = over_common_denominator(atom_weights)
    plays, play_unit = over_common_denominator(member_weights)
    if sum(prices) != price_unit or sum(plays) != play_unit:
        raise InternalError("strategy vectors must sum to one")
    if any(v < 0 for v in prices) or any(v < 0 for v in plays):
        raise InternalError("strategy vectors must be nonnegative")
    priced = [(x, p) for x, p in enumerate(prices) if p]
    if min(sum(p for x, p in priced if mask >> x & 1) for mask in members) != kappa * price_unit:
        raise InternalError("atom-side optimum does not guarantee the game value")
    played = [(mask, w) for mask, w in zip(members, plays) if w]
    if max(sum(w for mask, w in played if mask >> x & 1) for x in range(len(prices))) != kappa * play_unit:
        raise InternalError("member-side optimum does not achieve the game value")


def over_common_denominator(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(numerators, D)`` with ``weights[i] == numerators[i] / D`` and D the
    least common denominator of the weights."""
    unit = lcm(*(w.denominator for w in weights))
    return [w.numerator * (unit // w.denominator) for w in weights], unit


def intersection_number_bruteforce(collection: Collection, max_len: int) -> Fraction:
    """Minimum k/n over all multisets from C of size 1..max_len.

    The score of a sequence does not depend on its order, so multisets rather
    than tuples are enumerated.  The result is always >= the LP value; it is
    an independent oracle for it.
    """
    members = collection.members
    if not members:
        raise InputError("collection must be nonempty")
    if max_len < 1:
        raise InputError("max_len must be at least 1")
    distinct: dict[int, Element] = {}
    for e in members:
        distinct.setdefault(e.mask, e)
    pool = sorted(distinct.values(), key=canonical_key)
    u = len(pool)
    total = comb(u + max_len, u) - 1  # sum of C(u + l - 1, l) over l = 1..max_len
    if total > BRUTEFORCE_BUDGET:
        raise SizeError(f"{total} multisets exceed the brute-force budget of {BRUTEFORCE_BUDGET}")
    atom_lists = [e.atoms for e in pool]
    best: Fraction | None = None
    for length in range(1, max_len + 1):
        for combo in combinations_with_replacement(range(u), length):
            counts: dict[int, int] = {}
            for idx in combo:
                for a in atom_lists[idx]:
                    counts[a] = counts.get(a, 0) + 1
            score = Fraction(max(counts.values()), length)
            if best is None or score < best:
                best = score
    if best is None:
        raise InternalError("max_len >= 1 must give the bruteforce a sequence to score")
    return best
