"""Exact output checks for the benchmark's ops.

The checks use only masks, ints and Fractions read off the returned values;
they call nothing in the library, so a defect there cannot vouch for itself.
Each check raises :class:`CheckError` on a mismatch and otherwise returns the
op's exact unique values (kappa_n, K_n, verdict kinds), which the run digests
to show that one seed gives the same values on every run.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class CheckError(Exception):
    """An op returned a value that fails its exact check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _probability(weights, what: str) -> None:
    _require(all(w >= 0 for w in weights), f"{what} has a negative atom weight")
    _require(sum(weights, Fraction(0)) == 1, f"{what} does not sum to 1")


def _scaled_subset_sums(weights) -> tuple[int, list[int]]:
    """Common denominator D and D*m(mask) for every mask, as ints."""
    denom = lcm(*(Fraction(w).denominator for w in weights))
    ints = [Fraction(w).numerator * (denom // Fraction(w).denominator) for w in weights]
    sums = [0] * (1 << len(ints))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + ints[low.bit_length() - 1]
    return denom, sums


def level_masks(frag, n: int) -> frozenset[int]:
    """Masks of level n, with levels past the last taken as all of B+."""
    if n <= len(frag.levels):
        return frozenset(e.mask for e in frag.levels[n - 1])
    return frozenset(range(1, 1 << frag.space.atom_count))


def check_level_certificate(frag, cert, *, of_measure: bool) -> tuple:
    """kappa_n is the exact minimum of the level measure over level n,
    kappa_n >= 1/(30 K^2), and the antichain witness is a disjoint family of
    K members of level n+2.  For the threshold levels of a measure also
    K <= 2^(n+2); a submeasure's levels have no such bound."""
    n = cert.level
    members = level_masks(frag, n)
    _require(bool(members) and cert.kappa is not None, f"level {n}: no kappa for a nonempty level")
    weights = cert.measure.atom_weights
    _require(len(weights) == frag.space.atom_count, f"level {n}: measure has the wrong atom count")
    _probability(weights, f"level {n} measure")
    denom, sums = _scaled_subset_sums(weights)
    _require(
        min(sums[mask] for mask in members) == cert.kappa * denom,
        f"level {n}: min over members of m(c) is not kappa = {cert.kappa}",
    )

    anti = cert.antichain
    K = anti.size
    _require(anti.level == n + 2, f"level {n}: antichain taken at level {anti.level}")
    _require(K >= 1, f"level {n}: K = {K} is not positive")
    _require(
        not of_measure or K <= 2**anti.level, f"level {n}: K = {K} exceeds 2^{anti.level}"
    )
    _require(len(anti.witness) == K, f"level {n}: antichain witness has the wrong size")
    above = level_masks(frag, n + 2)
    used = 0
    for e in anti.witness:
        _require(e.mask in above, f"level {n}: antichain witness member outside level {n + 2}")
        _require(e.mask & used == 0, f"level {n}: antichain witness members overlap")
        used |= e.mask
    bound = Fraction(1, 30 * K * K)
    _require(cert.bound == bound, f"level {n}: bound {cert.bound} is not 1/(30 K^2) = {bound}")
    _require(cert.kappa >= bound, f"level {n}: kappa {cert.kappa} below 1/(30 K^2) = {bound}")
    return (n, str(cert.kappa), K)


def check_fragmentation_certificate(frag, cert, *, of_measure: bool) -> tuple:
    """Every level certified, and the blended measure is the 2^-n mixture of
    the level measures, strictly positive and summing to 1."""
    levels = cert.level_certificates
    _require(
        [lc.level for lc in levels] == list(range(1, len(frag.levels) + 1)),
        "not every level has a certificate",
    )
    values = tuple(check_level_certificate(frag, lc, of_measure=of_measure) for lc in levels)
    blended = cert.measure.atom_weights
    _probability(blended, "blended measure")
    _require(all(w > 0 for w in blended), "blended measure is not strictly positive")
    total = sum(Fraction(1, 2**n) for n in range(1, len(levels) + 1))
    for x, w in enumerate(blended):
        mix = sum(Fraction(1, 2**lc.level) * lc.measure.atom_weights[x] for lc in levels)
        _require(w == mix / total, f"blended weight of atom {x} is not the 2^-n mixture")
    return values


def _check_partition(partition, sequence) -> None:
    """Cells are disjoint, cover the unit, and rebuild every member."""
    unit = (1 << sequence[0].space.atom_count) - 1
    union = 0
    rebuilt = [0] * len(sequence)
    for sig, cell in partition.cells.items():
        _require(cell.mask & union == 0, "signature cells overlap")
        union |= cell.mask
        for i in sig:
            rebuilt[i] |= cell.mask
    _require(union == unit, "signature cells do not cover the unit")
    _require(
        all(r == e.mask for r, e in zip(rebuilt, sequence)),
        "signature cells do not rebuild the sequence",
    )


def check_replay(trace, sequence, expected_kind: str, expected_K: int) -> tuple:
    """The verdict is the expected one and the trace's identities hold: the
    witness atom lies in exactly the listed members, or the pieces a_ij
    rebuild every member and each column's pieces are disjoint."""
    verdict = trace.verdict
    params = trace.parameters
    m = len(sequence)
    _require(verdict.kind == expected_kind, f"verdict {verdict.kind}, expected {expected_kind}")
    _require(params.K == expected_K and params.m == m, "replay used the wrong K or m")
    _check_partition(trace.partition, sequence)
    if expected_kind == "witness":
        w = verdict.witness
        bit = 1 << w.atom
        hits = tuple(i for i, e in enumerate(sequence) if e.mask & bit)
        _require(w.indices == hits, "witness indices are not the members holding the atom")
        _require(w.ratio == Fraction(len(hits), m), "witness ratio is not |J|/m")
        _require(w.ratio >= Fraction(1, 30 * params.K**2), "witness ratio below 1/(30 K^2)")
        return (verdict.kind, params.K, w.atom, len(hits))
    _require(trace.a_table is not None and trace.expander is not None, "no a-table or expander")
    columns: dict[int, int] = {}
    for (i, j), piece in trace.a_table.items():
        _require(piece.mask & columns.get(j, 0) == 0, f"pieces in column {j} overlap")
        columns[j] = columns.get(j, 0) | piece.mask
    for i, e in enumerate(sequence):
        mask = 0
        for j in trace.expander.sets[i]:
            piece = trace.a_table.get((i, j))
            if piece is not None:
                mask |= piece.mask
        _require(mask == e.mask, f"pieces of member {i} do not rebuild it")
    return (verdict.kind, params.K, params.k, params.p, verdict.index, verdict.failing_step)
