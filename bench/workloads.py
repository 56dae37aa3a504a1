"""The benchmark's workloads: seeded inputs, one op per input, a check per op.

Each workload runs in cycles.  A cycle is a fixed mix of op kinds, ordered
and weighted so that the median and the 90th percentile of op latency fall
inside one kind's spread rather than on the step between two kinds; a run
times whole cycles, so every run measures the same mix.  Inputs are drawn
from the seed only.  The ops call the library through module attributes at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from checks import check_fragmentation_certificate, check_level_certificate, check_replay


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, int], list[list[Op]]]
    #: Distinct cycles of inputs made in set-up; a longer run repeats them.
    pool_cycles: int
    #: Untraced seconds of one cycle at the baseline commit.  It sizes the
    #: fixed work of a traced run, so its counts repeat exactly for a seed.
    cycle_seconds: float


# corpus-certify: (atoms, is_submeasure) per op.  Four in five inputs are
# measures and one in five a submeasure, as in the acceptance corpus.
CORPUS_CYCLE = (
    (2, False), (2, False), (2, False), (3, False), (3, False), (3, True),
    (4, False), (4, False), (4, False), (5, False), (5, False), (5, True),
    (6, False), (6, False), (6, False), (6, False), (6, False), (6, True),
    (7, False), (7, False), (7, False), (7, True), (8, False), (8, False), (9, True),
    (10, False), (10, False), (10, False), (10, False), (10, True),
)


def build_corpus(rng: random.Random, cycles: int) -> list[list[Op]]:
    from boolmeasure import certify, fragmentation, generators

    def op(atoms: int, submeasure: bool) -> Op:
        seed = rng.randrange(2**32)
        if submeasure:
            phi = generators.gen_submeasure(atoms, seed)

            def run():
                frag = fragmentation.from_submeasure(phi)
                return frag, certify.certify_fragmentation(frag)
        else:
            measure = generators.gen_measure(atoms, seed)

            def run():
                frag = fragmentation.from_measure(measure)
                return frag, certify.certify_fragmentation(frag)

        label = f"{'submeasure' if submeasure else 'measure'}-{atoms}"
        return Op(
            label,
            run,
            lambda result: check_fragmentation_certificate(*result, of_measure=not submeasure),
        )

    return [[op(*kind) for kind in CORPUS_CYCLE] for _ in range(cycles)]


# wide-level: (atoms, max_weight, level) per op.  max_weight 32 gives generic
# weights, 2 near-uniform ones whose level LPs are highly degenerate.  The
# kinds with the widest spread of op time (generic level 1, degenerate level
# 2 of 11 atoms) are left out, so a run of 40 s still times over 100 ops.
WIDE_CYCLE = (
    (10, 32, 2), (10, 32, 2), (11, 32, 2), (11, 32, 2), (11, 32, 2), (10, 2, 1), (10, 2, 1),
)


def build_wide(rng: random.Random, cycles: int) -> list[list[Op]]:
    from boolmeasure import certify, fragmentation, generators

    def op(atoms: int, max_weight: int, level: int) -> Op:
        measure = generators.gen_measure(atoms, rng.randrange(2**32), max_weight=max_weight)

        def run():
            frag = fragmentation.from_measure(measure)
            return frag, certify.certify_level(frag, level)

        return Op(
            f"measure-{atoms}-w{max_weight}-level{level}",
            run,
            lambda result: check_level_certificate(*result, of_measure=True),
        )

    return [[op(*kind) for kind in WIDE_CYCLE] for _ in range(cycles)]


# proof-replay: honest ops on measure fragmentations of 6..10 atoms close
# with a witness; dishonest ops on the pairwise-intersecting fixture take the
# expander route and end in a descent violation.  m <= 120 keeps k = 3, so
# expansion verification stays inside its budget.  Two in three ops are
# dishonest, so both quantiles fall among them, where every op has its own
# m and expander seed.
HONEST_ATOMS = (6, 7, 8, 9, 10)
DISHONEST_PER_CYCLE = 10
DISHONEST_MEMBERS = (100, 120)


def pairwise_intersecting(algebra, fragmentation, m: int):
    """m members, one atom per pair of members, so every two members meet;
    its three identical levels are declared graded, which they are not."""
    atom_of = {pair: x for x, pair in enumerate(combinations(range(m), 2))}
    space = algebra.AtomSpace(len(atom_of))
    members = tuple(
        space.element([atom_of[(min(i, o), max(i, o))] for o in range(m) if o != i])
        for i in range(m)
    )
    level = frozenset(members)
    return members, fragmentation.Fragmentation(space, (level, level, level))


def build_replay(rng: random.Random, cycles: int) -> list[list[Op]]:
    from boolmeasure import algebra, certify, fragmentation, generators

    fixtures = {}

    def honest(atoms: int) -> Op:
        frag = fragmentation.from_measure(generators.gen_measure(atoms, rng.randrange(2**32)))
        # K of level 3, or of B+ (the singletons) when the fragmentation is shallower.
        K = fragmentation.max_antichain(frag, 3, validate=False).size if frag.depth >= 3 else atoms
        level1 = sorted(e.mask for e in frag.levels[0])
        sequence = tuple(
            frag.space.from_mask(rng.choice(level1)) for _ in range(100 * K * K)
        )
        seed = rng.randrange(2**32)
        return Op(
            f"honest-{atoms}",
            lambda: certify.replay_proof(frag, 1, sequence, seed),
            lambda trace: check_replay(trace, sequence, "witness", K),
        )

    def dishonest() -> Op:
        m = rng.randint(*DISHONEST_MEMBERS)
        if m not in fixtures:
            fixtures[m] = pairwise_intersecting(algebra, fragmentation, m)
        members, frag = fixtures[m]
        seed = rng.randrange(2**32)
        return Op(
            f"dishonest-{m}",
            lambda: certify.replay_proof(frag, 1, members, seed, trust_fragmentation=True),
            lambda trace: check_replay(trace, members, "descent_violation", 1),
        )

    return [
        [honest(atoms) for atoms in HONEST_ATOMS] + [dishonest() for _ in range(DISHONEST_PER_CYCLE)]
        for _ in range(cycles)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-certify", build_corpus, pool_cycles=8, cycle_seconds=6.2),
        Workload("wide-level", build_wide, pool_cycles=20, cycle_seconds=2.4),
        Workload("proof-replay", build_replay, pool_cycles=8, cycle_seconds=2.3),
    )
}
