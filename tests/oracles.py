"""Single-item forms of the library's stacked kernels.

The library certifies stacks in one pass; these one-at-a-time forms serve
the tests as independent oracles and as the acceptance suite's readable
per-item checks.
"""

import itertools

import numpy as np

from sic4.numerics import DEFAULT_TOL, GroupElement, canonical_phase, proj_equal, rank1_kets as state_ket
from sic4.orbits import LABEL_GRID, MATCH_TOL, enumerate_orbit, state_action
from sic4.regrouping import fidelity_adjacency
from sic4.two_qubit import (
    concurrence,
    match_sign_patterns,
    partial_transpose_simplex_checks,
    physical_state,
    reduced_purity,
    rounded_census,
    sign_pattern_table,
)


def sic_states(label: int) -> np.ndarray:
    """The (16, 4, 4) states of orbit SIC ``label``, 1..16: a row of the
    family's orbit half."""
    return enumerate_orbit().projectors[16 * (label - 1) : 16 * label]


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Composition a after b; conjugation flags multiply (xor)."""
    mb = b.matrix.conj() if a.antiunitary else b.matrix
    return GroupElement(a.matrix @ mb, a.antiunitary != b.antiunitary)


def elements_proj_equal(a: GroupElement, b: GroupElement, tol: float = DEFAULT_TOL) -> bool:
    return a.antiunitary == b.antiunitary and proj_equal(a.matrix, b.matrix, tol)


def canonical_key(m, decimals: int = 6) -> bytes:
    """Hashable fingerprint of a matrix modulo global phase."""
    c = canonical_phase(m)
    # +0.0 folds -0.0 into +0.0 so the byte representation is stable
    re = np.round(c.real, decimals) + 0.0
    im = np.round(c.imag, decimals) + 0.0
    return re.tobytes() + im.tobytes()


def match_sign_pattern(g, basis: str = "product", tol: float = 1e-7):
    """The unique constraint-satisfying table row reproducing one GBV, or
    None: match_sign_patterns for a stack of one."""
    row = int(match_sign_patterns(g, basis, tol)[0])
    return None if row < 0 else sign_pattern_table(basis)[1][row]


def partial_transpose_simplex_check(p, orbit=None, tol: float = 1e-9) -> bool:
    """partial_transpose_simplex_checks for one pattern."""
    return bool(partial_transpose_simplex_checks([p], orbit, tol)[0])


def concurrence_census(states, basis: str = "product", decimals: int = 9) -> dict:
    """Rounded concurrences of one SIC's states with their counts."""
    return rounded_census(concurrence(state_ket(physical_state(states, basis))), decimals)


def avg_reduced_purity(states, basis: str = "product", qubit: int = 0) -> float:
    return float(np.mean(reduced_purity(states, basis, qubit)))


def state_permutations_by_action(mats, states) -> np.ndarray:
    """orbits.state_permutations as it was: through the general state_action,
    which reads the kets of the states once as sources and once as targets."""
    index, ov = state_action(mats, np.zeros(len(mats), dtype=bool), states, states)
    hit = np.zeros(index.shape, dtype=bool)
    np.put_along_axis(hit, index, True, axis=1)  # every state is an image
    if ov.min() < 1.0 - MATCH_TOL or not hit.all():
        raise ValueError("conjugation does not permute the state set")
    return index


def h_orbits(sic_label: int) -> list:
    """The four blocks of one SIC under the translations by (0, 0), (2, 0),
    (0, 2), (2, 2), which implement conjugation by I, X^2, Z^2, X^2 Z^2; each
    block is a sorted tuple of orbit indices."""
    base = (sic_label - 1) * 16
    return [
        tuple(sorted(base + 4 * ((p1 + a) % 4) + ((p2 + b) % 4) for a, b in ((0, 0), (2, 0), (0, 2), (2, 2))))
        for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]


def regroup_by_search(orbit) -> tuple:
    """The regrouped family by a per-block search: each block of a row's
    first SIC, with the one block of each other SIC of the row at uniform
    cross-fidelity 1/5.  Returns (matching, states): the four blocks of each
    new SIC and its states in sorted index order, rows in grid order."""
    matching, states = [], []
    for row in LABEL_GRID:
        blocks = {lab: h_orbits(lab) for lab in row}
        for seed in blocks[row[0]]:
            chosen = [seed]
            for lab in row[1:]:
                hits = [b for b in blocks[lab] if fidelity_adjacency(orbit, seed + b)[:4, 4:].all()]
                if len(hits) != 1:
                    raise ValueError("block %r has %d partners in SIC %d" % (seed, len(hits), lab))
                chosen.append(hits[0])
            matching.append(chosen)
            states.append(orbit.projectors[sorted(itertools.chain.from_iterable(chosen))])
    return matching, states
