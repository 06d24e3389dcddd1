"""Rebuilding the displacement group from a bare SIC-POVM.

Sums of four SIC states connected by an order-4 displacement share a
characteristic eigenvalue signature; diagonalizing one such sum and
attaching the fourth roots of unity to its eigenkets in the right order
reproduces a clock-type generator, and repeating the trick across the
induced orbits produces a shift-type partner.  The pair generates the
covariance group of the SIC, independently of how the input states were
obtained.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import DEFAULT_TOL, canonical_phase, commutator_phase, eig_hermitian
from .orbits import projectively_distinct, sic_symmetries, state_permutations, two_power_subgroup
from .weyl_heisenberg import CONSTANTS, SicPovm, SicReport, shift_clock_products, verify_sic

# eigenvalue of the 4-state sum paired with the phase i^k it tags
_SQ5 = math.sqrt(5.0)

# a sum's sorted eigenvalues within SIGNATURE_TOL of the reference signature
# qualify; on the 32 SICs qualifying sums match to 1e-14 and every other
# signature is at least 0.09 away in some eigenvalue
SIGNATURE_TOL = 1e-8

# candidate 4-subsets whose signatures one batched eigvalsh takes at a time
# while reconstruct_hw looks for the first qualifying one; on SICs in random
# state order that one comes about 40 candidates in, on orbit SICs at once
QUAD_BLOCK = 16


def signature_values() -> tuple:
    """Closed-form sum eigenvalues indexed by their phase exponent k."""
    g = CONSTANTS.G
    lam0 = (2.0 + math.sqrt(2.0)) * g / _SQ5
    lam2 = (2.0 - math.sqrt(2.0)) * g / _SQ5
    lam1 = 2.0 / (_SQ5 * g) + math.sqrt(2.0 / (5.0 * g))
    lam3 = 2.0 / (_SQ5 * g) - math.sqrt(2.0 / (5.0 * g))
    return lam0, lam1, lam2, lam3


def reference_signature() -> tuple:
    """The qualifying signature as a sorted 4-tuple."""
    return tuple(sorted(signature_values()))


def signatures(states, quads: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the state sums of each row of a (Q, 4) index
    array, summed in row order."""
    m = states[quads[:, 0]]
    for k in range(1, 4):
        m += states[quads[:, k]]
    return np.linalg.eigvalsh(m)


def _matches_reference(sigs: np.ndarray) -> np.ndarray:
    """Which rows of a (Q, 4) signature stack qualify."""
    return np.all(np.abs(sigs - np.array(reference_signature())) <= SIGNATURE_TOL, axis=1)


@lru_cache(maxsize=None)
def _quad_index() -> np.ndarray:
    """The 1820 4-subsets of 16 states as a read-only (1820, 4) index array,
    in itertools.combinations order."""
    quads = np.array(list(itertools.combinations(range(16), 4)))
    quads.flags.writeable = False
    return quads


def _first_match(states: np.ndarray, candidates: np.ndarray):
    """The first row of a (Q, 4) candidate index array whose quad realizes
    the reference signature, or None; signatures are taken QUAD_BLOCK rows
    at a time."""
    for lo in range(0, len(candidates), QUAD_BLOCK):
        block = candidates[lo : lo + QUAD_BLOCK]
        hits = np.flatnonzero(_matches_reference(signatures(states, block)))
        if len(hits):
            return block[hits[0]].tolist()
    return None


def _phase_operator(m: np.ndarray) -> np.ndarray:
    """Attach i^k to the eigenket of the sum eigenvalue tagged k."""
    w, v = eig_hermitian(m, tol=1e-8)
    vals = signature_values()
    op = np.zeros((4, 4), dtype=complex)
    used = set()
    for idx in range(4):
        k = int(np.argmin([abs(w[idx] - lam) for lam in vals]))
        if abs(w[idx] - vals[k]) > 1e-6 or k in used:
            raise ValueError("sum eigenvalues do not realize the reference signature")
        used.add(k)
        ket = v[:, idx]
        if np.max(np.abs(m @ ket - w[idx] * ket)) > 1e-9:
            raise AssertionError("eigenpair residual exceeds tolerance")
        op += (1j**k) * np.outer(ket, ket.conj())
    return op


class NotASicError(ValueError):
    """The input of a reconstruction fails verify_sic; ``report`` is the
    failing SicReport."""

    def __init__(self, report: SicReport):
        super().__init__("input does not certify as a SIC-POVM")
        self.report = report


@dataclass
class ReconstructedGroup:
    z_gen: np.ndarray
    x_gen: np.ndarray
    elements: np.ndarray  # (16, 4, 4) phase-canonical representatives


def reconstruct_hw(sic: SicPovm, tol: float = DEFAULT_TOL) -> ReconstructedGroup:
    """Recover the order-16 projective covariance group of a SIC.

    The input only needs to pass verify_sic (NotASicError otherwise); no
    displacement indexing is assumed.  Returns clock/shift generators
    satisfying z x = omega x z exactly, and the 16 projective group elements.
    """
    report = verify_sic(sic.states, sic.d, tol)
    if not report.is_sic:
        raise NotASicError(report)
    states = sic.states

    quad = _first_match(states, _quad_index())
    if quad is None:
        raise ValueError("no 4-subset realizes the reference signature")
    zp = _phase_operator(states[quad].sum(axis=0))

    perm = state_permutations(zp[None], states)[0]
    powers = [np.arange(16)]
    for _ in range(4):
        powers.append(perm[powers[-1]])
    cycles = np.stack(powers[:4], axis=1)  # the clock orbit of each state
    if np.any(powers[4] != powers[0]) or np.any(cycles[:, 1:] == cycles[:, :1]):
        raise ValueError("clock generator does not split the SIC into four 4-orbits")
    orbits = [sorted(c) for c in cycles[cycles.min(axis=1) == np.arange(16)].tolist()]

    # one state from each clock orbit, in itertools.product order
    picks = np.stack(np.meshgrid(*orbits, indexing="ij"), axis=-1).reshape(-1, 4)
    pick = _first_match(states, picks)
    if pick is None:
        raise ValueError("no cross-orbit selection realizes the reference signature")
    xp = _phase_operator(states[pick].sum(axis=0))

    omega = 1j
    c = commutator_phase(zp, xp)
    if abs(c - omega) > 1e-8:
        xp = xp.conj().T
        c = commutator_phase(zp, xp)
    if abs(c - omega) > 1e-8:
        raise ValueError("generators do not satisfy the clock-shift commutation")

    state_permutations(xp[None], states)  # covariance under the second generator

    elements = np.array([canonical_phase(m) for m in shift_clock_products(xp, zp)])
    if not projectively_distinct(elements):
        raise AssertionError("generated group has fewer than 16 projective elements")
    return ReconstructedGroup(z_gen=zp, x_gen=xp, elements=elements)


def reference_quads(states) -> np.ndarray:
    """The (k, 4) rows of the 1820 4-subsets of 16 states, in
    itertools.combinations order, whose sums realize the reference
    signature."""
    index = _quad_index()
    return index[_matches_reference(signatures(states, index))]


def uniqueness_check(indices) -> bool:
    """True iff the order-48 projective symmetry group of a SIC of orbit
    states, given by their orbit indices and certified by the caller,
    contains exactly one order-16 subgroup.

    The certificate: a group of order 48 has order-16 subgroups exactly as
    Sylow 2-subgroups; if the elements of 2-power order number exactly 16
    and close under composition they form the unique one (two distinct
    Sylow subgroups would overflow that count).  The states of a SIC span
    the operators, so each symmetry permutes them differently.
    """
    perms = sic_symmetries(indices, extended=False)[1]
    if len(perms) != 48:
        raise ValueError("symmetry group inside the Clifford group has order %d, expected 48" % len(perms))
    return two_power_subgroup(perms)[1]
