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

import numpy as np

from .numerics import DEFAULT_TOL, canonical_phase, commutator_phase, eig_hermitian
from .orbits import (
    MATCH_TOL,
    compose_permutations,
    element_arrays,
    permutation_order,
    state_action,
)
from .weyl_heisenberg import CONSTANTS, SicPovm, verify_sic

# eigenvalue of the 4-state sum paired with the phase i^k it tags
_SQ5 = math.sqrt(5.0)


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


def quad_signature(states, tol: float = DEFAULT_TOL) -> tuple:
    """Sorted eigenvalues of the sum of four states."""
    states = np.asarray(states, dtype=complex)
    if states.shape != (4, 4, 4):
        raise ValueError("expected exactly four 4x4 states")
    w = np.linalg.eigvalsh(states.sum(axis=0))
    return tuple(float(x) for x in w)


def _matches_reference(sig, tol: float = 1e-8) -> bool:
    ref = reference_signature()
    return all(abs(a - b) <= tol for a, b in zip(sig, ref))


def _phase_operator(m: np.ndarray, tol: float) -> np.ndarray:
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


def _state_permutation(gen: np.ndarray, states: np.ndarray, tol: float = MATCH_TOL):
    """Permutation of the state list under conjugation by a unitary."""
    index, ov = state_action(gen[None], [False], states, states)
    if ov.min() < 1.0 - tol:
        raise ValueError("conjugation does not preserve the state set")
    perm = index[0].tolist()
    if len(set(perm)) != len(states):
        raise ValueError("conjugation action is not a permutation")
    return perm


@dataclass
class ReconstructedGroup:
    z_gen: np.ndarray
    x_gen: np.ndarray
    elements: np.ndarray  # (16, 4, 4) phase-canonical representatives


def reconstruct_hw(sic: SicPovm, tol: float = DEFAULT_TOL) -> ReconstructedGroup:
    """Recover the order-16 projective covariance group of a SIC.

    The input only needs to pass verify_sic; no displacement indexing is
    assumed.  Returns clock/shift generators satisfying
    z x = omega x z exactly, and the 16 projective group elements.
    """
    if not verify_sic(sic.states, sic.d, tol).is_sic:
        raise ValueError("input does not certify as a SIC-POVM")
    states = sic.states

    zp = None
    for quad in itertools.combinations(range(16), 4):
        sig = quad_signature(states[list(quad)])
        if _matches_reference(sig):
            zp = _phase_operator(states[list(quad)].sum(axis=0), tol)
            break
    if zp is None:
        raise ValueError("no 4-subset realizes the reference signature")

    perm = _state_permutation(zp, states)
    orbits = []
    seen = set()
    for start in range(16):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        j = perm[start]
        while j != start:
            orbit.append(j)
            seen.add(j)
            j = perm[j]
        orbits.append(sorted(orbit))
    if sorted(map(len, orbits)) != [4, 4, 4, 4]:
        raise ValueError("clock generator does not split the SIC into four 4-orbits")
    orbits.sort()

    xp = None
    for pick in itertools.product(*orbits):
        sig = quad_signature(states[list(pick)])
        if _matches_reference(sig):
            xp = _phase_operator(states[list(pick)].sum(axis=0), tol)
            break
    if xp is None:
        raise ValueError("no cross-orbit selection realizes the reference signature")

    omega = 1j
    c = commutator_phase(zp, xp)
    if abs(c - omega) > 1e-8:
        xp = xp.conj().T
        c = commutator_phase(zp, xp)
    if abs(c - omega) > 1e-8:
        raise ValueError("generators do not satisfy the clock-shift commutation")

    _state_permutation(xp, states)  # covariance under the second generator

    elements = np.empty((16, 4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            elements[4 * a + b] = canonical_phase(
                np.linalg.matrix_power(xp, a) @ np.linalg.matrix_power(zp, b)
            )
    flat = elements.reshape(16, 16)
    gram = np.abs(flat.conj() @ flat.T)
    if np.max(gram - np.diag(np.diag(gram))) > 4.0 - 1e-6:
        raise AssertionError("generated group has fewer than 16 projective elements")
    return ReconstructedGroup(z_gen=zp, x_gen=xp, elements=elements)


def quad_signature_scan(sic: SicPovm, decimals: int = 8):
    """Signature census over all 1820 4-subsets of one SIC.

    Returns a dict mapping rounded signatures to the list of subsets, and
    the subsets matching the reference signature.
    """
    sigs = {}
    matching = []
    for quad in itertools.combinations(range(16), 4):
        sig = quad_signature(sic.states[list(quad)])
        key = tuple(round(x, decimals) for x in sig)
        sigs.setdefault(key, []).append(quad)
        if _matches_reference(sig):
            matching.append(quad)
    return sigs, matching


def _symmetry_permutations(states: np.ndarray) -> set:
    """Permutations of the states by the unitary Clifford elements that
    preserve them, each element first screened on where it sends state 0."""
    _, mats, anti = element_arrays(extended=False)
    _, ov = state_action(mats, anti, states[:1], states)
    keep = ov[:, 0] >= 1.0 - MATCH_TOL
    index, ov = state_action(mats[keep], anti[keep], states, states)
    matched = np.all(ov >= 1.0 - MATCH_TOL, axis=1)
    bijective = np.all(np.sort(index, axis=1) == np.arange(len(states)), axis=1)
    return {tuple(p) for p in index[matched & bijective].tolist()}


def uniqueness_check(sic: SicPovm, tol: float = DEFAULT_TOL) -> bool:
    """True iff the SIC's order-48 projective symmetry group contains
    exactly one order-16 subgroup.

    The certificate: a group of order 48 has order-16 subgroups exactly as
    Sylow 2-subgroups; if the elements of 2-power order number exactly 16
    and close under composition they form the unique one (two distinct
    Sylow subgroups would overflow that count).
    """
    if not verify_sic(sic.states, sic.d, tol).is_sic:
        raise ValueError("input does not certify as a SIC-POVM")
    perms = _symmetry_permutations(sic.states)
    if len(perms) != 48:
        raise ValueError("symmetry group inside the Clifford group has order %d, expected 48" % len(perms))

    two_power = {p for p in perms if permutation_order(p) in (1, 2, 4, 8, 16)}
    if len(two_power) != 16:
        return False
    return all(compose_permutations(a, b) in two_power for a in two_power for b in two_power)
