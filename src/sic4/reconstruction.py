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

import math

import numpy as np

from .numerics import COMMUTATOR_TOL, _Record, cached_table, canonical_phase, commutator_phase, projectively_distinct
from .numerics import rank1_kets
from .orbits import ket_permutations, sic_symmetries, sylow_two_subgroup
from .weyl_heisenberg import CONSTANTS, shift_clock_products

# eigenvalue of the 4-state sum paired with the phase i^k it tags
_SQ5 = math.sqrt(5.0)

# a sum's sorted eigenvalues within SIGNATURE_TOL of the reference signature
# qualify; on the 32 SICs qualifying sums match to 1e-14 and every other
# signature is at least 0.09 away in some eigenvalue
SIGNATURE_TOL = 1e-8

# (SIC, candidate 4-subset) sums screened at a time while reconstruct_hw
# looks for each SIC's first qualifying subset.  On the 192 SIC files of
# perfbench seeds 7 and 8, in random state order, it lies at median 37, p90
# 76 and max 90 of the 1820 in itertools.combinations order, so one block
# of 48 rows resolves a median file and two every one; on orbit SICs it is
# the first, so the 32 SICs of the family screen two rows each, not 48
QUAD_BLOCK = 48

# largest eigenpair residual of the phase-operator step; on the 32 SICs and
# on Haar-conjugated, state-shuffled copies residuals stay below 3.2e-15
RESIDUAL_TOL = 1e-9


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


# as a read-only array, for the per-candidate comparisons
_REFERENCE = np.array(reference_signature())
_REFERENCE.flags.writeable = False

# a sum m of four rank-1 states has tr(m^3) = tr(G^3) for the 4 x 4 Gram
# block G of their kets, the sum of its cubed eigenvalues.  A sum within
# SIGNATURE_TOL of the signature in every eigenvalue has it within
# 12 (max(lambda) + SIGNATURE_TOL)^2 SIGNATURE_TOL, about 6.1e-7, of the
# reference, so the screen drops no qualifying sum.  On the 32 SICs and
# Haar-conjugated, state-shuffled copies qualifying sums lie within 6.4e-14
# of the reference trace and every other 4-subset at least 0.019 away
CUBE_TRACE_TOL = 12 * (_REFERENCE[-1] + SIGNATURE_TOL) ** 2 * SIGNATURE_TOL
_REFERENCE_CUBE = float(np.sum(_REFERENCE**3))


def _sums(states, quads: np.ndarray) -> np.ndarray:
    """The state sums of the rows of a (Q, 4) index array, summed in row
    order; for an (S, 16, d, d) stack of states, of each SIC's own rows of
    an (S, Q, 4) array."""
    lead = (np.arange(len(quads))[:, None],) if quads.ndim == 3 else ()
    m = states[lead + (quads[..., 0],)]
    for k in range(1, 4):
        m += states[lead + (quads[..., k],)]
    return m


def signatures(states, quads: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the Hermitian parts of the state sums of each
    row of a (Q, 4) index array, summed in row order; for an (S, 16, d, d)
    stack of states, of each SIC's own rows of an (S, Q, 4) array."""
    return np.linalg.eigvalsh(_hermitian_part(_sums(states, quads)))


def _matches_reference(sigs: np.ndarray) -> np.ndarray:
    """Which rows of a (..., 4) signature stack qualify."""
    return np.all(np.abs(sigs - _REFERENCE) <= SIGNATURE_TOL, axis=-1)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of each sum of a (..., 4, 4) stack: the operator whose
    eigenvalues the screen and the phase operators read."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _qualifying(m: np.ndarray) -> np.ndarray:
    """Which sums of a (..., 4, 4) stack realize the reference signature:
    those passing the tr(m^3) screen, then _matches_reference on the
    eigenvalues of their Hermitian parts."""
    cube = np.sum(m @ m * m.swapaxes(-1, -2), axis=(-2, -1)).real
    ok = np.abs(cube - _REFERENCE_CUBE) <= CUBE_TRACE_TOL
    ok[ok] = _matches_reference(np.linalg.eigvalsh(_hermitian_part(m[ok])))
    return ok


@cached_table
def _quad_index() -> np.ndarray:
    """The 1820 4-subsets of 16 states as a read-only (1820, 4) index array,
    in itertools.combinations order: the ascending index quadruples, in
    row-major order."""
    a, b, c, e = np.ogrid[:16, :16, :16, :16]
    return np.stack(np.nonzero((a < b) & (b < c) & (c < e)), axis=1)


# the 256 ways to pick one state from each of four clock orbits, by position
# in the orbit, in itertools.product order
_ORBIT_PICKS = np.indices((4,) * 4).reshape(4, -1).T
_ORBIT_PICKS.flags.writeable = False

# the phases i^k of the tags k of signature_values, in ascending order of
# their eigenvalues: a sum realizing the signature gives i^k to eigh's k-th
# eigenket
_PHASES = np.array([1, 1j, -1, -1j])[np.argsort(signature_values())]
_PHASES.flags.writeable = False


def _first_match(states: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """For each SIC of an (S, 16, d, d) stack, the state sum of the first
    row of its (S, Q, 4) candidate index array, or of one (Q, 4) for all,
    that realizes the reference signature; ValueError when a SIC has none.
    Each block tries the next ceil(QUAD_BLOCK / U) rows of the U unresolved SICs."""
    candidates = np.broadcast_to(candidates, states.shape[:1] + candidates.shape[-2:])
    found = np.empty((len(states), 4), dtype=candidates.dtype)
    todo, lo = np.arange(len(states)), 0
    while lo < candidates.shape[1]:
        block = candidates[todo, lo : lo - (-QUAD_BLOCK // len(todo))]
        hits = _qualifying(_sums(states[todo], block))
        hit = hits.any(axis=1)
        found[todo[hit]] = block[hit, hits[hit].argmax(axis=1)]
        todo, lo = todo[~hit], lo + block.shape[1]
        if not len(todo):
            return states[np.arange(len(states))[:, None], found].sum(axis=1)
    raise ValueError("no candidate 4-subset realizes the reference signature")


def phase_operator(m: np.ndarray) -> np.ndarray:
    """Attach i^k to the eigenket of the sum eigenvalue tagged k, for one
    4 x 4 sum or for each of an (S, 4, 4) stack: the sum of i^k v v^dag
    over the eigenpairs of the Hermitian part (m + m^dag) / 2, as one
    product.  The phase of each eigenket cancels in v v^dag, so eigh's
    eigenkets are used as they come."""
    h = _hermitian_part(m)
    w, v = np.linalg.eigh(h)
    if not np.all(_matches_reference(w)):
        raise ValueError("sum eigenvalues do not realize the reference signature")
    if np.max(np.abs(h @ v - v * w[..., None, :])) > RESIDUAL_TOL:
        raise AssertionError("eigenpair residual exceeds tolerance")
    return (v * _PHASES) @ v.conj().swapaxes(-1, -2)


class ReconstructedGroup(_Record):
    z_gen: np.ndarray
    x_gen: np.ndarray
    elements: np.ndarray  # (16, 4, 4) phase-canonical representatives, (S, 16, 4, 4) for S SICs


def reconstruct_hw(states) -> ReconstructedGroup:
    """Recover the order-16 projective covariance group of a SIC given by
    its (16, 4, 4) states, or of each of an (S, 16, 4, 4) stack in one pass.

    The caller certifies the states with verify_sic; no displacement
    indexing is assumed.  Returns clock/shift generators satisfying
    z x = omega x z exactly and the 16 projective group elements, with a
    leading axis of S for a stack.
    """
    single = np.ndim(states) == 3
    states = np.asarray(states, dtype=complex).reshape(-1, 16, 4, 4)
    zp = phase_operator(_first_match(states, _quad_index()))

    kets = rank1_kets(states)  # read once, for both generators' permutations
    perm = ket_permutations(zp, kets)
    rows = np.arange(len(perm))[:, None]
    square = perm[rows, perm]
    cube = perm[rows, square]
    cycles = np.stack([np.broadcast_to(np.arange(16), perm.shape), perm, square, cube], axis=-1)  # each state's clock orbit
    if np.any(perm[rows, cube] != np.arange(16)) or np.any(cycles[..., 1:] == cycles[..., :1]):
        raise ValueError("clock generator does not split the SIC into four 4-orbits")
    orbits = np.sort(cycles[cycles.min(axis=-1) == np.arange(16)], axis=-1).reshape(-1, 4, 4)

    picks = orbits[:, np.arange(4), _ORBIT_PICKS]
    xp = phase_operator(_first_match(states, picks))
    flip = np.abs(commutator_phase(zp, xp) - 1j) > COMMUTATOR_TOL
    xp[flip] = xp[flip].conj().swapaxes(-1, -2)
    if np.any(np.abs(commutator_phase(zp, xp) - 1j) > COMMUTATOR_TOL):
        raise ValueError("generators do not satisfy the clock-shift commutation")

    ket_permutations(xp, kets)  # covariance under the second generator

    elements = canonical_phase(shift_clock_products(xp, zp).reshape(-1, 4, 4)).reshape(-1, 16, 4, 4)
    if not projectively_distinct(elements):
        raise AssertionError("generated group has fewer than 16 projective elements")
    if single:
        return ReconstructedGroup(zp[0], xp[0], elements[0])
    return ReconstructedGroup(zp, xp, elements)


def reference_quads(states) -> np.ndarray:
    """The (k, 4) rows of the 1820 4-subsets of 16 states, in
    itertools.combinations order, whose sums realize the reference
    signature."""
    index = _quad_index()
    return index[_qualifying(_sums(states, index))]


def uniqueness_check(indices):
    """Whether the projective symmetry group of a SIC of orbit states,
    given by their (16,) orbit indices and certified by the caller, has
    order 48 and exactly one order-16 subgroup; for an (S, 16) stack, the
    (S,) verdicts of one sic_symmetries / sylow_two_subgroup pass over the
    element rows of the groups.

    The certificate: a group of order 48 has order-16 subgroups exactly as
    Sylow 2-subgroups; if the elements of 2-power order number exactly 16
    and close under composition they form the unique one (two distinct
    Sylow subgroups would overflow that count).  A SIC whose group has
    another order fails.
    """
    indices = np.asarray(indices)
    stack = indices.reshape(-1, 16)
    pairs = sic_symmetries(stack, extended=False)
    order48 = np.bincount(pairs[:, 0], minlength=len(stack)) == 48
    verdict = np.zeros(len(stack), dtype=bool)
    verdict[order48] = sylow_two_subgroup(pairs[order48[pairs[:, 0]], 1].reshape(-1, 48))[0]
    return verdict if indices.ndim == 2 else bool(verdict[0])
