"""Two-qubit structure of the d=4 fiducial family.

Splitting the four-dimensional space into two qubits (either through the
product basis e_{2j+k} = |j>|k> or through the Bell basis) exposes a rigid
sign-pattern structure in the Pauli expansion of every fiducial state:
eight +-1 factors subject to one constraint, a concurrence census that
distinguishes the first eight SICs from the last eight, and a regular
simplex of non-positive operators hiding behind the excluded sign choices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .weyl_heisenberg import CONSTANTS, displacement_table

_SQRT2 = math.sqrt(2.0)

# a simplex operator is non-PSD when its least eigenvalue is at or below
# NON_PSD_CUT: well clear of rounding noise (about 1e-16) on a PSD operator
# and of the -1/sqrt(10) that every violating pattern's operator has
NON_PSD_CUT = -1e-6

# a partial transpose is a fiducial when its overlap |tr(rho pt)| with some
# orbit projector reaches 1 - PT_MATCH_TOL; the matches reach 1 to 1e-15 and
# the next-best overlap is 0.76, the largest fidelity between two fiducials
PT_MATCH_TOL = 1e-8

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# _PAULI_PRODUCTS[a, b] = kron(sigma_a, sigma_b) with sigma_0 the identity
_PAULI_PRODUCTS = np.array(
    [[np.kron(sa, sb) for sb in (np.eye(2), *PAULI)] for sa in (np.eye(2), *PAULI)]
)


@dataclass
class Gbv:
    """Pauli expansion of one two-qubit state, or of a stack with the
    stack's leading axes on every field."""

    r: np.ndarray  # second-qubit Bloch components
    s: np.ndarray  # first-qubit Bloch components
    C: np.ndarray  # 3x3 correlation dyadic, rows follow s, columns follow r

    def flat(self) -> np.ndarray:
        """The 15 coefficients (r, s, C row-major) along the last axis."""
        return np.concatenate([self.r, self.s, self.C.reshape(self.C.shape[:-2] + (9,))], axis=-1)

    def norm_sq(self):
        return np.sum(self.flat() ** 2, axis=-1)


def gbv(rho: np.ndarray, tol: float = 1e-9) -> Gbv:
    """Pauli expansion coefficients of a two-qubit density matrix, or of an
    (N, 4, 4) stack of them."""
    rho = np.asarray(rho, dtype=complex)
    mats = rho.reshape(-1, 4, 4)
    herm = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)))
    if herm > tol or np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - 1)) > tol:
        raise ValueError("expected a Hermitian trace-1 matrix")
    coef = np.einsum("abij,nji->nab", _PAULI_PRODUCTS, mats).real
    if rho.ndim != 3:
        coef = coef[0]
    return Gbv(r=coef[..., 0, 1:], s=coef[..., 1:, 0], C=coef[..., 1:, 1:])


def from_gbv(g: Gbv) -> np.ndarray:
    """The density matrix (or stack) with the given Pauli expansion."""
    coef = np.ones(g.r.shape[:-1] + (4, 4))
    coef[..., 0, 1:], coef[..., 1:, 0], coef[..., 1:, 1:] = g.r, g.s, g.C
    return np.einsum("...ab,abij->...ij", coef, _PAULI_PRODUCTS) / 4.0


@dataclass(frozen=True)
class SignPattern:
    a: int
    b: int
    alpha1: int
    alpha2: int
    alpha3: int
    beta1: int
    beta2: int
    beta3: int
    class_id: int
    basis: str

    @property
    def signs(self) -> tuple:
        return (self.a, self.b, self.alpha1, self.alpha2, self.alpha3,
                self.beta1, self.beta2, self.beta3)

    def constraint_value(self) -> int:
        a, b, a1, a2, a3, b1, b2, b3 = self.signs
        prod = a1 * a2 * a3 * b1 * b2 * b3
        if self.basis == "product":
            return a * b * prod if self.class_id == 1 else b * prod
        return a * b * prod if self.class_id == 1 else -a * b * prod


@dataclass(frozen=True)
class SignFunctions:
    h1: int
    h2: int
    h3: int


def _table_vector(basis: str, class_id: int, signs) -> np.ndarray:
    """The 15 GBV coefficients of a sign assignment, or (N, 15) for (8, N) signs."""
    a, b, a1, a2, a3, b1, b2, b3 = np.asarray(signs)
    A = CONSTANTS.A
    Gpm = CONSTANTS.Gpm
    B = CONSTANTS.B
    if basis == "product" and class_id == 1:
        dab = np.where(a == b, 1.0, 0.0)
        damb = 1.0 - dab
        r = (b1 * A(b), b2 * A(-b), b3 * B)
        s = (a1 * B, a2 * A(a), a3 * A(-a))
        c = (
            (a1 * b1 * A(-b), a1 * b2 * A(b), a1 * b3 * B),
            (_SQRT2 * a * a2 * b1 * A(a) * dab, _SQRT2 * a * a2 * b2 * A(a) * damb, a2 * b3 * A(-a)),
            (-_SQRT2 * a * a3 * b1 * A(-a) * damb, -_SQRT2 * a * a3 * b2 * A(-a) * dab, a3 * b3 * A(a)),
        )
    elif basis == "product" and class_id == 2:
        em, ep = (1 - b) // 2, (1 + b) // 2
        r = (b1 * A(a), b2 * A(a), b3 * B)
        s = (a1 * B, a2 * A(a), a3 * A(a))
        c = (
            (a1 * b1 * A(-a), a1 * b2 * A(-a), a1 * b3 * B),
            (a**em * a2 * b1 * Gpm(-b), a**ep * a2 * b2 * Gpm(b), a2 * b3 * A(-a)),
            (a**ep * a3 * b1 * Gpm(b), a**em * a3 * b2 * Gpm(-b), a3 * b3 * A(-a)),
        )
    elif basis == "bell" and class_id == 1:
        dab = np.where(a == b, 1.0, 0.0)
        damb = 1.0 - dab
        r = (b1 * B, _SQRT2 * b2 * A(a) * dab, _SQRT2 * b3 * A(-a) * damb)
        s = (a1 * B, a2 * A(b), a3 * A(b))
        c = (
            (a1 * b1 * B, _SQRT2 * a1 * b2 * A(-a) * dab, _SQRT2 * a1 * b3 * A(a) * damb),
            (a2 * b1 * A(-b), b * a2 * b2 * A(a), b * a2 * b3 * A(-a)),
            (a3 * b1 * A(-b), a * a3 * b2 * A(a), -a * a3 * b3 * A(-a)),
        )
    elif basis == "bell" and class_id == 2:
        em, ep = (1 - b) // 2, (1 + b) // 2
        r = (b1 * B, b2 * Gpm(-b), b3 * Gpm(b))
        s = (a1 * B, a2 * A(-a), a3 * A(a))
        c = (
            (a1 * b1 * B, -b * a1 * b2 * Gpm(-b), b * a1 * b3 * Gpm(b)),
            (a2 * b1 * A(a), (-a) ** em * a2 * b2 * A(-a), (-a) ** ep * a2 * b3 * A(-a)),
            (a3 * b1 * A(-a), a**em * a3 * b2 * A(a), a**ep * a3 * b3 * A(a)),
        )
    else:
        raise ValueError("basis must be 'product' or 'bell', class_id 1 or 2")
    return np.stack([*r, *s, *itertools.chain(*c)], axis=-1)


@lru_cache(maxsize=8)
def _pattern_table(basis: str, class_id: int, constraint: int):
    """(vectors, sign tuples) for the 128 assignments with the given
    constraint value."""
    every = (SignPattern(*s, class_id=class_id, basis=basis) for s in itertools.product((1, -1), repeat=8))
    patterns = tuple(p for p in every if p.constraint_value() == constraint)
    return _table_vector(basis, class_id, np.array([p.signs for p in patterns]).T), patterns


@lru_cache(maxsize=2)
def sign_pattern_table(basis: str = "product") -> tuple:
    """The 256 constraint-satisfying sign assignments of a basis, class 1
    first: (GBV vectors (256, 15), SignPatterns, and an int (256, 12) array
    whose rows are the class id, the eight signs and h1, h2, h3)."""
    (v1, p1), (v2, p2) = (_pattern_table(basis, class_id, 1) for class_id in (1, 2))
    patterns = p1 + p2
    columns = np.array([(p.class_id, *p.signs, *vars(sign_functions(p)).values()) for p in patterns])
    columns.flags.writeable = False
    return np.concatenate([v1, v2]), patterns, columns


def match_sign_patterns(g: Gbv, basis: str = "product", tol: float = 1e-7) -> np.ndarray:
    """For each GBV of a stack, the row of sign_pattern_table(basis)
    reproducing it within tol in every coefficient, or -1.  A GBV matching
    two rows indicates a degenerate table and raises ValueError."""
    flat = g.flat().reshape(-1, 15)
    vectors = sign_pattern_table(basis)[0]
    dist = np.zeros((len(flat), len(vectors)))
    for k in range(15):  # Chebyshev distances, one coefficient at a time
        np.maximum(dist, np.abs(flat[:, k, None] - vectors[:, k]), out=dist)
    hits = dist <= tol
    counts = hits.sum(axis=1)
    if counts.max(initial=0) > 1:
        raise ValueError("GBV matches %d sign patterns, table is degenerate" % counts.max())
    return np.where(counts == 1, hits.argmax(axis=1), -1)


def sign_functions(p: SignPattern) -> SignFunctions:
    a, b, a1, a2, a3, b1, b2, b3 = p.signs
    if p.basis == "product":
        if p.class_id == 1:
            return SignFunctions(b * a2 * a3 * b3, a1 * a2 * a3, a * b * a1)
        return SignFunctions(a * b * a1 * b3, -a1 * a2 * a3, b * a1)
    if p.class_id == 1:
        return SignFunctions(-b * a1 * b1 * b2 * b3, -b1 * b2 * b3, a * b * b1)
    return SignFunctions(a * b * a1, -a * b1 * b2 * b3, b * b1)


def bell_basis_map() -> np.ndarray:
    """Unitary whose columns are the Bell kets in product coordinates."""
    s = 1.0 / _SQRT2
    return np.array(
        [
            [s, s, 0, 0],
            [0, 0, s, s],
            [0, 0, s, -s],
            [s, -s, 0, 0],
        ],
        dtype=complex,
    )


def physical_state(rho: np.ndarray, basis: str) -> np.ndarray:
    """Express a state of the abstract defining basis in product coordinates."""
    if basis == "product":
        return np.asarray(rho, dtype=complex)
    if basis == "bell":
        w = bell_basis_map()
        return w @ rho @ w.conj().T
    raise ValueError("basis must be 'product' or 'bell'")


def concurrence(psi: np.ndarray):
    """|psi^T (sigma_y x sigma_y) psi| of a unit ket, or of each ket of an
    (N, 4) stack."""
    psi = np.asarray(psi, dtype=complex)
    if np.max(np.abs(np.sum(np.abs(psi) ** 2, axis=-1) - 1.0)) > 1e-6:
        raise ValueError("ket must be normalized")
    return np.abs(np.sum((psi @ _PAULI_PRODUCTS[2, 2]) * psi, axis=-1))


def rounded_census(values, decimals: int = 9) -> dict:
    """{value rounded to decimals: count} over a 1-d array, keyed in order
    of first appearance."""
    keys, first, counts = np.unique(np.round(values, decimals), return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip(keys[order].tolist(), counts[order].tolist()))


def _bloch_vectors(states: np.ndarray, basis: str, qubit: int) -> np.ndarray:
    """Bloch vectors of one qubit's reduced states, for an (N, 4, 4) stack."""
    g = gbv(physical_state(states, basis))
    return g.s if qubit == 0 else g.r


def reduced_purity(states: np.ndarray, basis: str = "product", qubit: int = 0) -> np.ndarray:
    """tr(red^2) = (1 + |b|^2) / 2 of the reduced state, Bloch vector b, of
    each state of an (N, 4, 4) stack."""
    return (1.0 + np.sum(_bloch_vectors(states, basis, qubit) ** 2, axis=-1)) / 2


@dataclass
class ReducedStateReport:
    bloch_points: np.ndarray  # (8, 3) distinct Bloch vectors
    multiplicities: tuple
    is_cube: bool
    edge_length: float | None


def reduced_state_census(
    states: np.ndarray, qubit: int = 1, basis: str = "product", tol: float = 1e-8
) -> ReducedStateReport:
    """Distinct single-qubit reduced states of one SIC's (16, 4, 4) states
    and, when the eight Bloch points happen to be the vertices of a cube,
    its edge length.  Points within tol in every component are one; each
    distinct point is represented by its first occurrence."""
    points = _bloch_vectors(states, basis, qubit)
    close = np.max(np.abs(points[:, None] - points[None]), axis=2) <= tol
    first = close.argmax(axis=1)  # the earliest point each one coincides with
    reps = np.flatnonzero(first == np.arange(len(points)))
    distinct = points[reps]
    is_cube, edge = _detect_cube(distinct) if len(distinct) == 8 else (False, None)
    return ReducedStateReport(
        bloch_points=distinct,
        multiplicities=tuple(np.bincount(first)[reps].tolist()),
        is_cube=is_cube,
        edge_length=edge,
    )


def _detect_cube(points: np.ndarray, rel_tol: float = 1e-7):
    """Cube test on 8 points: pairwise distances must take exactly three
    values in ratio 1 : sqrt 2 : sqrt 3 with multiplicities 12, 12, 4."""
    i, j = np.triu_indices(8, 1)
    dists = np.sort(np.linalg.norm(points[i] - points[j], axis=1))
    starts = np.flatnonzero(np.diff(dists, prepend=-np.inf) > rel_tol)  # a new value begins
    if np.diff(np.append(starts, len(dists))).tolist() != [12, 12, 4]:
        return False, None
    edge, face, body = dists[starts].tolist()
    if abs(face - _SQRT2 * edge) > 1e-7 or abs(body - math.sqrt(3) * edge) > 1e-7:
        return False, None
    return True, edge


def violating_patterns() -> tuple:
    """The 128 product-basis class-1 sign assignments excluded by the
    constraint; each encodes a non-positive simplex operator."""
    _, patterns = _pattern_table("product", 1, -1)
    return patterns


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose on the second qubit, of one 4x4 operator or of a stack."""
    m = np.asarray(m, dtype=complex)
    return m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(m.shape)


def partial_transpose_simplex_checks(patterns, orbit=None, tol: float = 1e-9) -> np.ndarray:
    """Certify constraint-violating patterns, one flag per pattern: the
    operator Q each encodes is Hermitian, trace 1, not PSD, satisfies the 15
    simplex equations tr(Q D_p Q D_p^dag) = 1/5, and its partial transpose
    is one of the 256 fiducials.  All patterns are checked in one pass."""
    for p in patterns:
        if p.basis != "product" or p.class_id != 1:
            raise ValueError("expected a product-basis class-1 pattern")
        if p.constraint_value() != -1:
            raise ValueError("pattern satisfies the sign constraint, nothing to check")
    if orbit is None:
        from .orbits import enumerate_orbit

        orbit = enumerate_orbit()
    vec = _table_vector("product", 1, np.array([p.signs for p in patterns]).reshape(-1, 8).T)
    q = from_gbv(Gbv(r=vec[:, :3], s=vec[:, 3:6], C=vec[:, 6:].reshape(-1, 3, 3)))
    ok = np.max(np.abs(q - q.conj().transpose(0, 2, 1)), axis=(1, 2)) <= tol
    ok &= np.abs(np.trace(q, axis1=1, axis2=2) - 1) <= tol
    ok &= np.linalg.eigvalsh(q)[:, 0] <= NON_PSD_CUT
    disp = displacement_table(4).reshape(16, 4, 4)[1:]
    simplex = np.einsum("pij,kjl,plm,kim->pk", q, disp, q, disp.conj())
    ok &= np.all(np.abs(simplex - 0.2) <= tol, axis=1)
    # |tr(rho pt)| for every orbit projector rho and partial transpose pt
    fid = np.abs(orbit.projectors.reshape(256, 16).conj() @ partial_transpose(q).reshape(-1, 16).T)
    return ok & (np.max(fid, axis=0) >= 1.0 - PT_MATCH_TOL)


def operator_schmidt_rank(m: np.ndarray, tol: float = 1e-9) -> int:
    """Number of terms in the A (x) B expansion of a two-qubit operator."""
    r = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return int(np.sum(np.linalg.svd(r, compute_uv=False) > tol))
