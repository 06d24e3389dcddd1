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

from .weyl_heisenberg import CONSTANTS, SicPovm, displacement_table

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
    r: np.ndarray  # second-qubit Bloch components
    s: np.ndarray  # first-qubit Bloch components
    C: np.ndarray  # 3x3 correlation dyadic, rows follow s, columns follow r

    def flat(self) -> np.ndarray:
        return np.concatenate([self.r, self.s, self.C.ravel()])

    def norm_sq(self) -> float:
        return float(self.r @ self.r + self.s @ self.s + np.sum(self.C * self.C))


def gbv(rho: np.ndarray, tol: float = 1e-9) -> Gbv:
    """Pauli expansion coefficients of a two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2, 2, 2):
        rho = rho.reshape(2, 2, 2, 2)
    mat = rho.reshape(4, 4)
    if np.max(np.abs(mat - mat.conj().T)) > tol or abs(np.trace(mat) - 1) > tol:
        raise ValueError("expected a Hermitian trace-1 matrix")
    coef = np.einsum("abij,ji->ab", _PAULI_PRODUCTS, mat).real
    return Gbv(r=coef[0, 1:].copy(), s=coef[1:, 0].copy(), C=coef[1:, 1:].copy())


def from_gbv(g: Gbv) -> np.ndarray:
    coef = np.block([[1.0, g.r], [g.s[:, None], g.C]])
    return np.einsum("ab,abij->ij", coef, _PAULI_PRODUCTS) / 4.0


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
    a, b, a1, a2, a3, b1, b2, b3 = signs
    A = CONSTANTS.A
    Gpm = CONSTANTS.Gpm
    B = CONSTANTS.B
    if basis == "product" and class_id == 1:
        dab = 1.0 if a == b else 0.0
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
        dab = 1.0 if a == b else 0.0
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
    return np.concatenate([np.array(r), np.array(s), np.array(c).ravel()])


@lru_cache(maxsize=8)
def _pattern_table(basis: str, class_id: int, constraint: int):
    """(vectors, sign tuples) for the 128 assignments with the given
    constraint value."""
    vectors, patterns = [], []
    for signs in itertools.product((1, -1), repeat=8):
        p = SignPattern(*signs, class_id=class_id, basis=basis)
        if p.constraint_value() != constraint:
            continue
        vectors.append(_table_vector(basis, class_id, signs))
        patterns.append(p)
    return np.stack(vectors), tuple(patterns)


def match_sign_pattern(g: Gbv, basis: str = "product", tol: float = 1e-7):
    """The unique constraint-satisfying table row reproducing this GBV,
    or None.  Multiple matches indicate a degenerate table and fail."""
    flat = g.flat()
    hits = []
    for class_id in (1, 2):
        vectors, patterns = _pattern_table(basis, class_id, 1)
        idx = np.flatnonzero(np.max(np.abs(vectors - flat), axis=1) <= tol)
        hits.extend(patterns[i] for i in idx)
    if not hits:
        return None
    if len(hits) > 1:
        raise ValueError("GBV matches %d sign patterns, table is degenerate" % len(hits))
    return hits[0]


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


def state_ket(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    if abs(w[-1] - 1.0) > 1e-6:
        raise ValueError("expected a rank-1 projector")
    return v[:, -1]


def concurrence(psi: np.ndarray) -> float:
    psi = np.asarray(psi, dtype=complex).ravel()
    if abs(psi @ psi.conj() - 1.0) > 1e-6:
        raise ValueError("ket must be normalized")
    return float(abs(psi @ _PAULI_PRODUCTS[2, 2] @ psi))


def concurrence_census(sic: SicPovm, basis: str = "product", decimals: int = 9) -> dict:
    hist: dict = {}
    for rho in sic.states:
        c = concurrence(state_ket(physical_state(rho, basis)))
        key = round(c, decimals)
        hist[key] = hist.get(key, 0) + 1
    return hist


def _reduce(rho: np.ndarray, qubit: int) -> np.ndarray:
    t = rho.reshape(2, 2, 2, 2)
    # indices: (first_out, second_out, first_in, second_in)
    return np.trace(t, axis1=1, axis2=3) if qubit == 0 else np.trace(t, axis1=0, axis2=2)


def avg_reduced_purity(sic: SicPovm, basis: str = "product", qubit: int = 0) -> float:
    total = 0.0
    for rho in sic.states:
        red = _reduce(physical_state(rho, basis), qubit)
        total += float(np.real(np.trace(red @ red)))
    return total / len(sic.states)


@dataclass
class ReducedStateReport:
    bloch_points: np.ndarray  # (8, 3) distinct Bloch vectors
    multiplicities: tuple
    is_cube: bool
    edge_length: float | None


def _bloch(red: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.trace(sj @ red)) for sj in PAULI])


def reduced_state_census(
    sic: SicPovm, qubit: int = 1, basis: str = "product", tol: float = 1e-8
) -> ReducedStateReport:
    """Distinct single-qubit reduced states of one SIC and, when the eight
    Bloch points happen to be the vertices of a cube, its edge length."""
    points = [_bloch(_reduce(physical_state(rho, basis), qubit)) for rho in sic.states]
    distinct: list = []
    counts: list = []
    for p in points:
        for i, q in enumerate(distinct):
            if np.max(np.abs(p - q)) <= tol:
                counts[i] += 1
                break
        else:
            distinct.append(p)
            counts.append(1)
    is_cube, edge = _detect_cube(np.array(distinct)) if len(distinct) == 8 else (False, None)
    return ReducedStateReport(
        bloch_points=np.array(distinct),
        multiplicities=tuple(counts),
        is_cube=is_cube,
        edge_length=edge,
    )


def _detect_cube(points: np.ndarray, rel_tol: float = 1e-7):
    """Cube test on 8 points: pairwise distances must take exactly three
    values in ratio 1 : sqrt 2 : sqrt 3 with multiplicities 12, 12, 4."""
    dists = sorted(
        float(np.linalg.norm(points[i] - points[j]))
        for i, j in itertools.combinations(range(8), 2)
    )
    groups: list = []
    for x in dists:
        if groups and abs(x - groups[-1][0]) <= rel_tol:
            groups[-1][1] += 1
        else:
            groups.append([x, 1])
    if len(groups) != 3 or [g[1] for g in groups] != [12, 12, 4]:
        return False, None
    edge = groups[0][0]
    if abs(groups[1][0] - _SQRT2 * edge) > 1e-7 or abs(groups[2][0] - math.sqrt(3) * edge) > 1e-7:
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
    vec = np.array([_table_vector("product", 1, p.signs) for p in patterns]).reshape(-1, 15)
    coef = np.ones((len(vec), 4, 4))  # the from_gbv layout [[1, r], [s, C]]
    coef[:, 0, 1:], coef[:, 1:, 0] = vec[:, :3], vec[:, 3:6]
    coef[:, 1:, 1:] = vec[:, 6:].reshape(-1, 3, 3)
    q = np.einsum("pab,abij->pij", coef, _PAULI_PRODUCTS) / 4.0
    ok = np.max(np.abs(q - q.conj().transpose(0, 2, 1)), axis=(1, 2)) <= tol
    ok &= np.abs(np.trace(q, axis1=1, axis2=2) - 1) <= tol
    ok &= np.linalg.eigvalsh(q)[:, 0] <= NON_PSD_CUT
    disp = displacement_table(4).reshape(16, 4, 4)[1:]
    simplex = np.einsum("pij,kjl,plm,kim->pk", q, disp, q, disp.conj())
    ok &= np.all(np.abs(simplex - 0.2) <= tol, axis=1)
    # |tr(rho pt)| for every orbit projector rho and partial transpose pt
    fid = np.abs(orbit.projectors.reshape(256, 16).conj() @ partial_transpose(q).reshape(-1, 16).T)
    return ok & (np.max(fid, axis=0) >= 1.0 - PT_MATCH_TOL)


def partial_transpose_simplex_check(p: SignPattern, orbit=None, tol: float = 1e-9) -> bool:
    """partial_transpose_simplex_checks for one pattern."""
    return bool(partial_transpose_simplex_checks([p], orbit, tol)[0])


def operator_schmidt_rank(m: np.ndarray, tol: float = 1e-9) -> int:
    """Number of terms in the A (x) B expansion of a two-qubit operator."""
    r = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return int(np.sum(np.linalg.svd(r, compute_uv=False) > tol))
