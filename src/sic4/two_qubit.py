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

import numpy as np

from .numerics import DEFAULT_TOL, _Record, cached_table, match_projective, rank1_kets, value_class_rows, value_classes
from .weyl_heisenberg import CONSTANTS, _upper_pairs, displacement_table

_SQRT2 = math.sqrt(2.0)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# _PAULI_PRODUCTS[a, b] = kron(sigma_a, sigma_b) with sigma_0 the identity,
# entry (2 i + k, 2 j + l) = sigma_a[i, j] sigma_b[k, l]
_PAULI_PRODUCTS = np.einsum("aij,bkl->abikjl", *[np.stack([np.eye(2), *PAULI])] * 2).reshape(4, 4, 4, 4)


class Gbv(_Record):
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


# gbv takes a matrix for a two-qubit state when it is Hermitian and of trace
# 1 within GBV_STATE_TOL; the 256 fiducials, in the product and the Bell
# basis, are Hermitian to 2.3e-16 and of trace 1 to 8.9e-16
GBV_STATE_TOL = 1e-9


def gbv(rho: np.ndarray) -> Gbv:
    """Pauli expansion coefficients of a two-qubit density matrix, or of an
    (N, 4, 4) stack of them."""
    rho = np.asarray(rho, dtype=complex)
    mats = rho.reshape(-1, 4, 4)
    herm = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)))
    if herm > GBV_STATE_TOL or np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - 1)) > GBV_STATE_TOL:
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


# the 256 assignments of the eight signs (a, b, alpha1-3, beta1-3), one per
# column, in itertools.product((1, -1), repeat=8) order
_SIGNS = 1 - 2 * (np.arange(256) >> np.arange(7, -1, -1)[:, None] & 1)
_SIGNS.flags.writeable = False


def _constraint(basis: str, class_id: int, signs):
    """The constraint value of a sign assignment (a, b, alpha1-3,
    beta1-3), elementwise over the columns of an (8, N) array."""
    a, b, a1, a2, a3, b1, b2, b3 = signs
    prod = a1 * a2 * a3 * b1 * b2 * b3
    if basis == "product":
        return a * b * prod if class_id == 1 else b * prod
    return a * b * prod if class_id == 1 else -a * b * prod


def _sign_functions(basis: str, class_id: int, signs) -> tuple:
    """(h1, h2, h3) of a sign assignment, elementwise over the columns of an
    (8, N) array."""
    a, b, a1, a2, a3, b1, b2, b3 = signs
    if basis == "product":
        if class_id == 1:
            return b * a2 * a3 * b3, a1 * a2 * a3, a * b * a1
        return a * b * a1 * b3, -a1 * a2 * a3, b * a1
    if class_id == 1:
        return -b * a1 * b1 * b2 * b3, -b1 * b2 * b3, a * b * b1
    return a * b * a1, -a * b1 * b2 * b3, b * b1


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


def _pattern_table(basis: str, class_id: int, constraint: int):
    """(GBV vectors (128, 15), signs (8, 128)) of the assignments with the
    given constraint value, in itertools.product order."""
    signs = _SIGNS[:, _constraint(basis, class_id, _SIGNS) == constraint]
    return _table_vector(basis, class_id, signs), signs


@cached_table
def sign_pattern_table(basis: str = "product") -> tuple:
    """The 256 constraint-satisfying sign assignments of a basis, class 1
    first, read-only: (GBV vectors (256, 15), and an int (256, 12) array
    whose rows are the class id, the eight signs and h1, h2, h3)."""
    tables = [_pattern_table(basis, class_id, 1) for class_id in (1, 2)]
    columns = np.concatenate(
        [
            np.column_stack([np.full(128, class_id), signs.T, *_sign_functions(basis, class_id, signs)])
            for class_id, (_, signs) in zip((1, 2), tables)
        ]
    )
    return np.concatenate([vectors for vectors, _ in tables]), columns


# a GBV reproduces a table row when every coefficient is within SIGN_MATCH_TOL;
# each of the 256 fiducials lies within 9.5e-16 of its row in both bases and
# at least 0.56 from every other row in some coefficient
SIGN_MATCH_TOL = 1e-7


def match_sign_patterns(g: Gbv, basis: str = "product", tol: float = SIGN_MATCH_TOL) -> np.ndarray:
    """For each GBV of a stack, the row of sign_pattern_table(basis)
    reproducing it within tol in every coefficient, or -1.  A GBV matching
    two rows indicates a degenerate table and raises ValueError.

    One GEMM of squared distances screens the rows: one within tol in every
    coefficient is within 15 tol^2, and the 1e-12 allowance covers the
    rounding of |f|^2 + |v|^2 - 2 f.v near a row of norm sqrt 3.  The exact
    coefficient test runs on the survivors only."""
    flat = g.flat().reshape(-1, 15)
    vectors = sign_pattern_table(basis)[0]
    sq = np.sum(flat**2, axis=1)[:, None] + np.sum(vectors**2, axis=1) - 2 * (flat @ vectors.T)
    i, j = np.nonzero(sq <= 15 * tol**2 + 1e-12)
    hit = np.max(np.abs(flat[i] - vectors[j]), axis=1) <= tol
    i, j = i[hit], j[hit]
    counts = np.bincount(i, minlength=len(flat))
    if counts.max(initial=0) > 1:
        raise ValueError("GBV matches %d sign patterns, table is degenerate" % counts.max())
    rows = np.full(len(flat), -1)
    rows[i] = j
    return rows


def sign_census(g: Gbv, basis: str) -> tuple:
    """The sign patterns of the 256 orbit states, from their Gbv in SIC
    order, 16 states each, as five values: the number of states matching a
    row of sign_pattern_table(basis); whether, where matched, SICs 1-8
    carry class-1 rows and SICs 9-16 class-2 rows; whether h1, h2, h3 are
    constant within each SIC; whether they also follow the label grid, h1
    by row and h2, h3 by column; and per matched state the row SIC label,
    state, the eight signs, h1, h2, h3."""
    row = match_sign_patterns(g, basis).reshape(16, 16)
    matched = row >= 0
    # per state: class id, the eight signs, h1, h2, h3 (meaningless where unmatched)
    columns = sign_pattern_table(basis)[1][row]
    first_eight = np.arange(1, 17)[:, None] <= 8
    class_split = bool(np.all(~matched | (first_eight == (columns[..., 0] == 1))))
    h = columns[..., 9:]
    h_sic = h[np.arange(16), matched.argmax(axis=1)]  # at each SIC's first matched state
    constant = bool(np.all(matched.any(axis=1) & np.all(~matched[..., None] | (h == h_sic[:, None]), axis=(1, 2))))
    # label 4 r + c + 1 sits in row r, column c of the label grid, labels 1..16 row-major in a 4 x 4 square
    h_grid = np.stack(np.broadcast_arrays([[-1], [1], [1], [-1]], [[1, 1, -1, -1]], [[-1, 1, 1, -1]]), axis=-1)
    lab, k = np.indices((16, 16))
    rows = np.column_stack([lab.ravel() + 1, k.ravel(), columns.reshape(256, 12)[:, 1:]])
    table = constant and np.array_equal(h_sic, h_grid.reshape(16, 3))
    return int(matched.sum()), class_split, constant, table, rows[matched.ravel()].tolist()


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


# concurrences are one value when they fall into one class at the gap
# CONCURRENCE_GAP (numerics.value_classes); in each orbit SIC, either
# basis, a value spreads over 4.5e-16 and two values lie 0.55 apart
CONCURRENCE_GAP = 1e-9


def concurrence_classes(states, basis: str) -> tuple:
    """The concurrence census of the 256 orbit states, given in product
    coordinates (physical_state of the orbit in basis) in SIC order, as
    three values: the number of states at sqrt(2/5) in the SICs of the
    equal class (SICs 1-8 in the product basis, 9-16 in the Bell basis);
    whether each other SIC splits 8 + 8 between sqrt((2 +- 2 sqrt G)/5);
    and per SIC label its classes, in order of first appearance, as their
    centers written to 9 decimals with their counts.  The closed forms lead
    the values, so classes 0, 1 and 2 are theirs.  All three are None when
    the values split into no classes at CONCURRENCE_GAP."""
    root = math.sqrt(CONSTANTS.G)
    forms = [math.sqrt(2 / 5), math.sqrt((2 + 2 * root) / 5), math.sqrt((2 - 2 * root) / 5)]
    equal_sics, split_sics = (slice(0, 8), slice(8, 16)) if basis == "product" else (slice(8, 16), slice(0, 8))
    try:
        conc = value_classes(np.concatenate([forms, concurrence(rank1_kets(states))]), CONCURRENCE_GAP)
    except ValueError:
        return None, None, None
    ids = conc.classes[3:].reshape(16, 16)
    census = np.count_nonzero(ids[:, :, None] == np.arange(len(conc.counts)), axis=1)  # (SIC, class) counts
    classes = {
        str(n): {str(float("%.9f" % conc.centers[c])): int(census[n - 1, c]) for c in dict.fromkeys(sic)}
        for n, sic in enumerate(ids.tolist(), start=1)
    }
    return int(np.count_nonzero(ids[equal_sics] == 0)), bool(np.all(census[split_sics, 1:3] == 8)), classes


def reduced_purity(bloch) -> np.ndarray:
    """tr(red^2) = (1 + |b|^2) / 2 of the single-qubit reduced state with
    Bloch vector b, over a (..., 3) array such as Gbv.s or Gbv.r."""
    return (1.0 + np.sum(np.asarray(bloch) ** 2, axis=-1)) / 2


def purity_dev(bloch, members) -> float:
    """The largest |mean reduced purity - 4/5| over the rows of an (S, n)
    index array into the (N, 3) Bloch vectors of N states: how far the
    sets, such as the 32 SICs of regrouping.sic_family, stray from the
    paper's average purity 0.8."""
    return np.max(np.abs(reduced_purity(bloch)[members].mean(axis=1) - 0.8))


class ReducedStateReport(_Record):
    bloch_points: np.ndarray  # (8, 3) distinct Bloch vectors
    multiplicities: tuple


# two reduced states are one when their Bloch vectors share a class at the
# gap REDUCED_POINT_TOL (numerics.value_classes); in the 16 orbit SICs, either
# qubit or basis, a point spreads over 2.6e-16 and two points lie 0.41 apart
REDUCED_POINT_TOL = 1e-8


def reduced_state_census(points):
    """Distinct single-qubit reduced states of a list of states, given by
    their (N, 3) Bloch vectors (Gbv.s for the first qubit, Gbv.r for the
    second), such as one SIC's 16, with their multiplicities; for an
    (S, N, 3) stack, the list of S reports.  The lists' points are split
    by one value_class_rows call at REDUCED_POINT_TOL, and each distinct
    point is represented by its first occurrence (detect_cube tests them for
    a cube); a list whose points split into no classes gets None."""
    stack = np.reshape(points, (-1,) + np.shape(points)[-2:])
    splits = value_class_rows(stack, REDUCED_POINT_TOL)
    reports = [s and ReducedStateReport(p[s.first], tuple(s.counts.tolist())) for p, s in zip(stack, splits)]
    return reports[0] if np.ndim(points) == 2 else reports


# eight points make a cube when their sorted distances, scaled by 1, sqrt 2
# and sqrt 3 (12, 12 and 4 of them), fall into one class at the gap
# CUBE_GAP_TOL (numerics.value_classes); on the 16 orbit SICs, either qubit
# or basis, a cube's scaled distances spread over 8.9e-16, every other
# set's over at least 0.31
CUBE_GAP_TOL = 1e-7


def detect_cube(points) -> tuple:
    """Cube test on distinct points: there must be eight, and their 28
    sorted pairwise distances, the first 12 divided by 1, the next 12 by
    sqrt 2 and the last 4 by sqrt 3, must form one class at CUBE_GAP_TOL.
    Returns (True, edge) for a cube, the edge being the shortest distance,
    else (False, None); for a list of S point arrays, the S flags and the S
    edges, the scaled distances of every eight points split by one
    value_class_rows call, and (None, None) for an entry None."""
    one = isinstance(points, np.ndarray) and points.ndim == 2
    sets = [points] if one else list(points)
    ok, edges = [None if p is None else False for p in sets], [None] * len(sets)
    eight = [k for k, p in enumerate(sets) if p is not None and len(p) == 8]
    i, j = _upper_pairs(8)
    cubes = np.array([sets[k] for k in eight]).reshape(-1, 8, 3)
    dists = np.sort(np.linalg.norm(cubes[:, i] - cubes[:, j], axis=2), axis=1)
    splits = value_class_rows(dists / np.sqrt(np.repeat([1, 2, 3], [12, 12, 4])), CUBE_GAP_TOL) if eight else []
    for k, split, edge in zip(eight, splits, dists[:, 0].tolist()):
        ok[k] = bool(split) and len(split.counts) == 1
        edges[k] = edge if ok[k] else None
    return (ok[0], edges[0]) if one else (ok, edges)


def cube_census(g: Gbv) -> tuple:
    """The reduced-state census of both qubits of each orbit SIC in one
    call, from the Gbv of the 256 orbit states in SIC order, and one
    detect_cube call on the SICs' second-qubit points, as four values:
    whether each qubit of each SIC has eight reduced states, each twice;
    how many of SICs 1-8 and of SICs 9-16 give a cube; and the largest
    |edge - 2/sqrt 5| of the SIC 1-8 cubes.  A count reads None when a SIC
    of its half cannot split, and so does the edge deviation with the
    first count."""
    reports = reduced_state_census(np.concatenate([g.s, g.r]).reshape(32, 16, 3))
    cube, edge = detect_cube([r and r.bloch_points for r in reports[16:]])
    multiplicity = all(r and len(r.bloch_points) == 8 and set(r.multiplicities) == {2} for r in reports)
    class1, class2 = (None if None in c else sum(c) for c in (cube[:8], cube[8:]))
    edges = [abs(e - 2 / math.sqrt(5)) for e in edge[:8] if e is not None]
    return multiplicity, class1, class2, None if class1 is None else max(edges, default=0.0)


def violating_signs() -> np.ndarray:
    """The 128 product-basis class-1 sign assignments excluded by the
    constraint, as the columns of an (8, 128) int array; each
    encodes a non-positive simplex operator."""
    return _pattern_table("product", 1, -1)[1]


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose on the second qubit, of one 4x4 operator or of a stack."""
    m = np.asarray(m, dtype=complex)
    return m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(m.shape)


def partial_transpose_simplex_checks(signs, orbit, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Certify constraint-violating product-basis class-1 sign assignments,
    the columns of an (8, N) int array such as violating_signs(), one flag
    per assignment: the operator Q each encodes is, within tol, Hermitian,
    trace 1, of least eigenvalue -C/2 = -1/sqrt 10 (Q is the partial
    transpose of a state of concurrence C = sqrt(2/5)) and a solution of the
    15 simplex equations tr(Q D_p Q D_p^dag) = 1/5, and its partial
    transpose is one of the 256 fiducials of orbit, an enumerate_orbit()
    result.  All assignments are checked in one pass."""
    signs = np.asarray(signs).reshape(8, -1)
    if np.any(_constraint("product", 1, signs) != -1):
        raise ValueError("assignment satisfies the sign constraint, nothing to check")
    vec = _table_vector("product", 1, signs)
    q = from_gbv(Gbv(r=vec[:, :3], s=vec[:, 3:6], C=vec[:, 6:].reshape(-1, 3, 3)))
    ok = np.max(np.abs(q - q.conj().transpose(0, 2, 1)), axis=(1, 2)) <= tol
    ok &= np.abs(np.trace(q, axis1=1, axis2=2) - 1) <= tol
    ok &= np.abs(np.linalg.eigvalsh(q)[:, 0] + math.sqrt(2 / 5) / 2) <= tol
    disp = displacement_table(4).reshape(16, 4, 4)[1:]
    # tr(Q D Q D^dag) = sum over i, l, j of (Q D)_il Q_lj conj(D_ij); one GEMM
    # takes Q D for every Q and all 15 D, as qd[p, i, k, l]
    qd = (q.reshape(-1, 4) @ disp.transpose(1, 0, 2).reshape(4, -1)).reshape(-1, 4, 15, 4)
    simplex = np.einsum("pikl,plj,kij->pk", qd, q, disp.conj())
    ok &= np.all(np.abs(simplex - 0.2) <= tol, axis=1)
    return ok & (match_projective(partial_transpose(q), orbit.projectors) >= 0)


def operator_schmidt_rank(m: np.ndarray) -> int:
    """Number of terms in the A (x) B expansion of a two-qubit operator."""
    r = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return int(np.linalg.matrix_rank(r))
