"""Symplectic parametrization of the (extended) Clifford group.

For even d the projective Clifford group is the image of the semidirect
product SL(2, Z_2d) x (Z_d)^2 under a homomorphism sending (F, chi) to a
unitary U with

    U D_p U^dag = omega^<chi, F p> D_(F p).

Antiunitary elements carry det F = -1 and factor through complex
conjugation.  The kernel of the map (for even d) is the eight pairs of
``kernel_pairs`` (Appleby, quant-ph/0412001), so the projective group is the
set of kernel cosets, decided in exact integer arithmetic; in dimension 4
that is 768 unitary elements and 1536 including the antiunitary coset.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .numerics import DEFAULT_TOL, GroupElement, _FrozenRecord, cached_table, conjugate
from .weyl_heisenberg import displacement, displacement_table, omega, symplectic_form, tau


class SymplecticPair(namedtuple("SymplecticPair", "F chi d")):
    """An element (F, chi) of ESL(2, Z_dbar) x (Z_d)^2.

    F is stored as a row-major 4-tuple (a, b, c, e) meaning [[a, b], [c, e]]
    with entries mod dbar (= 2d for even d, d for odd d); chi is a pair mod d.
    An immutable named tuple, equal and hashed by its reduced fields.
    """

    __slots__ = ()

    def __new__(cls, F, chi, d: int):
        db = 2 * d if d % 2 == 0 else d
        self = super().__new__(cls, tuple(x % db for x in F), tuple(x % d for x in chi), d)
        if len(self.F) != 4 or len(self.chi) != 2:
            raise ValueError("F must have 4 entries and chi 2")
        if self.det not in (1, db - 1):
            raise ValueError("det F must be +-1 mod %d, got %d" % (db, self.det))
        return self

    @property
    def dbar(self) -> int:
        return 2 * self.d if self.d % 2 == 0 else self.d

    @property
    def det(self) -> int:
        a, b, c, e = self.F
        return (a * e - b * c) % self.dbar

    @property
    def antiunitary(self) -> bool:
        return self.det == self.dbar - 1


def _compose(f, chi, g, psi, dbar: int, d: int) -> tuple:
    """The group law (F, chi) (G, psi) = (F G, chi + F psi) on components.

    F and G are 4-tuples, chi and psi pairs; entries are Python ints or
    numpy integer arrays (elementwise).  Returns (F G, chi + F psi) reduced
    mod (dbar, d).
    """
    a, b, c, e = f
    return (
        (
            (a * g[0] + b * g[2]) % dbar,
            (a * g[1] + b * g[3]) % dbar,
            (c * g[0] + e * g[2]) % dbar,
            (c * g[1] + e * g[3]) % dbar,
        ),
        ((chi[0] + a * psi[0] + b * psi[1]) % d, (chi[1] + c * psi[0] + e * psi[1]) % d),
    )


def semidirect_product(x: SymplecticPair, y: SymplecticPair) -> SymplecticPair:
    """(F1, chi1) (F2, chi2) = (F1 F2, chi1 + F1 chi2)."""
    if x.d != y.d:
        raise ValueError("mixed dimensions")
    f, chi = _compose(x.F, x.chi, y.F, y.chi, x.dbar, x.d)
    return SymplecticPair(f, chi, x.d)


@cached_table
def _gauss_tables(d: int) -> tuple:
    """dbar, units mod dbar, their inverses, tau^k / sqrt(d) and the (r, s) grids."""
    db = 2 * d if d % 2 == 0 else d
    unit = np.array([math.gcd(u, db) == 1 for u in range(db)])
    inv = np.array([pow(u, -1, db) if unit[u] else 0 for u in range(db)])
    return db, unit, inv, tau(d) ** np.arange(db) / math.sqrt(d), *np.indices((d, d))


def _operators(f, chi, d: int):
    """Matrices and antiunitarity flags representing stacked pairs.

    f is a (4, N) and chi a (2, N) integer array of pair components.  A
    pair with det F = -1 is represented by (F J, chi), J = diag(1, -1),
    followed by complex conjugation.  V_F is the Gauss sum of F when beta is
    invertible, else V_F1 V_F2 for F = F1 F2, F1 = [[0, -1], [1, x]] with the
    least admissible shift x; the matrix is D_chi V_F.
    """
    db, unit, inv, phases, r, s = _gauss_tables(d)
    alpha, beta, gamma, delta = np.asarray(f) % db
    anti = (alpha * delta - beta * gamma) % db == db - 1
    beta, delta = np.where(anti, -beta, beta) % db, np.where(anti, -delta, delta) % db
    direct = unit[beta]
    x = np.argmax(unit[(delta[:, None] + np.arange(db) * beta[:, None]) % db], axis=1)
    a = np.where(direct, alpha, gamma + x * alpha)[:, None, None]
    b = np.where(direct, beta, delta + x * beta)[:, None, None]
    e = np.where(direct, delta, -beta)[:, None, None]
    v = phases[inv[b % db] * (a * s * s - 2 * r * s + e * r * r) % db]
    v1 = phases[inv[db - 1] * (-2 * r * s + x[:, None, None] * r * r) % db]
    v = np.where(direct[:, None, None], v, v1 @ v)
    chi = np.asarray(chi) % d
    return displacement_table(d)[chi[0], chi[1]] @ v, anti


def to_operator(pair: SymplecticPair) -> GroupElement:
    """The unitary or antiunitary operator representing (F, chi)."""
    mats, anti = _operators(np.array(pair.F)[:, None], np.array(pair.chi)[:, None], pair.d)
    return GroupElement(mats[0], bool(anti[0]))


def conjugation_action(pair: SymplecticPair, p, *, u: GroupElement | None = None):
    """Phase exponent and image index of D_p under conjugation by (F, chi).

    Returns (e, q) with U D_p U^-1 = omega^e D_q, both reduced mod d.  The
    operator identity itself is exact only for the mod-2d representative of
    F p (for even d the displacement index has period 2d, and reduction mod
    d can cost a sign); it is verified in that form to DEFAULT_TOL, and a
    ValueError is raised on failure.  A caller conjugating by one pair many
    times passes its operator u = to_operator(pair), built once.
    """
    d = pair.d
    db = pair.dbar
    a, b, c, e_ = pair.F
    big = (a * p[0] + b * p[1], c * p[0] + e_ * p[1])
    qf = (big[0] % db, big[1] % db)
    e = symplectic_form(pair.chi, qf) % d
    u = to_operator(pair) if u is None else u
    dp = displacement_table(d)[p[0] % d, p[1] % d]
    lhs = conjugate(u, dp)
    rhs = omega(d) ** e * displacement(qf[0], qf[1], d)
    if np.max(np.abs(lhs - rhs)) > DEFAULT_TOL:
        raise ValueError("conjugation law violated for %r at p=%r" % (pair, p))
    return e, (big[0] % d, big[1] % d)


@cached_table
def kernel_pairs(d: int) -> tuple:
    """The eight (F, chi) pairs mapping to the projective identity (even d)."""
    if d % 2 != 0:
        raise ValueError("kernel enumeration implemented for even d only")
    out = []
    for r, s, t in itertools.product((0, 1), repeat=3):
        f = (1 + r * d, s * d, t * d, 1 + r * d)
        chi = ((s * d) // 2, (t * d) // 2)
        out.append(SymplecticPair(f, chi, d))
    return tuple(out)


def _sector(d: int, det: int) -> tuple:
    """(F, chi, flags) of one pair per kernel coset of the pairs with
    det F = det, the first pair met in enumeration order (F outer, chi
    inner).  A coset's pairs run once over a symplectic class F K (K the
    kernel's F-parts), so the first is (least F, chi): each class's least
    F, the F part of its coset key, with every chi."""
    a, b, c, e = f = np.indices((2 * d,) * 4).reshape(4, -1)
    f = f[:, (a * e - b * c) % (2 * d) == det % (2 * d)]  # every F of det F = det, in lexicographic order
    zero = np.zeros((2, f.shape[1]), dtype=int)
    least = f[:, _coset_keys(f, zero, d) // (d * d) == _pair_key(f, zero, d) // (d * d)]
    chi = np.indices((d, d)).reshape(2, -1).T
    anti = np.full(least.shape[1] * d * d, det % (2 * d) == 2 * d - 1)
    return np.repeat(least.T, d * d, axis=0), np.tile(chi, (least.shape[1], 1)), anti


class CliffordGroup(_FrozenRecord):
    """The enumerated projective Clifford group as aligned integer arrays,
    read-only as a cached table: row i is the coset representative
    (F, chi) = (f[i], chi[i]), with antiunitarity flag anti[i]."""

    f: np.ndarray  # (N, 4)
    chi: np.ndarray  # (N, 2)
    anti: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.anti)


@cached_table
def enumerate_projective_clifford(d: int, /, *, extended: bool) -> CliffordGroup:
    """All projectively distinct Clifford elements as one CliffordGroup.

    Keeps the first (F, chi) pair of each kernel coset of the chosen
    sector(s), one symplectic class at a time.  For d = 4 this yields 768
    unitary rows, then 768 antiunitary ones with extended=True.  The one
    accepted call form, (d, extended=...), keeps one cache entry per group.
    """
    if d != 4:
        raise ValueError("group enumeration is calibrated for d = 4")
    if not extended:
        return CliffordGroup(*_sector(d, 1))
    unitary = enumerate_projective_clifford(d, extended=False)
    parts = zip((unitary.f, unitary.chi, unitary.anti), _sector(d, 2 * d - 1))
    return CliffordGroup(*(np.concatenate(p) for p in parts))


def _pair_key(f, chi, d: int):
    """Dense integer index of reduced components (F mod 2d, chi mod d)."""
    db = 2 * d
    return (((f[0] * db + f[1]) * db + f[2]) * db + f[3]) * d * d + chi[0] * d + chi[1]


def _coset_keys(f, chi, d: int) -> np.ndarray:
    """Each pair's least _pair_key over the kernel: coset's name, in its
    order, for (4, N) f and (2, N) chi integer arrays; the arithmetic runs
    on contiguous int32 copies, where every key fits."""
    db = 2 * d
    f, chi = np.ascontiguousarray(f, dtype=np.int32), np.ascontiguousarray(chi, dtype=np.int32)
    return np.min([_pair_key(*_compose(f, chi, k.F, k.chi, db, d), d) for k in kernel_pairs(d)], axis=0)
