"""Weyl-Heisenberg displacement operators and SIC-POVM construction.

The displacement operators are built from the cyclic shift X and the clock
phase Z,

    D_(p1,p2) = tau^(p1 p2) X^p1 Z^p2,    tau = -exp(i pi / d),

and a SIC-POVM in dimension d is the orbit of a fiducial projector under all
d^2 displacements, subnormalized by 1/d.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DEFAULT_TOL, _FrozenRecord, _Record, cached_table


def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def tau(d: int) -> complex:
    return -np.exp(1j * np.pi / d)


def displacement(p1, p2, d: int) -> np.ndarray:
    """Displacement operator D_(p1,p2) in dimension d; for integer arrays
    p1, p2, the (..., d, d) stack of the operators at their elements.

    The indices may be arbitrary integers: D_p = tau^(p1 p2 - r1 r2) D_r
    for r = p mod d, so for even d the operator picks up a sign under index
    shifts by d (period 2d), while reduced indices 0 <= p < d give the
    standard d^2 operators of displacement_table.  The exponent is a
    multiple of d and tau^d = (-1)^(d+1), so the factor is the exact
    integer (-1)^(d+1) where the exponent is d mod 2d, else 1.
    """
    if d < 2:  # ahead of np.mod, which warns at d = 0
        raise ValueError("dimension must be at least 2")
    r1, r2 = np.mod(p1, d), np.mod(p2, d)
    sign = np.where((np.multiply(p1, p2) - r1 * r2) % (2 * d) == d, (-1) ** (d + 1), 1)
    return sign[..., None, None] * displacement_table(d)[r1, r2]


@cached_table
def displacement_table(d: int) -> np.ndarray:
    """All d^2 displacements D_(a,b) = tau^(a b) X^a Z^b, 0 <= a, b < d, as a
    read-only array indexed by [a, b]: X the cyclic shift, Z the clock."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(omega(d) ** np.arange(d))
    a, b = np.indices((d, d))
    return (tau(d) ** (a * b % (2 * d)))[..., None, None] * shift_clock_products(x, z).reshape(d, d, d, d)


def shift_clock_products(x, z) -> np.ndarray:
    """x^a z^b at index d a + b, 0 <= a, b < d, for d x d matrices x, z; for
    (S, d, d) stacks, an (S, d * d, d, d) array of each pair's products."""
    d = np.shape(x)[-1]
    xs, zs = (np.empty(np.shape(m)[:-2] + (d, d, d), dtype=complex) for m in (x, z))
    for powers, m in ((xs, x), (zs, z)):
        powers[..., 0, :, :] = np.eye(d)
        powers[..., 1, :, :] = m
        for k in range(2, d):  # m^3 = (m m) m, as np.linalg.matrix_power takes it
            powers[..., k, :, :] = powers[..., k - 1, :, :] @ m
    return (xs[..., :, None, :, :] @ zs[..., None, :, :, :]).reshape(np.shape(x)[:-2] + (d * d, d, d))


def symplectic_form(p, q) -> int:
    """<p, q> = p2 q1 - p1 q2."""
    return p[1] * q[0] - p[0] * q[1]


def weyl_commutation_check(d: int, tol: float = DEFAULT_TOL) -> bool:
    """Check D_p D_q = tau^<p,q> D_(p+q) over all index pairs.

    The sum p+q is fed to displacement unreduced, which fixes the sign
    convention for even d.  All d^4 products are taken in one batch.
    """
    tbl = displacement_table(d)
    p = np.indices((d, d)).reshape(2, d * d, 1)
    q = p.reshape(2, 1, d * d)
    rhs = (tau(d) ** (symplectic_form(p, q) % (2 * d)))[:, :, None, None] * displacement(*(p + q), d)
    lhs = tbl.reshape(d * d, 1, d, d) @ tbl.reshape(1, d * d, d, d)
    return bool(np.max(np.abs(lhs - rhs)) <= tol)


class SicConstants(_FrozenRecord):
    """Closed-form constants appearing throughout the d = 4 analysis."""

    G = (math.sqrt(5.0) - 1.0) / 2.0

    @property
    def B(self) -> float:
        return 1.0 / math.sqrt(5.0)

    @property
    def A_plus(self) -> float:
        return math.sqrt(1.0 + math.sqrt(self.G)) / math.sqrt(5.0)

    @property
    def A_minus(self) -> float:
        return math.sqrt(1.0 - math.sqrt(self.G)) / math.sqrt(5.0)

    @property
    def G_plus(self) -> float:
        return math.sqrt(1.0 + self.G) / math.sqrt(5.0)

    @property
    def G_minus(self) -> float:
        return math.sqrt(1.0 - self.G) / math.sqrt(5.0)

    def A(self, sign):  # elementwise over an array of signs
        return np.where(np.greater(sign, 0), self.A_plus, self.A_minus)[()]

    def Gpm(self, sign):
        return np.where(np.greater(sign, 0), self.G_plus, self.G_minus)[()]


CONSTANTS = SicConstants()


def fiducial_ket_d4() -> np.ndarray:
    """The dimension-4 fiducial ket whose displacement orbit is a SIC."""
    g = CONSTANTS.G
    e = np.exp(1j * np.pi / 4)
    v = np.array(
        [
            1.0 + e.conjugate(),
            e + 1j * g ** (-1.5),
            1.0 - e.conjugate(),
            e - 1j * g ** (-1.5),
        ]
    )
    return v / (2.0 * math.sqrt(3.0 + g))


def fiducial_overlaps(v, d: int | None = None) -> np.ndarray:
    """|<v|D_p v>| for the d^2 - 1 displacements p != 0, in index order."""
    v = np.asarray(v, dtype=complex).ravel()
    if d is None:
        d = v.size
    if v.size != d:
        raise ValueError("ket has length %d, expected %d" % (v.size, d))
    disp = displacement_table(d).reshape(d * d, d, d)[1:]
    return np.abs(np.einsum("i,pij,j->p", v.conj(), disp, v))


def is_fiducial(v, d: int | None = None, tol: float = DEFAULT_TOL) -> bool:
    """True iff v is a unit ket with |<v|D_p v>|^2 = 1/(d+1) for all p != 0."""
    v = np.asarray(v, dtype=complex).ravel()
    ov = fiducial_overlaps(v, d)
    if abs(np.vdot(v, v) - 1.0) > tol:
        raise ValueError("ket is not normalized")
    return bool(np.all(np.abs(ov**2 - 1.0 / (v.size + 1)) <= tol))


class SicPovm(_Record):
    """A SIC-POVM given as d^2 trace-1 projectors (effects are these over d),
    the (d*d, d, d) states.

    States are ordered lexicographically in the displacement index (p1, p2)
    when produced by :func:`generate_sic`.
    """

    def __init__(self, d: int, states: np.ndarray, label: str = ""):
        self.d = d
        self.states = np.asarray(states, dtype=complex)
        self.label = label
        if self.states.shape != (d * d, d, d):
            raise ValueError("expected %d states of shape (%d, %d)" % (d**2, d, d))

    def __len__(self) -> int:
        return self.states.shape[0]


def generate_sic(v, d: int | None = None, label: str = "") -> SicPovm:
    """Displacement orbit of a fiducial ket as trace-1 projectors.

    Raises ValueError if the ket fails the fiducial condition.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if d is None:
        d = v.size
    if not is_fiducial(v, d):
        raise ValueError("input ket is not a fiducial vector")
    w = displacement_table(d).reshape(d * d, d, d) @ v
    states = w[:, :, None] * w[:, None, :].conj()
    return SicPovm(d=d, states=states, label=label)


class SicReport(_Record):
    """verify_sic's verdict and deviations; (S,) arrays for a stack of S SICs."""

    is_sic: bool
    max_fidelity_deviation: float
    max_state_deviation: float
    completeness_deviation: float


@cached_table
def _upper_pairs(n: int) -> tuple:
    """np.triu_indices(n, 1): the index pairs j < k of an n x n matrix."""
    return np.triu_indices(n, 1)


def verify_sic(states, d: int, tol: float = DEFAULT_TOL) -> SicReport:
    """Certify the defining SIC properties of a set of d^2 states, or of
    each set of an (S, d^2, d, d) stack in one pass.

    Checks each state is a Hermitian trace-1 rank-1 projector, pairwise
    fidelities equal 1/(d+1), and the states sum to d times the identity.
    A stack gets a report of (S,) arrays, one set a bool and floats.
    """
    states = np.asarray(states, dtype=complex)
    n = d * d
    if states.shape[-3:] != (n, d, d) or states.ndim not in (3, 4):
        raise ValueError("expected %d states, got shape %r" % (n, states.shape))
    stack = states.reshape(-1, n, d, d)
    # entries near the float range overflow to inf or NaN, which fail silently
    with np.errstate(over="ignore", invalid="ignore"):
        sdev = np.max(
            [
                np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(1, 2, 3)),
                np.max(np.abs(np.trace(stack, axis1=2, axis2=3) - 1.0), axis=1),
                np.max(np.abs(stack @ stack - stack), axis=(1, 2, 3)),
            ],
            axis=0,
        )
        # gram[s, j, k] = tr(r_j r_k) = vec(r_j) . vec(r_k^T)
        gram = stack.reshape(-1, n, n) @ stack.swapaxes(-1, -2).reshape(-1, n, n).swapaxes(-1, -2)
        fdev = np.max(np.abs(gram[(slice(None),) + _upper_pairs(n)].real - 1.0 / (d + 1)), axis=1)
        cdev = np.max(np.abs(stack.sum(axis=1) - d * np.eye(d)), axis=(1, 2))
    ok = (sdev <= tol) & (fdev <= tol) & (cdev <= tol)
    if states.ndim == 3:
        return SicReport(bool(ok[0]), float(fdev[0]), float(sdev[0]), float(cdev[0]))
    return SicReport(ok, fdev, sdev, cdev)

