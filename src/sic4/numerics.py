"""Shared numerical primitives: the cache of read-only shared tables,
unitary/antiunitary operators, kets of rank-1 states, the overlap kernel
that decides equality up to a phase, the split of values into classes (one
list, or each row of a stack) and matrix (de)serialization.

Comparisons are absolute-tolerance based, except MATCH_TOL's cut on a
normalized overlap; the package-wide default tolerance is ``DEFAULT_TOL``.
"""

from __future__ import annotations

import functools

import numpy as np

DEFAULT_TOL = 1e-9

# largest entry of rho - k k^dag for the ket k that rank1_kets reads off a
# state; beyond it the state is not rank-1 and k would not represent it
RANK1_TOL = 1e-6


def _as_complex(m, stacked: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix, got shape %r" % (a.shape,))
    return a


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether m, or every matrix of an (N, d, d) stack, is unitary within tol."""
    m = _as_complex(m, stacked=np.ndim(m) == 3)
    return bool(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]))) <= tol)


class _Record:
    """A record whose fields are its instance attributes in constructor
    order: repr is Name(field=value, ...), and records of one type are equal
    when their fields are.  A subclass without an __init__ takes its annotated
    fields, each once, by position or name; defining one generates no code."""

    def __init__(self, *values, **named):
        names = type(self).__annotations__
        if named or len(values) != len(names):  # checked: each field once, set in annotation order
            fields = dict(zip(names, values), **named)
            if len(values) + len(named) != len(names) or fields.keys() != names.keys():
                raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(names)))
            values = map(fields.get, names)
        vars(self).update(zip(names, values))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % kv for kv in vars(self).items()))

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class _FrozenRecord(_Record):
    """An immutable _Record, equal and hashed by identity; its own __init__ sets fields by vars(self).update."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen record" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a frozen record" % name)


def cached_table(builder):
    """The builder of a table that every caller in the process shares, under
    an unbounded functools.lru_cache: after each miss one walk marks every
    array of the result read-only, the result itself, the items of a tuple
    and the fields of a _Record, at any depth.  A hit is a plain lru_cache
    hit, cache_clear, cache_info and __wrapped__ are lru_cache's, and a
    builder that raises caches nothing."""

    @functools.wraps(builder)
    def build(*args, **kwargs):
        table = builder(*args, **kwargs)
        _freeze(table)
        return table

    return functools.lru_cache(maxsize=None)(build)


def _freeze(x) -> None:
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for item in x:
            _freeze(item)
    elif isinstance(x, _Record):
        for field in vars(x).values():
            _freeze(field)


class GroupElement(_FrozenRecord):
    """A unitary matrix together with an antiunitarity flag.

    The element acts on kets as v -> matrix @ v (antiunitary=False) or
    v -> matrix @ conj(v) (antiunitary=True).
    """

    def __init__(self, matrix: np.ndarray, antiunitary: bool = False):
        m = _as_complex(matrix)
        if not is_unitary(m, 1e-8):
            raise ValueError("GroupElement matrix is not unitary within tol")
        vars(self).update(matrix=m, antiunitary=antiunitary)


def conjugate(g: GroupElement, m) -> np.ndarray:
    """g m g^-1 for a matrix m (the adjoint action on operators)."""
    m = np.asarray(m, dtype=complex)
    if g.antiunitary:
        m = m.conj()
    return g.matrix @ m @ g.matrix.conj().T


def rank1_kets(states) -> np.ndarray:
    """(..., d) kets k with k k^dag = rho for a (..., d, d) stack of rank-1
    states: each state's column through its largest diagonal entry, scaled
    to that entry's root.  A state farther than RANK1_TOL from k k^dag
    raises ValueError."""
    states = np.asarray(states, dtype=complex)
    flat = states.reshape((-1,) + states.shape[-2:])
    m = np.arange(len(flat))
    j = np.argmax(np.diagonal(flat, axis1=1, axis2=2).real, axis=1)
    kets = flat[m, :, j] / np.sqrt(np.abs(flat[m, j, j]))[:, None]
    dev = np.max(np.abs(flat - kets[:, :, None] * kets[:, None, :].conj()))
    if not dev <= RANK1_TOL:  # also refuses NaN
        raise ValueError("state is not a rank-1 projector (deviation %.3g)" % dev)
    return kets.reshape(states.shape[:-1])


# a commutator phase is a root r of unity when |c - r| <= COMMUTATOR_TOL.
# reconstruct_hw: tr(z x z^dag x^dag) / 4 lies within 3.2e-15 of i, and 2
# away before x is replaced by its adjoint; regroup.commutation_projective:
# the D' pair commutes to -i exactly; hw_conjugate_subgroup_census: the 48
# phases of its distinct spans lie within 1.2e-16 of a fourth root of unity,
# sqrt 2 from the next one, and 32 of them are +-i
COMMUTATOR_TOL = 1e-8


def commutator_phase(a, b):
    """tr(a b a^dag b^dag) / d: the scalar c with a b = c b a when the two
    unitaries commute up to a phase; an (S,) array of them for (S, d, d)
    stacks of pairs."""
    a = _as_complex(a, stacked=np.ndim(a) == 3)
    b = _as_complex(b, stacked=np.ndim(b) == 3)
    c = np.trace(a @ b @ a.conj().swapaxes(-1, -2) @ b.conj().swapaxes(-1, -2), axis1=-2, axis2=-1)
    return c / a.shape[-1] if c.ndim else complex(c) / a.shape[-1]


def canonical_phase(m) -> np.ndarray:
    """Rescale by a global phase so the pivot is real positive: the first
    entry (row-major) whose modulus is at least half the largest; each
    matrix of an (S, d, d) stack by its own phase.  A d x d unitary has an
    entry of modulus 1 / sqrt(d) or more, so its pivot has 1 / (2 sqrt(d))."""
    m = _as_complex(m, stacked=np.ndim(m) == 3)
    flat = m.reshape(m.shape[:-2] + (-1,))
    size = np.abs(flat)
    top = size.max(axis=-1, keepdims=True)
    if not np.all(top > 0):
        raise ValueError("zero matrix has no canonical phase")
    pivot = np.take_along_axis(flat, (size >= top / 2).argmax(axis=-1)[..., None], axis=-1)[..., None]
    return m / (pivot / np.hypot(pivot.real, pivot.imag))


class ValueClasses(_Record):
    """The classes of N values, numbered in order of first occurrence."""

    classes: np.ndarray  # (N,) class of each value
    counts: np.ndarray  # (K,) members of each class
    first: np.ndarray  # (K,) index of each class's first member
    centers: np.ndarray  # (K, ...) mean of each class's members
    spread: float  # largest distance from a value to its class center
    separation: float  # smallest distance between two centers, inf for one class


def value_classes(values, gap: float) -> ValueClasses:
    """Split N values of one shape (reals, complex numbers, 3-vectors) into
    classes at Euclidean distance gap: the first unclassed value leads a
    class and takes every unclassed value within gap / 2 of it; a center is
    its members' mean, summed in value order.  ValueError unless the values
    are finite and 2 spread <= gap < separation, so classes are never merged
    silently.  Each pass compares all values with one leader, or a block of
    centers with all centers: no (N, N) array is made."""
    return value_class_rows(np.asarray(values)[None], gap, strict=True)[0]


def value_class_rows(values, gap: float, *, strict: bool = False) -> list:
    """value_classes of each row of an (S, N, ...) stack, each leader pass
    and class sum serving every row: S ValueClasses, None for a row that
    cannot split (strict: ValueError)."""
    values = np.asarray(values)
    s, n = values.shape[:2]
    flat = np.moveaxis(values.reshape(s, n, -1), -1, 0)
    x = np.concatenate([flat.real, flat.imag] if np.iscomplexobj(flat) else [flat], dtype=float)  # (C, S, N)
    finite, rows = np.isfinite(x).all(axis=(0, 2)), np.arange(s)
    x = x if finite.all() else np.where(finite[:, None], x, 0.0)
    classes, unclassed = np.zeros((s, n), dtype=np.intp), np.repeat(finite[:, None], n, axis=1)
    p, diff = 0, np.empty_like(x)  # pass p leads class p of each row with a value left; a row without one takes nothing
    while unclassed.any():
        i = unclassed.argmax(axis=1)
        np.subtract(x, x[:, rows, i, None], out=diff)  # squared in place, into one buffer for every pass
        near = unclassed & (np.square(diff, out=diff).sum(axis=0) <= gap * gap / 4)
        classes[near], p = p, p + 1
        unclassed ^= near
    # classes numbered by first occurrence: each class's first member raises the running maximum
    start = np.diff(np.maximum.accumulate(classes, axis=1), axis=1, prepend=-1) > 0
    k, first, m = start.sum(axis=1), np.nonzero(start)[1], start.sum(axis=1).max()
    key = (classes + m * rows[:, None]).ravel()
    counts = np.bincount(key, minlength=s * m).reshape(s, m)
    sums = np.array([np.bincount(key, row, s * m) for row in x.reshape(len(x), -1)]).reshape(-1, s, m)
    c = np.where(np.arange(m) < k[:, None], sums / np.maximum(counts, 1), np.nan)  # (C, S, M) class means, NaN pads
    if np.iscomplexobj(values):
        sums = sums[: len(sums) // 2] + 1j * sums[len(sums) // 2 :]
    centers = sums.transpose(1, 2, 0) / np.maximum(counts, 1)[:, :, None]
    dev = c.reshape(len(c), -1).take(key, axis=1).reshape(x.shape)  # each value's center, then its offset
    dev -= x
    spread = np.sqrt(np.square(dev, out=dev).sum(axis=0).max(axis=1))
    square_min, block = np.full(s, np.inf), max(1, (1 << 16) // (s * m))
    for j in range(0, m, block):  # a block of centers against all, at most 65,536 pairs; fmin skips padding
        t = np.arange(j, min(j + block, m))[:, None]
        square = np.where(t != np.arange(m), np.square(c[:, :, t] - c[:, :, None]).sum(axis=0), np.inf)
        square_min = np.fmin(square_min, np.fmin.reduce(square, axis=(1, 2)))
    separation, ends = np.sqrt(square_min), np.cumsum(k).tolist()
    splits = [
        ValueClasses(classes[r], counts[r, :kr], first[e - kr : e], centers[r, :kr].reshape(-1, *values.shape[2:]), *sd)
        for r, kr, e, sd in zip(rows, k.tolist(), ends, zip(spread.tolist(), separation.tolist()))
    ]
    fail = ~(finite & (2 * spread <= gap) & (gap < separation))
    if strict and fail.any():
        r = fail.argmax()
        text = "no split into classes at gap %.3g: spread %.3g, separation %.3g" % (gap, spread[r], separation[r])
        raise ValueError(text if finite[r] else "values to split into classes are not finite")
    return [None if fail[r] else split for r, split in enumerate(splits)]


# two matrices are equal up to a phase when their overlap reaches 1 - MATCH_TOL:
# matches come within 2.7e-15 of 1, non-matches reach 0.762 (orbit states, also
# against partial transposes), 0.707 (unitary Cliffords), 0.5 (groups vs D, D')
MATCH_TOL = 1e-6


def squared_norms(m) -> np.ndarray:
    """tr(m^dag m) of each matrix of a (..., d, d) stack, at least the least
    positive float: the norms overlaps divides by."""
    m = np.asarray(m, dtype=complex)
    m = m.reshape(m.shape[:-2] + (-1,))
    return np.maximum(np.einsum("...k,...k->...", m.conj(), m).real, np.finfo(float).tiny)


def overlaps(a, b=None, b_norms=None) -> np.ndarray:
    """The (..., Q, N) overlaps |tr(a^dag b)| / max(tr(a^dag a), tr(b^dag b))
    of each matrix of an (..., Q, d, d) stack a with each of an (..., N, d, d)
    stack b, or of a with itself, norms read off the Gram diagonal.  One at
    most (Cauchy-Schwarz), 1 exactly when a = e^{i phi} b, 0 with a zero
    matrix.  b_norms are b's squared_norms, when the caller holds them."""
    a = np.asarray(a, dtype=complex)
    if b is None:
        a = a.reshape(a.shape[:-2] + (-1,))
        out = np.abs(a.conj() @ a.swapaxes(-1, -2))
        na = nb = np.maximum(np.diagonal(out, axis1=-2, axis2=-1), np.finfo(float).tiny)
    else:
        na, nb = squared_norms(a), squared_norms(b) if b_norms is None else b_norms
        b = np.asarray(b, dtype=complex).reshape(np.shape(b)[:-2] + (-1,))
        out = np.abs(a.reshape(a.shape[:-2] + (-1,)).conj() @ b.swapaxes(-1, -2))
    return np.divide(out, np.maximum(na[..., :, None], nb[..., None, :]), out=out)


def match_projective(m, stack, norms=None):
    """Index of the matrix in ``stack`` equal to m up to a phase, else -1;
    for a (Q, d, d) stack of queries, an array of Q such indices.  norms
    are the stack's squared_norms, when the caller holds them."""
    scores = overlaps(np.reshape(m, (-1,) + np.shape(m)[-2:]), stack, norms)
    index = np.where(scores.max(axis=1) >= 1.0 - MATCH_TOL, scores.argmax(axis=1), -1)
    return index if np.ndim(m) == 3 else int(index[0])


def proj_equal(a, b) -> bool:
    """Whether two square matrices of one shape are equal up to a global phase."""
    a, b = _as_complex(a), _as_complex(b)
    return a.shape == b.shape and match_projective(a, b[None]) == 0


def projectively_distinct(mats) -> bool:
    """Whether no two matrices of a stack are equal up to a phase; an
    (S, N, d, d) input asks this of each of its S stacks."""
    o = overlaps(mats)
    return bool(np.all((o < 1.0 - MATCH_TOL) | np.eye(o.shape[-1], dtype=bool)))


def projective_set_equal(mats_a, mats_b, norms_b=None):
    """Do two stacks of matrices coincide as sets, modulo global phases?

    Every member of a must match a different member of b under
    match_projective, as for group element lists.  For an (S, n, d, d)
    first argument, the (S,) verdicts of its sets; False for any other
    shape than b's or a stack of them.  norms_b are b's squared_norms, when
    the caller holds them.
    """
    a = np.asarray(mats_a, dtype=complex)
    b = np.asarray(mats_b, dtype=complex)
    if b.ndim != 3 or a.ndim not in (3, 4) or a.shape[-3:] != b.shape:
        return False
    index = match_projective(a.reshape(-1, *b.shape[1:]), b, norms_b).reshape(a.shape[:-2])
    # each set's indices are n distinct matches exactly when they sort to 0..n-1
    equal = np.all(np.sort(index, axis=-1) == np.arange(len(b)), axis=-1)
    return equal if a.ndim == 4 else bool(equal)


def matrix_to_json(m):
    """Serialize to {dim, entries} with entries a row-major [re, im] list;
    an (N, d, d) stack to a list of N such objects, in one array pass."""
    a = np.ascontiguousarray(_as_complex(m, stacked=np.ndim(m) == 3))
    d = a.shape[-1]
    objs = [{"dim": d, "entries": e} for e in a.view(float).reshape(-1, d * d, 2).tolist()]
    return objs if a.ndim == 3 else objs[0]


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of matrix_to_json; for a list of such objects, the (N, d, d)
    stack of one d, read in one array pass.  ValueError unless every dim is
    a JSON integer and every entries list holds d * d [re, im] pairs of
    finite JSON numbers (Python's json reads NaN and Infinity as floats)."""
    objs = [obj] if isinstance(obj, dict) else obj
    for o in objs:
        if type(o["dim"]) is not int:  # a JSON integer: no float, string or bool
            raise ValueError("expected an integer dim, got %r" % (o["dim"],))
    dims = {o["dim"] for o in objs}
    if len(dims) != 1:
        raise ValueError("expected one or more matrices of one dimension, got dimensions %s" % sorted(dims))
    d = dims.pop()
    entries = np.array([o["entries"] for o in objs])  # ragged entries raise ValueError
    if entries.shape[1:] != (d * d, 2) or entries.dtype.kind not in "iuf" or not np.isfinite(entries).all():
        raise ValueError(
            "expected %d [re, im] pairs of finite numbers, got a %s array of shape %r"
            % (d * d, entries.dtype, entries.shape[1:])
        )
    stack = np.ascontiguousarray(entries, dtype=float).view(complex).reshape(-1, d, d)
    return stack[0] if isinstance(obj, dict) else stack
