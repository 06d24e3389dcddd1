"""Seeded SIC files for the input-batch workload.

Every file is built here with plain numpy, independently of the sic4
package, and its expected verdict is fixed by how it was built:

- ``displacement``: a displacement orbit of one of the 256 fiducials, that
  is one of the 16 orbit SICs;
- ``conjugate-displacement``: an orbit of the conjugate displacement group
  D' generated by X' and Z', that is one of the 16 regrouped SICs;
- ``other``: an orbit or regrouped SIC conjugated by a Haar-random unitary;
- ``not-sic``: a SIC with one projector moved off the SIC, which the
  program must reject (exit 1, ``input_is_sic`` false).

The seed draws which SIC each file comes from, the Haar unitaries, the
perturbed projector, the state order inside each file and the order of the
files.  The number of files of each case is fixed, so that batches of
different seeds cost the same and only the inputs themselves vary.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

D = 4

# files per case in one batch; all 16 orbit and all 16 regrouped SICs appear
# at least once
CASE_COUNTS = {
    "displacement": 32,
    "conjugate-displacement": 32,
    "other": 32,
    "not-sic": 32,
}

PERTURBATION = 1e-2

# generators of the regrouped family's covariance group D'
X_PRIME = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0]], dtype=complex)
Z_PRIME = 0.5 * np.array(
    [
        [0, 1 + 1j, 0, -1 + 1j],
        [1 + 1j, 0, -1 + 1j, 0],
        [0, -1 + 1j, 0, 1 + 1j],
        [-1 + 1j, 0, 1 + 1j, 0],
    ],
    dtype=complex,
)


def fiducial_ket() -> np.ndarray:
    """Closed-form d = 4 Weyl-Heisenberg fiducial (Zauner's 4a orbit)."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    e = np.exp(1j * np.pi / 4)
    v = np.array([1 + e.conjugate(), e + 1j * g**-1.5, 1 - e.conjugate(), e - 1j * g**-1.5])
    return v / np.linalg.norm(v)


def _group(gen_a: np.ndarray, gen_b: np.ndarray) -> np.ndarray:
    """The 16 products a^j b^k of two order-4 generators."""
    mp = np.linalg.matrix_power
    return np.stack([mp(gen_a, j) @ mp(gen_b, k) for j in range(D) for k in range(D)])


def displacement_group() -> np.ndarray:
    x = np.roll(np.eye(D, dtype=complex), 1, axis=0)
    z = np.diag(1j ** np.arange(D))
    return _group(x, z)


def _index_of(kets: np.ndarray, v: np.ndarray) -> int:
    ov = np.abs(kets.conj() @ v)
    j = int(np.argmax(ov))
    return j if ov[j] > 1 - 1e-9 else -1


def fiducial_orbit() -> np.ndarray:
    """The 256 fiducial kets: closure of the fiducial under the Clifford
    generators (Fourier, quadratic phase) and the displacements."""
    fourier = np.array([[1j ** (j * k) for k in range(D)] for j in range(D)]) / math.sqrt(D)
    phase = np.diag(np.exp(1j * np.pi * np.arange(D) ** 2 / D))
    gens = [fourier, phase] + list(displacement_group()[[1, 4]])
    kets = [fiducial_ket()]
    frontier = list(kets)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = g @ v
                if _index_of(np.array(kets), w) < 0:
                    kets.append(w)
                    nxt.append(w)
        frontier = nxt
    if len(kets) != 256:
        raise AssertionError("fiducial orbit has %d states, expected 256" % len(kets))
    return np.array(kets)


def _partition(kets: np.ndarray, group: np.ndarray) -> set:
    """Split the orbit into the 16 group orbits, each a SIC checked here."""
    blocks = set()
    for v in kets:
        members = frozenset(_index_of(kets, g @ v) for g in group)
        if min(members) < 0 or len(members) != 16:
            raise AssertionError("group does not act freely on the orbit")
        if not is_sic(kets[sorted(members)]):
            raise AssertionError("group orbit is not a SIC")
        blocks.add(members)
    if len(blocks) != 16:
        raise AssertionError("expected 16 SICs, got %d" % len(blocks))
    return blocks


def is_sic(kets: np.ndarray, tol: float = 1e-9) -> bool:
    fid = np.abs(kets.conj() @ kets.T) ** 2
    return bool(np.max(np.abs(fid - np.eye(16) - (1 - np.eye(16)) / (D + 1))) <= tol)


def families() -> tuple:
    """(orbit SICs, regrouped SICs) as two lists of 16 arrays of 16 kets."""
    kets = fiducial_orbit()
    orbit = _partition(kets, displacement_group())
    regrouped = _partition(kets, _group(X_PRIME, Z_PRIME))
    if orbit & regrouped:
        raise AssertionError("a regrouped SIC coincides with an orbit SIC")
    return tuple([kets[sorted(b)] for b in sorted(blocks, key=min)] for blocks in (orbit, regrouped))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_batch(seed: int) -> list:
    """[(case, kets)] for one batch, in the seeded file order."""
    rng = np.random.default_rng(seed)
    orbit, regrouped = families()

    def pick(family, i):
        return family[i % 16] if i < 16 else family[rng.integers(16)]

    items = []
    for i in range(CASE_COUNTS["displacement"]):
        items.append(("displacement", pick(orbit, i)))
    for i in range(CASE_COUNTS["conjugate-displacement"]):
        items.append(("conjugate-displacement", pick(regrouped, i)))
    for _ in range(CASE_COUNTS["other"]):
        source = orbit if rng.integers(2) == 0 else regrouped
        items.append(("other", source[rng.integers(16)] @ haar_unitary(rng).T))
    for _ in range(CASE_COUNTS["not-sic"]):
        source = (orbit, regrouped)[rng.integers(2)][rng.integers(16)].copy()
        k = rng.integers(16)
        v = source[k] + PERTURBATION * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
        source[k] = v / np.linalg.norm(v)
        if is_sic(source):
            raise AssertionError("perturbed set still passes as a SIC")
        items.append(("not-sic", source))
    items = [(case, kets[rng.permutation(16)]) for case, kets in items]
    return [items[i] for i in rng.permutation(len(items))]


def sic_json(kets: np.ndarray) -> dict:
    """The sic4 ``--input`` format: 16 trace-1 projectors as {dim, entries}."""
    states = []
    for v in kets:
        rho = np.outer(v, v.conj())
        states.append(
            {"dim": D, "entries": [[float(x.real), float(x.imag)] for x in rho.ravel()]}
        )
    return {"states": states}


def write_batch(seed: int, directory: Path) -> list:
    """Write one batch of files; returns [(path, expected case)]."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, (case, kets) in enumerate(make_batch(seed)):
        path = directory / ("sic_%03d.json" % i)
        path.write_text(json.dumps(sic_json(kets)))
        out.append((path, case))
    return out
