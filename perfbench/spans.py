"""Per-layer tracing for the sic4 benchmark.

The layers are the sic4 modules.  ``install`` wraps every public function of
every ``sic4.*`` module in a timing wrapper and rebinds the name wherever a
``sic4`` module holds it (modules bind ``to_operator`` and friends at import,
so patching the defining module alone would miss those calls).  Each call
records a span (name, start, end, parent, ok) in memory; ``parent`` is the
enclosing span of the same thread.  Nothing is written until the run
ends.

Run as a script, this file is the traced form of the ``sic4`` command:

    python3 perfbench/spans.py SPANS_OUT.json -- <sic4 arguments>

It installs the wrappers, calls ``sic4.cli.main`` with the arguments, writes
the spans and the ``lru_cache`` statistics to SPANS_OUT.json and exits with
the status ``main`` returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

MODULES = (
    "numerics",
    "weyl_heisenberg",
    "clifford",
    "orbits",
    "reconstruction",
    "regrouping",
    "two_qubit",
    "cli",
)


class Tracer:
    """In-memory span recorder.

    A finished span is one tuple of atoms, which the garbage collector
    stops tracking, so a long trace adds little collection work to the
    traced program.
    """

    def __init__(self):
        self._done: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name):
        """Timing wrapper around fn; ``name`` is a string or a function of
        the call's arguments returning one."""
        done, ids, local, clock = self._done, self._ids, self._local, time.perf_counter
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = fixed or name(*args, **kwargs)
            parent = getattr(local, "top", -1)
            idx = local.top = next(ids)
            ok = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                done[idx] = (label, start, clock(), parent, ok)
                local.top = parent

        return traced

    def records(self) -> list:
        """Finished spans as [name, start, end, parent_index, ok] rows in
        call order; parent_index is -1 for a root."""
        order = sorted(self._done)
        pos = {idx: i for i, idx in enumerate(order)}
        rows = []
        for idx in order:
            name, start, end, parent, ok = self._done[idx]
            rows.append([name, start, end, pos.get(parent, -1), ok])
        return rows


def _span_name(module: str, attr: str):
    if module != "cli" or not attr.startswith("run_"):
        return "%s.%s" % (module, attr)
    section = attr[len("run_"):]
    if section != "twoqubit":
        return "cli." + section

    def twoqubit(cfg, claims, basis):
        return "cli.twoqubit_" + basis

    return twoqubit


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


def install(tracer: Tracer):
    """Wrap every public sic4 function; returns (restore, cached) where
    restore() undoes the patching and cached maps span names to the
    ``lru_cache``-wrapped originals."""
    mods = [importlib.import_module("sic4." + m) for m in MODULES]
    every = [m for name, m in sys.modules.items() if name == "sic4" or name.startswith("sic4.")]
    wrapped, cached = {}, {}
    for short, mod in zip(MODULES, mods):
        for attr, fn in _public_functions(mod):
            name = _span_name(short, attr)
            wrapped[id(fn)] = (fn, tracer.wrap(fn, name))
            if hasattr(fn, "cache_info"):
                cached[name] = fn
    patched = []
    for mod in every:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))

    def restore():
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)

    return restore, cached


def cache_counts(cached: dict) -> dict:
    """{name: [hits, misses]} for the lru_cache'd functions."""
    return {name: [fn.cache_info().hits, fn.cache_info().misses] for name, fn in cached.items()}


# --- analysis --------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: list) -> list:
    """Per span: its duration minus the time its child spans cover."""
    children: list = [[] for _ in records]
    for name, start, end, parent, ok in records:
        if parent >= 0:
            p = records[parent]
            children[parent].append((max(start, p[1]), min(end, p[2])))
    return [
        (end - start) - covered(kids)
        for (name, start, end, parent, ok), kids in zip(records, children)
    ]


def _has_ancestor(records: list, i: int, name: str) -> bool:
    parent = records[i][3]
    while parent >= 0:
        if records[parent][0] == name:
            return True
        parent = records[parent][3]
    return False


def inclusive_time(records: list, name: str) -> float:
    """Total time in spans called ``name``, not counting nested re-entry."""
    return sum(
        r[2] - r[1]
        for i, r in enumerate(records)
        if r[0] == name and not _has_ancestor(records, i, name)
    )


def calls(records: list, name: str) -> int:
    return sum(r[0] == name for r in records)


def module_self_time(records: list, module: str) -> float:
    prefix = module + "."
    return sum(t for r, t in zip(records, self_times(records)) if r[0].startswith(prefix))


def quads_per_reconstruct(records: list) -> float:
    """Quad signatures computed inside reconstruct_hw per successful call."""
    done = sum(r[0] == "reconstruction.reconstruct_hw" and r[4] for r in records)
    tried = sum(
        r[0] == "reconstruction.quad_signature"
        and _has_ancestor(records, i, "reconstruction.reconstruct_hw")
        for i, r in enumerate(records)
    )
    return tried / done if done else 0.0


def hit_ratio(counts: dict, name: str) -> float:
    hits, misses = counts.get(name, (0, 0))
    return hits / (hits + misses) if hits + misses else 0.0


_TIME = {
    "cli.orbit_s": "cli.orbit",
    "cli.symmetry_s": "cli.symmetry",
    "cli.triples_s": "cli.triples",
    "cli.reconstruct_s": "cli.reconstruct",
    "cli.regroup_s": "cli.regroup",
    "cli.twoqubit_product_s": "cli.twoqubit_product",
    "cli.twoqubit_bell_s": "cli.twoqubit_bell",
    "clifford.enumerate_s": "clifford.enumerate_projective_clifford",
    "clifford.to_operator_s": "clifford.to_operator",
    "orbits.label_permutation_group_s": "orbits.label_permutation_group",
    "orbits.symmetry_group_s": "orbits.verify_symmetry_group_in_clifford",
    "orbits.triple_trace_census_s": "orbits.triple_trace_census",
    "orbits.enumerate_orbit_s": "orbits.enumerate_orbit",
    "orbits.stability_group_s": "orbits.stability_group",
    "reconstruction.reconstruct_hw_s": "reconstruction.reconstruct_hw",
    "reconstruction.uniqueness_check_s": "reconstruction.uniqueness_check",
    "regrouping.subgroup_census_s": "regrouping.hw_conjugate_subgroup_census",
    "regrouping.clique_scan_s": "regrouping.exhaustive_regroup_scan",
    "regrouping.regrouped_family_s": "regrouping.regrouped_family",
    "two_qubit.gbv_s": "two_qubit.gbv",
    "two_qubit.match_sign_pattern_s": "two_qubit.match_sign_pattern",
    "two_qubit.simplex_check_s": "two_qubit.partial_transpose_simplex_check",
    "weyl_heisenberg.verify_sic_s": "weyl_heisenberg.verify_sic",
}

_CALLS = {
    "clifford.to_operator_calls": "clifford.to_operator",
    "numerics.is_unitary_calls": "numerics.is_unitary",
    "numerics.canonical_key_calls": "numerics.canonical_key",
    "two_qubit.gbv_calls": "two_qubit.gbv",
    "weyl_heisenberg.verify_sic_calls": "weyl_heisenberg.verify_sic",
}


def layer_metrics(records: list, counts: dict) -> dict:
    """The per-layer metrics of one traced round (times in seconds)."""
    out = {m: inclusive_time(records, n) for m, n in _TIME.items()}
    out.update({m: calls(records, n) for m, n in _CALLS.items()})
    out["cli.self_s"] = module_self_time(records, "cli")
    out["numerics.self_s"] = module_self_time(records, "numerics")
    out["reconstruction.quads_per_reconstruct"] = quads_per_reconstruct(records)
    out["clifford.enumerate_cache_hit_ratio"] = hit_ratio(
        counts, "clifford.enumerate_projective_clifford"
    )
    return out


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: spans.py SPANS_OUT.json -- <sic4 arguments>")
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    _, cached = install(tracer)
    cli = sys.modules["sic4.cli"]
    try:
        rc = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.records(), "cache": cache_counts(cached)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
