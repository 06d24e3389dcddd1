"""Fast tests of the benchmark's own generator, checkers and span arithmetic.

    python3 -m pytest -q perfbench
"""

import sys

import numpy as np

import inputs
import run
import spans


def test_batch_is_deterministic_per_seed_and_varies_across_seeds():
    a, b, c = inputs.make_batch(3), inputs.make_batch(3), inputs.make_batch(4)
    assert [case for case, _ in a] == [case for case, _ in b]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))
    assert any(not np.array_equal(x, y) for (_, x), (_, y) in zip(a, c))
    counts = {case: sum(k == case for k, _ in a) for case in inputs.CASE_COUNTS}
    assert counts == inputs.CASE_COUNTS
    for case, kets in a:
        assert inputs.is_sic(kets) == (case != "not-sic")


def test_checker_counts_a_planted_wrong_verdict(tmp_path):
    sys.path.insert(0, str(run.SRC))
    batch = run.InputBatch(5, tmp_path)
    picked = {}
    for path, case in batch.files:
        picked.setdefault(case, path)
    planted = {"displacement": "other", "other": "conjugate-displacement",
               "conjugate-displacement": "displacement", "not-sic": "displacement"}
    batch.files = [(path, case) for case, path in picked.items()]
    assert batch.round().failed == 0
    batch.files = [(path, planted[case]) for path, case in batch.files]
    rnd = batch.round()
    assert (rnd.attempted, rnd.failed) == (4, 4)


def test_cli_checker_counts_failing_missing_and_crashed_claims(tmp_path):
    report = tmp_path / "report.json"
    rows = [{"claim_id": "c%d" % i, "pass": True} for i in range(5)]
    report.write_text(run.json.dumps({"claims": rows}))
    assert run.cli_failures(0, report, 5) == (5, 0)
    assert run.cli_failures(0, report, 7) == (7, 2)
    assert run.cli_failures(1, report, 5) == (5, 5)
    rows[2]["pass"] = False
    report.write_text(run.json.dumps({"claims": rows}))
    assert run.cli_failures(1, report, 5) == (5, 1)
    assert run.cli_failures(1, tmp_path / "missing.json", 5) == (5, 5)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, as from two
    # threads) and [8, 9]; the first child has a grandchild [2, 3]
    records = [
        ["cli.main", 0.0, 10.0, -1, True],
        ["orbits.a", 1.0, 4.0, 0, True],
        ["numerics.b", 2.0, 3.0, 1, True],
        ["orbits.a", 3.0, 6.0, 0, True],
        ["clifford.c", 8.0, 9.0, 0, False],
    ]
    assert spans.self_times(records) == [4.0, 2.0, 1.0, 3.0, 1.0]
    assert spans.module_self_time(records, "orbits") == 5.0
    assert spans.inclusive_time(records, "orbits.a") == 6.0
    assert spans.calls(records, "orbits.a") == 2


def test_inclusive_time_skips_nested_reentry_and_quads_count_successes():
    records = [
        ["reconstruction.reconstruct_hw", 0.0, 4.0, -1, True],
        ["reconstruction.quad_signature", 0.5, 1.0, 0, True],
        ["reconstruction.quad_signature", 1.0, 1.5, 0, True],
        ["reconstruction.reconstruct_hw", 2.0, 3.0, 0, False],
        ["reconstruction.quad_signature", 5.0, 6.0, -1, True],
    ]
    assert spans.inclusive_time(records, "reconstruction.reconstruct_hw") == 4.0
    assert spans.quads_per_reconstruct(records) == 2.0


def test_tracer_records_parents_and_failures():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap(inner, "m.inner")
    outer = tracer.wrap(lambda: traced_inner(1), "m.outer")
    outer()
    try:
        traced_inner(-1)
    except ValueError:
        pass
    rec = tracer.records()
    assert [(r[0], r[3], r[4]) for r in rec] == [
        ("m.outer", -1, True), ("m.inner", 0, True), ("m.inner", -1, False)
    ]


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0, 2.0, 30.0]) == (2.0, "p50")
    value, label = run.tail([float(i) for i in range(1, 1001)])
    assert label == "p99" and 990 < value < 991


def test_reference_factor_widens_to_the_latest_samples():
    ref = run.Reference()
    ref.samples = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert run.MIN_SAMPLES == 5
    assert ref.factor(4) == run.REF_KERNEL_S * 5 / 7.0
    assert ref.factor(0) == run.REF_KERNEL_S * 6 / 8.0
    assert ref.factor(2, 4) == run.REF_KERNEL_S
