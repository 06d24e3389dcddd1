"""Benchmark of the sic4 certifier, driven from outside through its public
entry points.

    python3 perfbench/run.py --workload paper-all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all       # every workload, every end-to-end metric

Workloads (see README.md in this directory for why each exists):

- ``paper-all``: ``sic4 all --format json`` in one fresh process per round;
- ``sections-cold``: the seven subcommands, each in its own fresh process,
  in a seeded order;
- ``input-batch``: a seeded batch of SIC files, each certified in-process by
  ``sic4.cli.main(["reconstruct", "--input", ...])`` after one untimed
  warm-up call.

All load comes from this one process as a closed loop with one client: each
call starts after the previous one returns.  Rounds repeat until
``--seconds`` have been spent.  Every report is checked; a failed check is
counted and reported, never retried.  The last line of standard output is
the JSON result; the lines before it name every metric with its unit.

Gated times are CPU seconds at a reference machine speed.  The benchmark
and every sic4 process it starts share one CPU.  While an operation runs,
the benchmark times a short fixed kernel, independent of sic4, on that CPU
about ten times a second, and scales the operation's CPU time by how fast
the kernel ran meanwhile (see ``Reference``).  The machine is a share of a
busy host whose speed swings by more than 1.5x within minutes; raw times
follow the swing, scaled ones much less.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("paper-all", "sections-cold", "input-batch")
ALL_CPUS = frozenset(os.sched_getaffinity(0))

# (argv, claims the report must carry)
PAPER_ALL = (("all",), 75)
RECONSTRUCT = (("reconstruct",), 7)
SECTIONS = (
    (("orbit",), 11),
    (("symmetry",), 12),
    (("triples",), 9),
    RECONSTRUCT,
    (("regroup", "--full-scan"), 14),
    (("twoqubit", "--basis", "product"), 14),
    (("twoqubit", "--basis", "bell"), 9),
)

CLI_MAIN = "import sys; from sic4.cli import main; sys.exit(main())"
CLI_IMPORTS = "import sic4.cli, sic4.clifford, sic4.orbits, sic4.reconstruction, sic4.regrouping, sic4.two_qubit"
INPUT_IMPORTS = "import sic4.cli, sic4.numerics, sic4.reconstruction, sic4.regrouping, sic4.weyl_heisenberg"

SETUP_FIRST = 3
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# the reference kernel's CPU time on an idle core of a 2.0 GHz Xeon host,
# the speed that every gated time is scaled to
REF_KERNEL_S = 0.004
# a kernel sample every SAMPLE_EVERY_S while a child runs; an operation is
# scaled by at least MIN_SAMPLES samples, the latest ones if it had fewer;
# an input of input-batch by the samples of the INPUT_WINDOW inputs on
# either side of it
SAMPLE_EVERY_S = 0.1
MIN_SAMPLES = 5
INPUT_WINDOW = 8

END_TO_END_UNITS = {
    "ref_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "input_p50_ms": "ms",
    "input_tail_ms": "ms",
}


# --- environment -----------------------------------------------------------


def child_env(threads: str | None = None) -> dict:
    """Environment of every sic4 child: sources from this checkout, bytecode
    caching on, and ``SIC4_THREADS`` unset unless a diagnostic sets it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("SIC4_THREADS", None)
    if threads is not None:
        env["SIC4_THREADS"] = threads
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "networkx": metadata.version("networkx"),
        "commit": git_commit(),
        "SIC4_THREADS": os.environ.get("SIC4_THREADS"),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "sic4").glob("*.py"))
        ),
    }


# --- child processes -------------------------------------------------------


class Reference:
    """Machine speed, from a short fixed kernel of Python arithmetic and
    small complex matrix products.  The kernel does not depend on sic4, so
    a change to sic4 cannot move it.  ``samples`` holds the CPU seconds of
    every call, in order."""

    def __init__(self):
        import numpy as np

        self._a = np.exp(1j * np.arange(16.0)).reshape(4, 4)
        self._kernel()
        self.samples: list = []
        for _ in range(MIN_SAMPLES):
            self.sample()

    def _kernel(self):
        s = 0
        for i in range(20_000):
            s += i * i % 7
        m = self._a
        for _ in range(400):
            m = (m @ self._a) / 4.0
        return s

    def sample(self):
        c0 = time.process_time()
        self._kernel()
        self.samples.append(time.process_time() - c0)

    def factor(self, first: int, last: int | None = None) -> float:
        """REF_KERNEL_S over the mean of samples[first:last], widened back
        to the latest MIN_SAMPLES when there are fewer."""
        last = len(self.samples) if last is None else last
        xs = self.samples[max(0, min(first, last - MIN_SAMPLES)):last]
        return REF_KERNEL_S * len(xs) / sum(xs)


class Child:
    """A finished child process: exit code, seconds from start until reaped,
    CPU seconds, the same at reference speed, and peak RSS in MB."""

    def __init__(self, rc, wall_s, cpu_s, ref_cpu_s, rss_mb):
        self.rc, self.wall_s, self.cpu_s = rc, wall_s, cpu_s
        self.ref_cpu_s, self.rss_mb = ref_cpu_s, rss_mb


def run_child(cmd: list, env: dict, ref: Reference) -> Child:
    """Run cmd to completion, sampling the reference kernel every
    SAMPLE_EVERY_S while it runs.  A child past CHILD_TIMEOUT_S is killed
    and reaped."""
    t0 = time.perf_counter()
    first = len(ref.samples)
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        exited = os.pidfd_open(proc.pid)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    try:
        while not select.select([exited], [], [], SAMPLE_EVERY_S)[0]:
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                proc.kill()
                print("perfbench: %s timed out and was killed" % cmd[-1], file=sys.stderr)
                break
            ref.sample()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(exited)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(proc.returncode, seconds, cpu, cpu * ref.factor(first), usage.ru_maxrss / 1024.0)


def cli_command(args, out: Path, trace_path: Path | None = None) -> list:
    argv = list(args) + ["--format", "json", "--out", str(out)]
    if trace_path is None:
        return [sys.executable, "-c", CLI_MAIN] + argv
    return [sys.executable, str(HERE / "spans.py"), str(trace_path), "--"] + argv


# --- correctness checks ----------------------------------------------------


def cli_failures(rc: int, report_path: Path, expected: int) -> tuple:
    """(attempted, failed) claims of one CLI process.  Every claim fails if
    the process crashed or wrote no report; otherwise failing and missing
    claims fail, and a nonzero exit with no failing claim fails them all."""
    try:
        rows = json.loads(report_path.read_text())["claims"]
        failing = sum(not r.get("pass") for r in rows)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return expected, expected
    failed = failing + max(0, expected - len(rows))
    attempted = max(expected, len(rows))
    if rc != 0 and failed == 0:
        failed = attempted
    return attempted, failed


def input_verdict_ok(case: str, rc, report: dict | None) -> bool:
    """Whether one --input run gave the verdict its file was built for."""
    if report is None:
        return False
    claims = {c.get("claim_id"): c for c in report.get("claims", [])}
    is_sic = claims.get("reconstruct.input_is_sic", {}).get("observed")
    if case == "not-sic":
        return rc == 1 and is_sic is False
    group = claims.get("reconstruct.input_group", {})
    return (
        rc == 0
        and is_sic is True
        and group.get("observed") == case
        and group.get("pass") is True
        and report.get("payload", {}).get("group") == case
    )


# --- rounds ----------------------------------------------------------------


class Round:
    """One pass over a workload's operations.  ``latencies_s`` are CPU
    seconds at reference speed, like ``ref_cpu_s``."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.ref_cpu_s = 0.0
        self.latencies_s: list = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.layers: dict | None = None


def cli_round(jobs, tmp: Path, traced: bool, env: dict, ref: Reference) -> Round:
    """Each (argv, claims) job in its own fresh process, one after another.
    The round is one operation for the latency metrics: a user asks for
    ``sic4 all`` or for the seven sections, not for one section of them."""
    rnd = Round()
    traces = []
    for i, (args, expected) in enumerate(jobs):
        out = tmp / ("report_%d.json" % i)
        trace_path = tmp / ("spans_%d.json" % i) if traced else None
        for p in (out, trace_path):
            if p is not None and p.exists():
                p.unlink()
        child = run_child(cli_command(args, out, trace_path), env, ref)
        attempted, failed = cli_failures(child.rc, out, expected)
        if failed:
            print("perfbench: sic4 %s: %d of %d claims failed (exit %d)"
                  % (" ".join(args), failed, attempted, child.rc), file=sys.stderr)
        rnd.wall_s += child.wall_s
        rnd.cpu_s += child.cpu_s
        rnd.ref_cpu_s += child.ref_cpu_s
        rnd.rss_mb = max(rnd.rss_mb, child.rss_mb)
        rnd.attempted += attempted
        rnd.failed += failed
        if traced:
            try:
                traces.append(json.loads(trace_path.read_text()))
            except (OSError, ValueError):
                rnd.failed += 1
    rnd.latencies_s.append(rnd.ref_cpu_s)
    if traced:
        rnd.layers = merged_layers(traces)
    return rnd


def merged_layers(traces: list) -> dict:
    """Per-layer metrics over the traced processes of one round."""
    import spans

    records, cache = [], {}
    for t in traces:
        offset = len(records)
        records += [[n, s, e, p + offset if p >= 0 else -1, ok] for n, s, e, p, ok in t["spans"]]
        for name, (hits, misses) in t["cache"].items():
            h, m = cache.get(name, (0, 0))
            cache[name] = (h + hits, m + misses)
    return spans.layer_metrics(records, cache)


class InputBatch:
    """The seeded batch, certified in this process through sic4.cli.main.
    The reference kernel is sampled after every input."""

    def __init__(self, seed: int, tmp: Path, ref: Reference | None = None):
        import inputs

        self.ref = ref or Reference()
        self.files = inputs.write_batch(seed, tmp / "inputs")
        self.out = tmp / "input_report.json"
        import sic4.cli

        self.cli = sic4.cli
        self.certify(self.files[0][0])  # warm-up, untimed

    def certify(self, path: Path):
        """(exit code, seconds, CPU seconds); exit code None when main
        raised."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = self.cli.main(
                    ["reconstruct", "--input", str(path), "--format", "json", "--out", str(self.out)]
                )
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            return rc, time.perf_counter() - t0, time.process_time() - c0

    def round(self) -> Round:
        rnd = Round()
        first = len(self.ref.samples)
        cpus = []
        for path, case in self.files:
            if self.out.exists():
                self.out.unlink()
            rc, seconds, cpu = self.certify(path)
            try:
                report = json.loads(self.out.read_text())
            except (OSError, ValueError):
                report = None
            ok = input_verdict_ok(case, rc, report)
            if not ok:
                print("perfbench: %s (built as %s): wrong verdict or exit %s"
                      % (path.name, case, rc), file=sys.stderr)
            self.ref.sample()
            rnd.wall_s += seconds
            rnd.cpu_s += cpu
            cpus.append(cpu)
            rnd.attempted += 1
            rnd.failed += not ok
        for i, cpu in enumerate(cpus):
            lo, hi = max(0, i - INPUT_WINDOW), min(len(cpus), i + INPUT_WINDOW + 1)
            rnd.latencies_s.append(cpu * self.ref.factor(first + lo, first + hi))
        rnd.ref_cpu_s = sum(rnd.latencies_s)
        rnd.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return rnd

    def traced_round(self) -> Round:
        import spans

        tracer = spans.Tracer()
        restore, cached = spans.install(tracer)
        before = spans.cache_counts(cached)
        try:
            rnd = self.round()
        finally:
            restore()
        after = spans.cache_counts(cached)
        delta = {k: [a - b for a, b in zip(after[k], before[k])] for k in after}
        rnd.layers = spans.layer_metrics(tracer.records(), delta)
        return rnd


# --- measurement -----------------------------------------------------------


class SetupSampler:
    """Set-up time: a fresh interpreter that imports sic4 and the modules the
    workload uses (plus, for input-batch, the warm-up call), as CPU seconds
    at reference speed.  One untimed interpreter first fills the bytecode
    cache.  The run takes SETUP_FIRST samples before the first round and
    one after each round, so that one slow stretch of the machine does not
    set the median."""

    def __init__(self, workload: str, tmp: Path, warm_input: Path | None, ref: Reference):
        if workload == "input-batch":
            argv = ["reconstruct", "--input", str(warm_input), "--format", "json",
                    "--out", str(tmp / "setup_report.json")]
            code = "%s; sic4.cli.main(%r)" % (INPUT_IMPORTS, argv)
        else:
            code = CLI_IMPORTS
        self.cmd = [sys.executable, "-c", code]
        self.ref = ref
        self.samples: list = []
        self.wall: list = []
        self.take(1)
        self.samples.clear()
        self.wall.clear()

    def take(self, n: int):
        for _ in range(n):
            child = run_child(self.cmd, child_env(), self.ref)
            if child.rc != 0:
                raise RuntimeError("set-up interpreter exited with %d" % child.rc)
            self.samples.append(child.ref_cpu_s)
            self.wall.append(child.wall_s)


def tail(latencies: list) -> tuple:
    """(value, label): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it; the median when there are fewer than 20 samples.
    Taken per round and then the median over rounds, so that a stall of
    the machine in one round does not set the run's tail."""
    xs = sorted(latencies)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return statistics.quantiles(xs, n=1000, method="inclusive")[round(q * 10) - 1], "p%g" % q
    return statistics.median(xs), "p50"


def run_rounds(step, seconds: float, between=None) -> list:
    """Rounds from step() until they have taken ``seconds`` (at least one).
    between(seconds spent so far) runs after each round, off the clock."""
    rounds, spent = [], 0.0
    while not rounds or spent < seconds:
        t0 = time.perf_counter()
        rounds.append(step())
        spent += time.perf_counter() - t0
        if between is not None:
            between(spent)
    return rounds


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    env = child_env()
    ref = Reference()
    batch = None
    if workload == "paper-all":
        jobs = [PAPER_ALL]
    elif workload == "sections-cold":
        jobs = list(SECTIONS)
        random.Random(seed).shuffle(jobs)
    else:
        batch = InputBatch(seed, tmp, ref)

    def untraced():
        return batch.round() if batch else cli_round(jobs, tmp, False, env, ref)

    def traced():
        return batch.traced_round() if batch else cli_round(jobs, tmp, True, env, ref)

    if not trace:
        warm = batch.files[0][0] if batch else None
        setup = SetupSampler(workload, tmp, warm, ref)
        setup.take(SETUP_FIRST)
        rounds = run_rounds(untraced, seconds, lambda spent: setup.take(1))
        tails = [tail(r.latencies_s) for r in rounds]
        metrics = {
            "ref_cpu_s": statistics.median(r.ref_cpu_s for r in rounds),
            "setup_s": statistics.median(setup.samples),
            "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
            "input_p50_ms": statistics.median(statistics.median(r.latencies_s) for r in rounds) * 1e3,
            "input_tail_ms": statistics.median(value for value, _ in tails) * 1e3,
        }
        units = END_TO_END_UNITS
        per_round = "median over %d rounds of each round's %%s of %d samples" % (
            len(rounds), len(rounds[0].latencies_s))
        notes = {"input_tail_ms": per_round % tails[0][1],
                 "input_p50_ms": per_round % "p50",
                 "ref_cpu_s": "median of %d rounds; raw: cpu %.4g s, wall %.4g s"
                 % (len(rounds), statistics.median(r.cpu_s for r in rounds),
                    statistics.median(r.wall_s for r in rounds)),
                 "setup_s": "median of %d interpreters; raw wall %.4g s"
                 % (len(setup.samples), statistics.median(setup.wall))}
    else:
        pairs = run_rounds(lambda: (untraced(), traced()), seconds)
        rounds = [r for pair in pairs for r in pair]
        layered = [t.layers for _, t in pairs]
        metrics = {k: statistics.median(m[k] for m in layered) for k in layered[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(t.cpu_s for _, t in pairs)
            / statistics.median(u.cpu_s for u, _ in pairs) - 1.0
        )
        ratio, diag = threads_ratio(tmp, ref)
        metrics["cli.reconstruct_threads_ratio"] = ratio
        rounds += diag
        units = {k: layer_unit(k) for k in metrics}
        notes = {"trace.overhead_frac": "%d traced rounds" % len(pairs)}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {"metrics": metrics, "units": units, "notes": notes,
            "attempted": attempted, "failed": failed}


def threads_ratio(tmp: Path, ref: Reference) -> tuple:
    """cli.reconstruct_s at SIC4_THREADS=nproc over SIC4_THREADS=1, from one
    traced ``reconstruct`` process each, free to use every CPU.  Ungated:
    the diagnostic exists to decide whether the thread knob is worth
    keeping."""
    times, rounds = [], []
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        for threads in ("1", str(len(ALL_CPUS))):
            rnd = cli_round([RECONSTRUCT], tmp, True, child_env(threads), ref)
            times.append(rnd.layers["cli.reconstruct_s"])
            rounds.append(rnd)
    finally:
        os.sched_setaffinity(0, pinned)
    return (times[1] / times[0] if times[0] else 0.0), rounds


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls"):
        return "count"
    return "ratio"


# --- entry point -----------------------------------------------------------


def result_line(res: dict) -> str:
    metrics = {
        k: {"value": float(v), "unit": res["units"][k]} for k, v in sorted(res["metrics"].items())
    }
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    })


def print_metrics(workload: str, res: dict):
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print("workload %s: %d operations, %d failed, fail_frac %.4g"
          % (workload, res["attempted"], res["failed"], frac))
    for k, v in sorted(res["metrics"].items()):
        note = res["notes"].get(k)
        print("  %-40s %14.6g %-6s%s" % (k, v, res["units"][k], "  (%s)" % note if note else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sic4" / "cli.py").is_file():
        print("perfbench: no sic4 sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be positive")

    # the benchmark and every sic4 process it starts share one CPU, which
    # the reference kernel samples
    os.sched_setaffinity(0, {max(ALL_CPUS)})
    sic4_threads = os.environ.pop("SIC4_THREADS", None)
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(SRC), str(HERE)]
    print("env " + json.dumps(environment()))
    if sic4_threads is not None:
        print("perfbench: SIC4_THREADS=%s ignored on gated workloads" % sic4_threads)

    # a terminated benchmark still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), tmp)
            print_metrics(name, results[name])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        print(json.dumps({n: json.loads(result_line(r)) for n, r in results.items()}))
    else:
        print(result_line(results[args.workload]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
