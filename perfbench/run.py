"""Benchmark for socialgraph: fixed-seed workloads, end-to-end metrics,
output checks against independent references, and a traced run that
gives per-layer numbers.

    python3 perfbench/run.py --workload travel-serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Run it from the repository root; it imports the package from ``src/``
next to this directory and refuses to run without it. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``. See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

from oracles import CheckFailed
from probe import NOMINAL_S, Probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE_EVERY_S = 0.1
SETUP_REPS_BEFORE = 3
SETUP_REPS_AFTER = 4
IMPORT_REPS = 3
SUBCOMMANDS = ("query", "recommend", "discover", "build-index", "topk", "group", "explain")
# Per-operation latencies printed in the table, per workload.
OP_METRICS = {
    "travel-serve": ("cf_recommend", "discover", "content_recommend", "explain", "group", "query_script"),
    "tag-search": ("topk",),
    "index-build": ("index_build", "graph_io", "snapshot_io"),
    "cli": (),
}


class Meter:
    """Latencies of one timed phase, rescaled to the reference host.

    The reference loop (``probe``) is timed before the phase and again
    whenever the operations have been busy for ``PROBE_EVERY_S`` since
    the last probe. An operation's time is rescaled by NOMINAL_S over the
    mean of the probes just before and just after it. ``busy`` stays in
    raw wall seconds: it decides how long the phase runs.
    """

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.probes = [probe()]
        self.busy = 0.0
        self._since_probe = 0.0
        self._ops: list = []  # (name, round index, in round, raw seconds, probe index before)
        self._keys: list = []  # round index -> key

    @contextmanager
    def op(self, name: str, span: str | None = None, in_round: bool = True):
        with self.tracer.span(span or f"op.{name}") if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
        self._ops.append((name, len(self._keys), in_round, elapsed, len(self.probes) - 1))
        self.busy += elapsed
        self._since_probe += elapsed
        if self._since_probe >= PROBE_EVERY_S:
            self.probes.append(self.probe())
            self._since_probe = 0.0

    def end_round(self, key) -> None:
        self._keys.append(key)

    def finish(self) -> None:
        self.probes.append(self.probe())

    def _scaled(self, raw: float, before: int) -> float:
        return raw * NOMINAL_S / ((self.probes[before] + self.probes[before + 1]) / 2)

    def samples(self, name: str) -> list:
        """Rescaled seconds of every ``name`` operation."""
        return [self._scaled(raw, b) for n, _, _, raw, b in self._ops if n == name]

    def per_round(self, name: str) -> list:
        """Rescaled seconds of the ``name`` steps, summed per round."""
        sums: dict = {}
        for n, r, _, raw, b in self._ops:
            if n == name:
                sums[r] = sums.get(r, 0.0) + self._scaled(raw, b)
        return list(sums.values())

    def rounds(self) -> list:
        """Rescaled seconds of each round's in-round operations."""
        out = [0.0] * len(self._keys)
        for _, r, in_round, raw, b in self._ops:
            if in_round:
                out[r] += self._scaled(raw, b)
        return out

    def scaled_busy(self) -> float:
        return sum(self._scaled(raw, b) for _, _, _, raw, b in self._ops)


def timed_phase(wl, state, seconds, meter, first, failures, start_round=0):
    """Run whole rounds until the operations have been busy for
    ``seconds``. Returns (rounds, attempted, failed)."""
    i = start_round
    failed = attempted = 0
    while meter.busy < seconds:
        key, outputs, nfail = wl.run_round(state, i, meter)
        meter.end_round(key)
        i += 1
        attempted += wl.ops_per_round
        failed += nfail
        try:
            with meter.tracer.paused() if meter.tracer else nullcontext():
                wl.verify(state, key, outputs, first)
        except CheckFailed as e:
            failures.append(e)
    meter.finish()
    return i - start_round, attempted, failed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_checks(wl, state, first, failures) -> None:
    try:
        wl.check_setup(state)
    except CheckFailed as e:
        failures.append(e)
    for key, outputs in first.items():
        try:
            wl.check(state, key, outputs)
        except CheckFailed as e:
            failures.append(e)


def import_ms(env, probe) -> float:
    """Median time of ``import socialgraph.cli`` in a fresh interpreter,
    rescaled like the operations."""
    code = "import time; t = time.perf_counter(); import socialgraph.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPS):
        before = probe()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        ).stdout
        times.append(float(out) * 1000 * NOMINAL_S / ((before + probe()) / 2))
    return statistics.median(times)


def make_workload(name: str):
    from workloads import WORKLOADS, Cli

    return Cli(SRC) if name == "cli" else WORKLOADS[name]()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(args, workdir: str) -> dict:
    wl = make_workload(args.workload)
    if args.workload == "cli":
        wl.preflight(SRC)
    probe = Probe()
    setup_times = []

    def set_up():
        gc.collect()
        before = probe()
        start = time.perf_counter()
        state = wl.setup(args.seed, args.scale, workdir)
        raw = time.perf_counter() - start
        setup_times.append(raw * NOMINAL_S / ((before + probe()) / 2))
        return state

    # Set-up is timed both before and after the timed phase, so that its
    # median spans the same stretch of the run as the operations.
    for _ in range(SETUP_REPS_BEFORE):
        state = None
        state = set_up()
    wl.prepare_checks(state)
    gc.collect()
    meter, first, failures = Meter(probe), {}, []
    rounds, attempted, failed = timed_phase(wl, state, args.seconds, meter, first, failures)
    rss = peak_rss_mb(children=args.workload == "cli")
    run_checks(wl, state, first, failures)
    state = first = None
    for _ in range(SETUP_REPS_AFTER):
        set_up()

    round_times = meter.rounds()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (attempted / meter.scaled_busy(), "ops/s"),
        "round_p50_ms": (statistics.median(round_times) * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    table = [
        ("raw_ops_per_s", attempted / meter.busy, "ops/s", attempted),
        ("probe_p50_ms", statistics.median(meter.probes) * 1000, "ms", len(meter.probes)),
    ]
    names = OP_METRICS[args.workload] + (wl.SESSION if args.workload == "cli" else ())
    for name in names:
        # A top-k round is a batch: its latencies are per query.
        times = meter.samples(name) if name == "topk" else meter.per_round(name)
        table.append((f"{name}_p50_ms", statistics.median(times) * 1000, "ms", len(times)))
        if len(times) >= 100:
            table.append((f"{name}_p90_ms", percentile(times, 90) * 1000, "ms", len(times)))
    if args.workload == "cli":
        table.append(("cli_session_p50_ms", metrics["round_p50_ms"][0], "ms", len(round_times)))
    return {
        "rounds": rounds, "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics, "table": table,
    }


def measure_traced(args, workdir: str) -> dict:
    """Untraced half, then traced half, of the same workload and state."""
    import socialgraph
    from spans import Tracer, layer_metrics

    wl = make_workload(args.workload)
    if args.workload == "cli":
        wl.in_process = True
    probe = Probe()
    tracer = Tracer()
    tracer.install(socialgraph)
    with tracer.span("setup"):
        state = wl.setup(args.seed, args.scale, workdir)
    tracer.uninstall()
    wl.prepare_checks(state)
    gc.collect()
    first, failures = {}, []
    plain = Meter(probe)
    rounds0, attempted0, failed0 = timed_phase(wl, state, args.seconds / 2, plain, first, failures)
    gc.collect()
    since, counts_before = len(tracer.spans), Counter(tracer.counts)
    traced = Meter(probe, tracer)
    tracer.install(socialgraph)
    try:
        rounds1, attempted1, failed1 = timed_phase(
            wl, state, args.seconds / 2, traced, first, failures, start_round=rounds0
        )
    finally:
        tracer.uninstall()
    run_checks(wl, state, first, failures)

    untraced_rate = attempted0 / plain.scaled_busy()
    traced_rate = attempted1 / traced.scaled_busy()
    # Span times are rescaled by the traced half's overall factor.
    scale = traced.scaled_busy() / traced.busy
    metrics = layer_metrics(tracer, since, counts_before, rounds1, SUBCOMMANDS, scale)
    metrics["cli.import_ms"] = (import_ms(make_workload("cli").env, probe), "ms")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")

    out_dir = os.path.join(HERE, "traces")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-scale{args.scale}")
    tracer.write_spans(stem + ".spans.tsv")
    with open(stem + ".layers.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# per round of the traced half ({rounds1} rounds); sizes per call\n")
        for name, (value, unit) in metrics.items():
            fh.write(f"{name}\t{value:.6g}\t{unit}\n")
    return {
        "rounds": rounds0 + rounds1, "attempted": attempted0 + attempted1, "failed": failed0 + failed1,
        "failures": failures, "metrics": metrics, "table": [], "files": [stem + ".spans.tsv", stem + ".layers.txt"],
    }


def run_one(args) -> int:
    workdir = fresh_dir(os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}"))
    try:
        result = (measure_traced if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  trace {args.trace}  "
          f"rounds {result['rounds']}  attempted {result['attempted']}  failed {result['failed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<40} {value:>14.4f} {unit}")
    for name, value, unit, n in result["table"]:
        print(f"  {name:<40} {value:>14.4f} {unit}  (n={n})")
    for path in result.get("files", ()):
        print(f"  wrote {os.path.relpath(path, ROOT)}")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=("all", "travel-serve", "tag-search", "index-build", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="busy time the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run giving per-layer metrics")
    parser.add_argument("--scale", type=int, default=1,
                        help="multiply every fixture's node counts (README's second size is 3)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "socialgraph", "__init__.py")):
        print(f"error: no socialgraph package under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so that the host-speed
    # probe runs where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import socialgraph

    if not os.path.abspath(socialgraph.__file__).startswith(SRC + os.sep):
        print(f"error: imported socialgraph from {socialgraph.__file__}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
