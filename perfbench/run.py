"""Run one odkit benchmark workload and print its result.

    python3 perfbench/run.py --workload prep-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root: odkit is imported from ``./src`` and
nowhere else, so a tree without the library fails instead of measuring
some other copy.

``--trace 0`` sets the workload up, runs it closed loop for ``--seconds``,
checks its outputs, then times repeated set-ups (``setup_s`` is the
median) and prints the end-to-end metrics. ``--trace 1`` is the traced run: every
per-layer metric belongs to one of the four workloads, so it profiles all
four, each first untraced and then traced over the same operations, and
prints the per-layer metrics plus each workload's tracing overhead.
Spans are written to ``.perfbench/spans-<workload>-seed<n>.jsonl``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is a JSON
object ``{"detail": ...}`` with the environment, the workload's input
properties and its metrics under the names used in README.md, each with
its unit and sample count. ``--workload all`` runs each workload in its
own process and prints those named metrics as a table.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# set-up runs at least this often and until this much time has passed;
# setup_s is the median. A sub-millisecond set-up thus gets thousands of
# samples, and its median is not timer noise. Set-ups run back to back in
# groups of at least SETUP_GROUP_S, with a calibration between groups: one
# between every two set-ups would evict what a short set-up keeps in cache.
SETUP_REPEATS, SETUP_MIN_S, SETUP_GROUP_S = 5, 3.0, 0.05
# about what calibrate() takes on the 2-CPU x86-64 container the benchmark
# was written on; times are reported as if measured on that machine
CAL_REF_S = 0.004
WORKLOAD_NAMES = ("prep-dense", "eval-crowded", "dataset-io", "tune")
# a run that has not finished by then is stuck; give up well inside the
# 180 s a run may take
WATCHDOG_S = 170


def import_odkit() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import odkit
    except ImportError as e:
        sys.exit(f"perfbench: cannot import odkit from {src}: {e}")
    if Path(odkit.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: odkit was imported from {odkit.__file__}, not {src}")


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import scipy
    from odkit import matching
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "thread_cap": matching.thread_cap(),
            "ODF_THREADS": os.environ.get("ODF_THREADS"), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


_CAL_ROWS = np.random.default_rng(0).random((24, 1521))


def _sort_rows():
    np.argsort(_CAL_ROWS, axis=1, kind="stable")


def calibrate(threads: int = 1) -> float:
    """Time a fixed mix of interpreter work and numpy row sorts, in
    seconds. The sorts run on ``threads`` threads at once, so a workload
    that keeps several CPUs busy is scaled by how fast all of them are.
    The result is the median of three rounds, so that one preempted round
    does not count."""
    rounds = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        workers = [threading.Thread(target=_sort_rows) for _ in range(threads - 1)]
        for w in workers:
            w.start()
        _sort_rows()
        for w in workers:
            w.join()
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds)


def speed_factor(before: float, after: float) -> float:
    """Scale that turns a time measured between two calibrations into the
    time on a machine whose calibration takes CAL_REF_S."""
    return CAL_REF_S / ((before + after) / 2)


def measure(wl, seconds: float | None = None, ops: int | None = None) -> int:
    """Run operations back to back, for ``seconds`` (at least one, and on
    until the workload is done) or for exactly ``ops``; return the count.
    A calibration runs between operations, and each operation's times are
    scaled by the speed measured on either side of it."""
    n, t0 = 0, time.perf_counter()
    before = calibrate(wl.threads)
    while (n < ops) if ops is not None else (
            n == 0 or time.perf_counter() - t0 < seconds or not wl.done()):
        mark = wl.mark()
        wl.op()
        after = calibrate(wl.threads)
        wl.rescale(mark, speed_factor(before, after))
        before = after
        n += 1
    return n


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def time_setups(cls, seed: int, workdir: Path) -> list[float]:
    """Set a fresh workload up again and again; return each set-up's time,
    scaled by the calibrations on either side of its group."""
    setup_s = []
    before = calibrate()
    start = time.perf_counter()
    while len(setup_s) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        group, t_group = [], time.perf_counter()
        while not group or time.perf_counter() - t_group < SETUP_GROUP_S:
            wl = cls()
            t0 = time.perf_counter()
            wl.setup(seed, str(workdir))
            group.append(time.perf_counter() - t0)
        after = calibrate()
        setup_s += [t * speed_factor(before, after) for t in group]
        before = after
    return setup_s


def run_untraced(args, workdir: Path):
    from tracing import percentile
    from workloads import WORKLOADS, peak_rss_mb

    cls = WORKLOADS[args.workload]
    wl = cls()
    wl.setup(args.seed, str(workdir))
    try:
        # the first calibration of a process runs cold; it scales only
        # the warm-up, whose timings are dropped
        measure(wl, ops=wl.WARMUP_OPS)
        wl.clear_timings()
        measure(wl, seconds=args.seconds)
    finally:
        wl.close()
    wl.verify()
    peak_at_end = peak_rss_mb()
    # set-up is timed after the run: its repeats would otherwise raise the
    # peak that peak_rss_mb reports, by an amount that varies with how many
    # fit in SETUP_MIN_S
    setup_s = time_setups(cls, args.seed, workdir)
    lat = wl.latencies_ms
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(wl.first_peak_rss_mb, "MB"),
        "items_per_s": metric(wl.items / wl.busy_s if wl.busy_s else 0.0, "1/s"),
        "latency_ms_p50": metric(percentile(lat, 50) if lat else 0.0, "ms"),
        "latency_ms_p90": metric(percentile(lat, 90) if lat else 0.0, "ms"),
    }
    named = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in wl.named_metrics().items()}
    named["setup_s"] = {"value": metrics["setup_s"]["value"], "unit": "s", "n": len(setup_s)}
    named["peak_rss_mb"] = {"value": metrics["peak_rss_mb"]["value"], "unit": "MB", "n": 1}
    named["error_frac"] = {"value": wl.failed / wl.attempted if wl.attempted else 1.0,
                           "unit": "frac", "n": wl.attempted}
    detail = {"item": wl.item, "latency_op": wl.op_unit, "latency_samples": len(lat),
              "peak_rss_mb_at_end": peak_at_end,
              "unscaled_items_per_s": wl.items / wl.raw_busy_s if wl.raw_busy_s else 0.0,
              "speed_factor_p50": statistics.median(wl.factors) if wl.factors else None,
              "properties": wl.properties(), "named": named, "errors": wl.errors}
    return wl.attempted, wl.failed, metrics, detail


def run_traced(args, workdir: Path):
    from tracing import Tracer
    from workloads import WORKLOADS, install_wraps

    attempted = failed = 0
    metrics, detail = {}, {"missing": [], "errors": {}, "properties": {}}
    budget = args.seconds / (2 * len(WORKLOADS))
    for name, cls in WORKLOADS.items():
        wl = cls()
        wl.setup(args.seed, str(workdir))
        tr = Tracer()
        try:
            # the untraced pass must not be the one that pays first-call costs
            measure(wl, ops=max(wl.WARMUP_OPS, 1))
            wl.reset()
            wl.clear_timings()
            n = measure(wl, seconds=budget)
            plain_s = wl.busy_s
            wl.reset()
            install_wraps(tr)
            wl.tracer = tr
            measure(wl, ops=n)
            traced_s = wl.busy_s - plain_s
        finally:
            tr.unwrap_all()
            wl.tracer = None
            wl.close()
        for key, (value, unit) in wl.layer_metrics(tr, n).items():
            metrics[key] = metric(value, unit)
        metrics[f"trace.overhead_frac.{name}"] = metric(
            traced_s / plain_s - 1.0 if plain_s else 0.0, "frac")
        tr.write(OUT / f"spans-{name}-seed{args.seed}.jsonl")
        wl.verify()
        attempted += wl.attempted
        failed += wl.failed
        detail["missing"] += tr.missing
        detail["errors"][name] = wl.errors
        detail["properties"][name] = wl.properties()
    return attempted, failed, metrics, detail


def run_all(args) -> int:
    """Run every workload in its own process; print each named metric."""
    ok = True
    print(f"{'workload':<14} {'metric':<24} {'value':>14} {'unit':<6} {'n':>7}")
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=WATCHDOG_S + 10)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<14} failed with exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        ok = ok and result["correct"]
        for key, m in detail["named"].items():
            value = "-" if m["value"] is None else f"{m['value']:.4f}"
            print(f"{name:<14} {key:<24} {value:>14} {m['unit']:<6} {m['n']:>7}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    import_odkit()
    if args.workload == "all":
        return run_all(args)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics, detail = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": {"env": environment(args), **detail}}))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
