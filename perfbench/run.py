#!/usr/bin/env python3
"""Benchmark of the lightningpoly library: rate sweeps, quadrature checks
and lightning Laplace solves, timed end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  One single-threaded process runs the workload's cells
back to back (a closed loop with one caller) in whole passes, each pass a
seed-dependent permutation of the fixed cell grid, until ``--seconds`` have
passed and at least three passes are done.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Cell times
are each cell's median over the run's passes: ``wall_s`` is their sum (one
typical pass) and ``cell_ms_p50``/``cell_ms_p90`` are percentiles over them.
``setup_s`` is the median over nine fresh processes of the time from spawn
to the first timed cell.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics (the smallest value over traced
passes) plus the tracing overhead, the traced minus the untraced sum of
median cell times.  The last stdout line is the JSON result; the line
before it holds the environment and the per-experiment detail.  Results,
spans and the state used to compare runs of the same code are written under
``.perfbench-out/`` in the checkout.

End-to-end times are scaled to a reference host speed.  A shared host runs
the same code up to twice as slowly from one minute to the next, as other
tenants load the cores.  Before each cell an untraced pass runs a fixed
calibration chunk, which does not call the library, once or more (about 5%
of the pass's time), and every end-to-end time is multiplied by
``REFERENCE_CHUNK_S`` over the chunk's mean time in the run (the median over
passes of each pass's mean).  The unscaled times and the factor are in the
detail line.

``correct`` requires that every pass gives byte-identical output rows, that
rows and exact work counts equal those of earlier runs of the same code
(whatever their seed), and that no experiment's headline error is worse than
ten times, or its rate gap more than 0.05 above, the values in
``reference.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("LIGHTNING_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
MIN_PASSES = 3
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
# mean calibration chunk time on the host the reference figures come from
# (2-vCPU "Intel Xeon Processor" VM); end-to-end times are scaled to it
REFERENCE_CHUNK_S = 1.3e-3
CALIBRATION_SHARE = 0.05
REF_ERR_FACTOR = 10.0
REF_GAP_SLACK = 0.05


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-fit", "sweep-verify", "quadrature", "laplace"))
    ap.add_argument("--seed", type=int, required=True,
                    help="permutes the order of cells within each pass")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced grid (two cells per experiment) for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up, print the monotonic clock, exit")
    return ap.parse_args(argv)


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup(workload, smoke):
    """Imports, inputs and one untimed warm-up cell; returns the experiments."""
    import workloads

    experiments = workloads.build(workload, smoke)
    experiments[0].cells[0].run()
    return experiments


def measure_setup(args) -> list:
    """Wall time from spawning a fresh process to its first timed cell."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def heap_trimmer():
    """glibc's malloc_trim, or a no-op where it is missing.  Trimming before
    each cell returns freed heap to the system, so a cell's memory and time
    do not depend on which cells ran before it."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


class Calibration:
    """A fixed chunk of interpreter arithmetic, small-array numpy calls and a
    small least-squares solve, the kinds of work the library's cells do.  It
    never calls the library, so its time tracks only the host's speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((200, 40))
        self.b = rng.standard_normal(200)
        self.x = np.linspace(0.1, 1.0, 32)

    def chunk(self) -> float:
        """Run one chunk; returns its wall time in seconds."""
        np = self.np
        t0 = time.perf_counter()
        s = 0.0
        for i in range(2000):
            s += (i * 0.5) ** 0.5
        x = self.x
        for _ in range(100):
            x = np.sqrt(x * x + 1.0) - 0.5
        np.linalg.lstsq(self.a, self.b, rcond=None)
        return time.perf_counter() - t0


class Pass(NamedTuple):
    traced: bool
    wall_s: float
    latencies: list  # seconds, by cell index
    rows: list       # output row by cell index, None where the cell failed
    payloads: list
    failures: list   # (cell index, message)
    chunk_s: list    # calibration chunk times, empty in a traced pass


def run_pass(cells, order, trim, calibration, last, tracer=None) -> Pass:
    """Run the cells in the given order.  An untraced pass runs calibration
    chunks before each cell, as many as make CALIBRATION_SHARE of the cell's
    latency ``last`` (by cell index; from the previous pass), at least one."""
    n = len(cells)
    rows, payloads, latencies = [None] * n, [None] * n, [None] * n
    failures, chunk_s = [], []
    gc.collect()
    start = time.perf_counter()
    for i in order:
        trim()
        if tracer is None:
            reps = max(1, round(CALIBRATION_SHARE * last[i] / REFERENCE_CHUNK_S))
            chunk_s += [calibration.chunk() for _ in range(reps)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                row, payload = cells[i].run()
            else:
                row, payload = tracer.call("bench.cell", cells[i].run, (), {})
        except Exception:  # a failing cell is counted and the pass goes on
            latencies[i] = time.perf_counter() - t0
            failures.append((i, traceback.format_exc(limit=3)))
            continue
        latencies[i] = time.perf_counter() - t0
        if "nan" in row or "inf" in row:
            failures.append((i, f"non-finite output row {row!r}"))
            continue
        rows[i], payloads[i] = row, payload
    return Pass(tracer is not None, time.perf_counter() - start, latencies, rows,
                payloads, failures, chunk_s)


def median_latencies(passes):
    """Each cell's median latency over the given passes."""
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def host_factor(passes) -> float:
    """REFERENCE_CHUNK_S over the calibration chunk's mean time in the run:
    the median over passes of each pass's mean."""
    return REFERENCE_CHUNK_S / statistics.median(statistics.fmean(p.chunk_s) for p in passes)


def tail_percentile(n: int) -> float:
    """p90, or the highest percentile with ten samples beyond it."""
    return min(90.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [HERE / "reference.json"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, digest):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # the config layout differs between numpy versions
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def check_experiments(experiments, cells, payloads, reference):
    """Verdict of every experiment from one pass's payloads, and the
    reference violations."""
    detail, problems = [], []
    by_exp = {e.name: [] for e in experiments}
    for cell, payload in zip(cells, payloads):
        by_exp[cell.experiment].append(payload)
    for exp in experiments:
        got = by_exp[exp.name]
        if any(p is None for p in got):
            problems.append(f"{exp.name}: cells without output")
            continue
        v = exp.check(got)
        detail.append({"experiment": exp.name, "headline_err": v.headline_err,
                       "rate_gaps": list(v.rate_gaps), "cli_pass": bool(v.cli_pass)})
        if reference is None:
            continue
        ref = reference[exp.name]
        if v.headline_err is not None and not v.headline_err <= REF_ERR_FACTOR * ref["headline_err"]:
            problems.append(f"{exp.name}: headline error {v.headline_err:.3e} above "
                            f"{REF_ERR_FACTOR:g}x reference {ref['headline_err']:.3e}")
        for gap, ref_gap in zip(v.rate_gaps, ref["rate_gaps"]):
            if ref_gap is not None and (gap is None or gap > ref_gap + REF_GAP_SLACK):
                problems.append(f"{exp.name}: rate gap {gap} above reference "
                                f"{ref_gap:.4f} + {REF_GAP_SLACK}")
    return detail, problems


def compare_state(args, digest, rows, counts):
    """Rows and exact counts must match earlier runs of the same code."""
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-{digest[:16]}"
    path = OUT / f"state-{tag}.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    rows_sha = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    if state.setdefault("rows_sha256", rows_sha) != rows_sha:
        problems.append("output rows differ from an earlier run of the same code")
    if counts is not None:
        if state.setdefault("counts", counts) != counts:
            diff = {k: (state["counts"].get(k), v) for k, v in counts.items()
                    if state["counts"].get(k) != v}
            problems.append(f"work counts differ from an earlier run: {diff}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lightningpoly" / "__init__.py").is_file():
        print(f"perfbench: no lightningpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        setup(args.workload, args.smoke)
        print(repr(monotonic()))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    setup_samples = [] if args.trace else measure_setup(args)
    experiments = setup(args.workload, args.smoke)

    import tracing
    import lightningpoly

    if Path(lightningpoly.__file__).resolve().parent != (ROOT / "src" / "lightningpoly").resolve():
        print(f"perfbench: imported {lightningpoly.__file__}, not the checkout's sources",
              file=sys.stderr)
        return 2

    cells = [c for e in experiments for c in e.cells]
    rng = random.Random(args.seed)
    trim = heap_trimmer()
    calibration = Calibration()
    last = [0.0] * len(cells)
    passes, tracers = [], []
    start = time.perf_counter()
    # whole passes only: stop before a pass that would end past the deadline
    while (len(passes) < MIN_PASSES
           or time.perf_counter() + statistics.mean(p.wall_s for p in passes)
           < start + args.seconds):
        order = rng.sample(range(len(cells)), len(cells))
        if args.trace and len(passes) % 2 == 1:
            tracers.append(tracing.Tracer())
            with tracers[-1].patched():
                passes.append(run_pass(cells, order, trim, calibration, last, tracers[-1]))
        else:
            passes.append(run_pass(cells, order, trim, calibration, last))
            last = passes[-1].latencies

    digest = source_digest()
    problems = []
    first_rows = passes[0].rows
    for k, p in enumerate(passes[1:], start=1):
        diff = [i for i, (a, b) in enumerate(zip(first_rows, p.rows))
                if a is not None and b is not None and a != b]
        if diff:
            problems.append(f"pass {k} rows differ from pass 0 at cells {diff[:5]}")
    failures = [(k, i, msg) for k, p in enumerate(passes) for i, msg in p.failures]
    attempted = len(cells) * len(passes)

    reference = None
    if not args.smoke:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    detail, ref_problems = check_experiments(experiments, cells, passes[0].payloads, reference)
    problems += ref_problems

    layer_runs = [tracing.layer_metrics(t.spans, t.counts) for t in tracers]
    counts = None
    if layer_runs:
        counts = {k: layer_runs[0][k] for k in tracing.EXACT_COUNTS}
        for run in layer_runs[1:]:
            if {k: run[k] for k in tracing.EXACT_COUNTS} != counts:
                problems.append("work counts differ between traced passes")
    if all(r is not None for r in first_rows):
        problems += compare_state(args, digest, first_rows, counts)

    plain = [p for p in passes if not p.traced]
    raw_ms = [1e3 * t for t in median_latencies(plain)]
    factor = host_factor(plain)
    cell_ms = [factor * t for t in raw_ms]
    q_tail = tail_percentile(len(cell_ms))
    headlines = [d["headline_err"] for d in detail if d["headline_err"] is not None]
    gaps = [g for d in detail for g in d["rate_gaps"] if g is not None]
    if args.trace:
        traced = [p for p in passes if p.traced]
        values = {k: min(r[k] for r in layer_runs) for k in layer_runs[0]}
        values["trace.overhead_s"] = sum(median_latencies(traced)) - 1e-3 * sum(raw_ms)
        values["trace.spans"] = len(tracers[0].spans)
    else:
        values = {
            "setup_s": factor * statistics.median(setup_samples),
            "wall_s": 1e-3 * sum(cell_ms),
            "cell_ms_p50": percentile(cell_ms, 50.0),
            "cell_ms_p90": percentile(cell_ms, q_tail),
            "digits": -math.log10(max(headlines)) if headlines else float("nan"),
            "ok_frac": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    env = environment(args, digest)
    info = {
        "env": env,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "traced_passes": [p.traced for p in passes],
        "cells_per_pass": len(cells),
        "cell_median_ms_unscaled": raw_ms,
        "cell_samples": len(cell_ms),
        "cell_tail_percentile": q_tail,
        "setup_samples_s": setup_samples,
        "host_factor": factor,
        "calibration_chunks": sum(len(p.chunk_s) for p in plain),
        "rate_gap": max(gaps) if gaps else None,
        "fail_frac": len(failures) / attempted,
        "experiments_cli_pass": sum(d["cli_pass"] for d in detail),
        "experiments": detail,
        "failures": [f"pass {k} cell {i}: {msg}" for k, i, msg in failures[:10]],
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, sort_keys=True))
    if tracers:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for k, t in enumerate(tracers):
                for name, start, end, parent in t.spans:
                    fh.write(json.dumps([k, name, start, end, parent]) + "\n")
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
