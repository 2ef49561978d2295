"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload refute_c5315 --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from ``src/`` next to this directory; the run
fails (exit code 2, no result line) when that source tree is missing.
With ``--trace 0`` the run repeats whole passes over the workload while
they fit in ``--seconds`` (at least one pass) and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from layers import PER_LAYER, install  # noqa: E402
from spans import Tracer, spans_to_json  # noqa: E402
from summary import fraction, geomean  # noqa: E402
from workloads import WORKLOADS, latency_tail  # noqa: E402

#: cold set-ups per run; ``setup_s`` is their median
SETUPS = 3

#: interpreter hash seed of every run and of the processes it starts
HASH_SEED = "0"

#: end-to-end metric -> unit, in report order (BENCHMARK.json lists them)
END_TO_END = {
    "setup_s": "s", "optimize_s": "s", "jobs_per_s": "jobs/s",
    "job_latency_p50_s": "s", "delay_ratio": "ratio",
    "area_ratio": "ratio", "peak_rss_mb": "MB",
}
#: printed next to them in every table; per-layer metrics in the JSON
#: line because they are 0 on most workloads or need >= 40 samples
EXTRA = ("job_latency_p75_s", "unverified_frac", "failed_frac")
UNITS = {**END_TO_END, **{k: PER_LAYER[k][0] for k in PER_LAYER}}


def _have_program() -> bool:
    if os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return True
    print(f"perfbench: no program source at {SRC}", file=sys.stderr)
    return False


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _one_pass(workload, seed, workdir, tracer=None):
    """Set up, run one pass and close; with a ``tracer`` its wrappers
    are installed after set-up (daemon workers fork untraced)."""
    state = workload.setup(seed, workdir)
    try:
        if tracer is None:
            return workload.run(state, seed)
        install(tracer)
        try:
            return workload.run(state, seed, tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.close(state)


def setup_seconds(name: str, seed: int, workdir: str) -> list:
    """:data:`SETUPS` cold set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, "-B", os.path.join(HERE, "setup_once.py"),
           name, str(seed), workdir]
    return [float(subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                                 text=True).stdout.split()[-1])
            for _ in range(SETUPS)]


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: str):
    """Passes of ``workload``; returns ``(passes, spans)``.

    Every pass gets a fresh setup (a fresh service root for the
    service), so passes do the same work.
    """
    passes = []
    spans = []
    if trace:
        tracer = Tracer()
        passes.append(_one_pass(workload, seed, workdir))
        passes.append(_one_pass(workload, seed, workdir, tracer))
        spans = tracer.spans
    else:
        start = time.perf_counter()
        while True:
            passes.append(_one_pass(workload, seed, workdir))
            if time.perf_counter() - start + passes[-1].wall > seconds:
                break
    return passes, spans


def end_to_end(passes, setup_times) -> dict:
    units = [u for p in passes for u in p.units]
    ok = [u for u in units if not u.failed]
    wall = sum(p.wall for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "optimize_s": statistics.median([p.wall for p in passes]),
        "jobs_per_s": len(ok) / wall if wall > 0 else 0.0,
        "job_latency_p50_s": statistics.median([u.seconds for u in ok])
        if ok else 0.0,
        "delay_ratio": geomean([u.delay_after / u.delay_before
                                for u in ok]),
        "area_ratio": geomean([u.area_after / u.area_before for u in ok]),
        "peak_rss_mb": _peak_rss_mb(),
        "job_latency_p75_s": latency_tail(units),
        "unverified_frac": fraction(
            sum(1 for u in units if u.equivalent is not True), len(units)),
        "failed_frac": fraction(len(units) - len(ok), len(units)),
    }


def per_layer(passes, e2e: dict) -> dict:
    """Every per-layer metric, from the traced (last) pass; 0 where
    the workload has no such layer."""
    untraced, traced = passes[0], passes[-1]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(traced.layers)
    values["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    for name in EXTRA:
        values[name] = e2e[name] if e2e[name] is not None else 0.0
    return values


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_units(workload_name: str, passes) -> None:
    print(f"{'workload':16} {'pass':>4} {'unit':14} {'seconds':>9} "
          f"{'run_s':>9} {'commits':>7} {'delay before -> after':>22} "
          f"{'area before -> after':>21} {'dispatched':>10} "
          f"{'signature':16} {'equiv':>5} check")
    for i, p in enumerate(passes):
        for u in p.units:
            print(f"{workload_name:16} {i:4d} {u.name:14} "
                  f"{u.seconds:9.3f} {u.run_seconds:9.3f} {u.commits:7d} "
                  f"{u.delay_before:9.3f} -> {u.delay_after:9.3f} "
                  f"{u.area_before:8.1f} -> {u.area_after:8.1f} "
                  f"{u.dispatched:10d} {u.signature:16} "
                  f"{str(u.equivalent):>5} {u.failed or 'ok'}")


def print_metrics(title: str, values: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:28} {_fmt(value):>14} {UNITS.get(name, '')}")


def run_one(args) -> int:
    if not _have_program():
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    # Kept after the run: it holds the service passes' spools (job
    # journals, results, verdict store).
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setup_times = setup_seconds(args.workload, args.seed, workdir)
    passes, spans = measure(workload, args.seed, args.seconds,
                            bool(args.trace), workdir)
    e2e = end_to_end(passes, setup_times)
    print_units(args.workload, passes)
    print_metrics(f"{args.workload}: end-to-end (seed {args.seed}, "
                  f"{len(passes)} passes, {len(setup_times)} setups)",
                  e2e)
    units = [u for p in passes for u in p.units]
    failed = sum(1 for u in units if u.failed)
    if args.trace:
        metrics = per_layer(passes, e2e)
        print_metrics(f"{args.workload}: per-layer (traced pass, "
                      f"{len(spans)} spans)", metrics)
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "e2e": e2e, "metrics": metrics,
                       "units": [[u.row() for u in p.units]
                                 for p in passes],
                       "spans": spans_to_json(spans)}, fh)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined report."""
    if not _have_program():
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    reports = {}
    for name in WORKLOADS:
        path = os.path.join(WORKDIR, f"report-{name}-s{args.seed}.json")
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--report", path]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return proc.returncode
        with open(path) as fh:
            reports[name] = json.load(fh)
    cols = list(END_TO_END) + list(EXTRA)
    print(f"{'workload':16}" + "".join(
        f"{c + ' [' + UNITS[c] + ']':>30}" for c in cols))
    for name, rep in reports.items():
        print(f"{name:16}" + "".join(f"{_fmt(rep['e2e'][c]):>30}"
                                     for c in cols))
    print()
    print(f"{'workload':16} {'unit':14} {'seconds':>9} {'commits':>7} "
          f"{'delay_ratio':>11} {'area_ratio':>10} {'dispatched':>10} "
          f"{'signature':16} {'equiv':>5} check")
    for name, rep in reports.items():
        for u in rep["units"][-1]:
            print(f"{name:16} {u['name']:14} {u['seconds']:9.3f} "
                  f"{u['commits']:7d} "
                  f"{_ratio(u['delay_after'], u['delay_before']):11.6f} "
                  f"{_ratio(u['area_after'], u['area_before']):10.6f} "
                  f"{u['dispatched']:10d} {u['signature']:16} "
                  f"{str(u['equivalent']):>5} {u['failed'] or 'ok'}")
    print()
    print_side_by_side(reports["refute_c5315"], reports["partition_c5315"])
    if args.trace:
        print()
        print(f"{'per-layer metric':32}" + "".join(
            f"{name:>18}" for name in reports))
        for metric in PER_LAYER:
            print(f"{metric:32}" + "".join(
                f"{_fmt(rep['metrics'][metric]):>18}"
                for rep in reports.values()))
    units = [u for rep in reports.values() for p in rep["units"]
             for u in p]
    failed = sum(1 for u in units if u["failed"])
    print(json.dumps({
        "correct": failed == 0, "attempted": len(units), "failed": failed,
        "metrics": {f"{name}.{k}": {"value": v, "unit": UNITS[k]}
                    for name, rep in reports.items()
                    for k, v in rep["metrics"].items()},
    }))
    return 0


def _ratio(after: float, before: float) -> float:
    return after / before if before else 0.0


def print_side_by_side(serial: dict, part: dict) -> None:
    """refute_c5315 next to partition_c5315: same circuit and caps."""
    s, p = serial["units"][-1][0], part["units"][-1][0]
    print("C5315, same circuit and caps: serial (refute_c5315) vs "
          "partitioned (partition_c5315)")
    for key in ("seconds", "commits", "delay_before", "delay_after",
                "area_before", "area_after", "dispatched", "signature"):
        print(f"  {key:16} {_fmt(s[key]):>18} {_fmt(p[key]):>18}")
    print(f"  {'equivalent':16} {str(s['equivalent']):>18}"
          f" {str(p['equivalent']):>18}")
    print(f"  {'unverified_frac':16}"
          f" {_fmt(serial['e2e']['unverified_frac']):>18}"
          f" {_fmt(part['e2e']['unverified_frac']):>18}")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing orders the program's sets, and through them the
        # CNF variable order, so SAT work (and time) differs between
        # interpreters: pin it, so every run does the same work.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="also write a JSON report here")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
