"""opembed benchmark: one workload per process, measured from outside.

    python3 perfbench/run.py --workload embed-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workload's inputs come from ``--seed``. Set-up runs at least three times,
and until two seconds of set-up have been measured; ``setup_s`` is the
median. The timed phase repeats the workload's unit until ``--seconds``
have passed (at least three times). A unit is a fixed sequence of parts
(CLI commands, the closed loop), each doing the same deterministic work in
every unit, so ``wall_s`` sums each part's fastest time: on a shared host
other tenants only ever add time, and a part's fastest run is the one they
disturbed least. The median whole unit is kept in the result file. With ``--trace 1`` untraced and
traced units alternate, the traced ones record spans around every public
opembed function, and the result holds the per-layer metrics plus the
tracing overhead (fastest traced unit over fastest untraced unit).

Every run prints a table, an ``env`` line and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the workload's own figures, and the spans of a traced run are written
under ``.perfbench/`` in the repository root. BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 3
MAX_SETUPS = 100
SETUP_SECONDS = 2.0
MIN_UNITS = 3
MIN_TRACED_UNITS = 2
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("embed-train", "grid-card", "admit-wide")


def program_src() -> Path:
    """This checkout's src/ directory; exits 1 without a result if opembed
    is not there."""
    src = ROOT / "src"
    if not (src / "opembed" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'opembed'} not found; run from an opembed checkout")
    return src


def import_program() -> None:
    """Import opembed from this checkout's src/, never from elsewhere."""
    src = program_src()
    sys.path.insert(0, str(src))
    import opembed

    if Path(opembed.__file__).resolve().parent != (src / "opembed").resolve():
        sys.exit(f"error: imported opembed from {opembed.__file__}, not from {src}")


def blas_threads(np) -> int | None:
    """The thread count OpenBLAS reports, asked of the library numpy loaded."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def env_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    git = {"sha": "unknown", "dirty": None}
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        git["sha"] = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git["dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(np),
                 "threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git": git,
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the timed units, check them; return the full result."""
    from opembed import (classifiers, evaluate, featurize, hourglass, nn, plans,
                         reducers, store, synth, tasks)
    from opembed.cli import main as cli_main

    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload_name](work, seed)
    tracer = Tracer(layers.SPAN_ATTRS, layers.KEEP)
    modules = (plans, featurize, nn, hourglass, reducers, classifiers, tasks,
               evaluate, store, synth)
    extra = [(hourglass.Encoder, "__call__", "hourglass.Encoder")]
    extra += [(cmd, "callback", f"cli.{name}") for name, cmd in cli_main.commands.items()]

    def traced(name, fn, *args) -> tuple[int, float]:
        """Run fn with every opembed layer wrapped; returns the root span's
        index and the seconds fn took."""
        root = len(tracer.spans)
        tracer.install("opembed", modules, extra)
        try:
            with tracer.span(name):
                t0 = time.perf_counter()
                fn(*args)
                elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        return root, elapsed

    wl.prepare()
    setup_s = []
    k = 0
    while k < MIN_SETUPS or (not trace and sum(setup_s) < SETUP_SECONDS and k < MAX_SETUPS):
        if trace:
            setup_s.append(traced("bench.setup", wl.setup, k)[1])
        else:
            t0 = time.perf_counter()
            wl.setup(k)
            setup_s.append(time.perf_counter() - t0)
        k += 1

    def more_units() -> bool:
        if trace:
            return min(len(unit_s), len(traced_s)) < MIN_TRACED_UNITS
        return len(unit_s) < MIN_UNITS

    unit_s, traced_s, unit_roots = [], [], []
    part_s: dict[str, list[float]] = {}
    start = time.perf_counter()
    i = 0
    while more_units() or time.perf_counter() - start < seconds:
        if trace and i % 2 == 1:
            root, elapsed = traced("bench.unit", wl.unit, i)
            unit_roots.append(root)
            traced_s.append(elapsed)
        else:
            t0 = time.perf_counter()
            parts = wl.unit(i)
            unit_s.append(time.perf_counter() - t0)
            for part, seconds_taken in parts.items():
                part_s.setdefault(part, []).append(seconds_taken)
        wl.check(i, traced=trace and i % 2 == 1)
        i += 1
    try:
        wl.finish()
    except (KeyError, OSError, AttributeError, ValueError) as exc:
        wl.problems.append(f"could not compute the workload's figures: {exc!r}")

    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup_s_all": setup_s, "unit_s_all": unit_s, "traced_unit_s_all": traced_s,
        "wall_median_s": statistics.median(unit_s),
        "part_min_s": {part: min(times) for part, times in part_s.items()},
        "attempted": wl.attempted, "failed": wl.failed, "problems": wl.problems,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in wl.detail.items()},
    }
    if trace:
        micro = {}
        enet = tracer.last.get("hourglass.train_embedding")
        triples = tracer.last.get("featurize.extract_triples")
        if enet is not None and triples:
            X = featurize.stack_triples(triples[: layers.MICRO_BATCH])[0]
            micro = layers.nn_layer_micro(nn, enet[0], X)
        overhead = (min(traced_s) / min(unit_s) - 1.0) * 100
        values = layers.layer_metrics(tracer, unit_roots, wl.counts, micro, overhead)
        result["metrics"] = {name: {"value": values.get(name, 0.0), "unit": unit}
                             for name, unit in layers.PER_LAYER}
        result["trace_wall_s"] = {"untraced": min(unit_s), "traced": min(traced_s)}
        out_dir = ROOT / ".perfbench"
        tracer.write(out_dir / f"spans-{workload_name}.jsonl.gz")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(min(times) for times in part_s.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    return result


def print_table(result: dict) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    rows = list(result["metrics"].items()) + list(result["detail"].items())
    for name, m in rows:
        print(f"  {name:<36} {m['value']!r:>24} {m['unit']}")
    print(f"  units: {len(result['unit_s_all'])} untraced (median {result['wall_median_s']!r} s), "
          f"{len(result['traced_unit_s_all'])} traced; set-ups: {len(result['setup_s_all'])}")
    print(f"  operations: attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")


def run_one(args) -> int:
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import SetupError

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["env"] = env_info()
    result["correct"] = result["failed"] == 0 and not result["problems"]
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print_table(result)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    program_src()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            status = 1
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    if status == 0:
        print(json.dumps(combined))
    return status


def main() -> int:
    # before numpy is first imported, so BLAS starts with one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
