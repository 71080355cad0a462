"""End-to-end benchmark of the tvpgvar CLI chain ingest -> estimate -> irf ->
forecast -> report.

Run from the repository root:

    python3 bench/run.py --workload sample --seed 1 --seconds 10 --trace 0

``--trace 0`` runs every stage as its own ``python -m tvpgvar.cli`` child,
timing its wall clock and reading its peak RSS from ``os.wait4``. It runs the
pipeline three times, or more until ``--seconds`` have passed, each time after
one fresh ``import tvpgvar`` interpreter that gives ``setup_s``, and reports
medians. The repeats share the seed and must leave byte-identical outputs.

``--trace 1`` calls ``tvpgvar.cli.main`` in-process for each stage, once plain
and once with span wrappers around each module's public functions, and
reports the per-layer metrics, the layer self times per stage and the tracing
overhead.
Spans are written to ``.bench_work/spans-<workload>-s<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is a
setup import or one stage run; it fails when the stage exits non-zero, prints
a traceback, or leaves artifacts that fail a check in ``check.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# BLAS sizes its thread pool when numpy loads: pin it before the imports below
# to the CPUs this process may use, which is what a user gets by default
NPROC = len(os.sched_getaffinity(0))
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ[_var] = str(NPROC)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PIPELINES = 3


@dataclass
class Operation:
    name: str
    seconds: float = 0.0
    rss_mb: float = 0.0
    output: str = ""
    problems: list[str] = field(default_factory=list)


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        pass
    return {"nproc": NPROC, "blas_threads": int(os.environ[THREAD_VARIABLES[0]]),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def run_child(name: str, argv: list[str], env: dict, log: Path) -> Operation:
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Operation(name, seconds, usage.ru_maxrss / 1024.0,
                   log.read_text(encoding="utf-8", errors="replace"))
    op.problems = check.process_problems(proc.returncode, op.output)
    return op


def cli_argv(stage: str, config: Path, out: Path) -> list[str]:
    return [stage, "--config", str(config), "--out", str(out)]


def run_in_process(stage: str, config: Path, out: Path) -> Operation:
    from tvpgvar import cli

    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(cli_argv(stage, config, out))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed operation, like a child's traceback
            traceback.print_exc()
            code = 1
    op = Operation(stage, perf_counter() - start, output=buf.getvalue())
    op.problems = check.process_problems(code, op.output)
    return op


def check_outputs(ops: list[Operation], out: Path, config: Path) -> None:
    for op in ops:
        if not op.problems:
            op.problems += check.check_stage(op.name, out, config, op.output)


def check_same(ops: list[Operation], out: Path, reference: Path) -> None:
    """Fail each stage of ``ops`` whose artifacts differ from ``reference``."""
    diffs = check.compare_dirs(reference, out)
    for op in ops:
        if op.name in diffs:
            op.problems.append(f"not byte-identical to {reference.name}: {diffs[op.name]}")


def dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.iterdir() if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def timed_run(config: Path, run_dir: Path, seconds: float) -> tuple[dict, list[Operation]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    logs = run_dir / "logs"
    logs.mkdir()
    deadline = perf_counter() + seconds
    setups, pipelines = [], []
    # machine speed drifts over tens of seconds: spreading the samples of each
    # metric across the run lets the medians ride out a slow or fast spell
    while len(pipelines) < MIN_PIPELINES or perf_counter() < deadline:
        i = len(pipelines)
        setups.append(run_child("setup", [sys.executable, "-c", "import tvpgvar"], env,
                                logs / f"setup{i}.log"))
        out = run_dir / f"out{i}"
        pipelines.append((out, [
            run_child(stage, [sys.executable, "-m", "tvpgvar.cli", *cli_argv(stage, config, out)],
                      env, logs / f"{stage}{i}.log")
            for stage in workloads.STAGES]))

    reference = pipelines[0][0]
    for out, ops in pipelines:
        check_outputs(ops, out, config)
        if out != reference:
            check_same(ops, out, reference)

    metrics = {"setup_s": (statistics.median(op.seconds for op in setups), "s")}
    for i, stage in enumerate(workloads.STAGES):
        metrics[f"{stage}_s"] = (statistics.median(ops[i].seconds for _, ops in pipelines), "s")
    metrics["pipeline_s"] = (statistics.median(sum(op.seconds for op in ops)
                                               for _, ops in pipelines), "s")
    metrics["peak_rss_mb"] = (statistics.median(max(op.rss_mb for op in ops)
                                                for _, ops in pipelines), "MB")
    print(f"pipelines timed: {len(pipelines)}")
    print("  samples (s):", json.dumps(
        {"setup": [op.seconds for op in setups],
         **{stage: [ops[i].seconds for _, ops in pipelines]
            for i, stage in enumerate(workloads.STAGES)}}))
    return metrics, setups + [op for _, ops in pipelines for op in ops]


def traced_run(config: Path, run_dir: Path, span_file: Path
               ) -> tuple[dict, list[Operation]]:
    import tracemalloc

    plain_out, traced_out = run_dir / "out_plain", run_dir / "out_traced"
    tracer = spans.Tracer(run_id=run_dir.name)
    sizes = {}
    plain, traced_ops = [], []
    # each stage runs plain, then traced, so that drift in machine speed
    # touches both sides of the overhead alike
    for stage in workloads.STAGES:
        plain.append(run_in_process(stage, config, plain_out))
        with spans.traced(tracer), tracer.span(f"cli.main:{stage}"):
            traced_ops.append(run_in_process(stage, config, traced_out))
        sizes[stage] = dir_size(traced_out)
    tracer.write(span_file)

    # peak memory of one band computation, in a pass of its own
    bands_peak_mb = 0.0
    if "irf.asymptotic_bands" in tracer.first_args:
        from tvpgvar import irf

        args, kwargs = tracer.first_args["irf.asymptotic_bands"]
        tracemalloc.start()
        try:
            irf.asymptotic_bands(*args, **kwargs)
            bands_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    check_outputs(plain, plain_out, config)
    check_outputs(traced_ops, traced_out, config)
    check_same(traced_ops, traced_out, plain_out)

    overhead = sum(op.seconds for op in traced_ops) - sum(op.seconds for op in plain)
    out_bytes, out_files = sizes[workloads.STAGES[-1]]
    metrics = spans.layer_metrics(tracer, bands_peak_mb, out_bytes, out_files, overhead)
    print_layer_table(tracer, plain, sizes, metrics)
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}, plain + traced_ops


def print_layer_table(tracer, plain, sizes, metrics) -> None:
    own = spans.self_times(tracer.spans)
    root_of = {}
    by_stage = {}
    for s in tracer.spans:  # a parent is recorded before its children
        root_of[s.id] = s.id if s.parent is None else root_of[s.parent]
        layers = by_stage.setdefault(root_of[s.id], dict.fromkeys(spans.LAYERS, 0.0))
        layers[s.layer] += own[s.id]
    print("self time by layer (s), traced in-process run:")
    print(f"  {'stage':9s}{'traced':>9s}{'plain':>9s}"
          + "".join(f"{layer:>10s}" for layer in spans.LAYERS) + f"{'out bytes':>11s}")
    for root, plain_op in zip((s for s in tracer.spans if s.parent is None), plain):
        stage = root.name.split(":", 1)[1]
        print(f"  {stage:9s}{root.duration:9.4f}{plain_op.seconds:9.4f}"
              + "".join(f"{by_stage[root.id][layer]:10.4f}" for layer in spans.LAYERS)
              + f"{sizes[stage][0]:11d}")
    print("per-layer metrics:")
    for name, (value, unit, n) in metrics.items():
        note = ""
        if n is not None:
            q = spans.tail_percentile(n)
            tail = ""
            if name.endswith("_p99") and q != 99.0:
                tail = "; too few samples for a tail" if q is None else f"; tail read at p{q:g}"
            note = f"  (n={n}{tail})"
        print(f"  {name:36s}{value:16.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tvpgvar" / "cli.py").is_file():
        print(f"error: no tvpgvar sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        config = workloads.write_inputs(args.workload, args.seed, run_dir / "inputs")
        print("env:", json.dumps(environment()))
        print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload].why}")
        if args.trace:
            span_file = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
            metrics, ops = traced_run(config, run_dir, span_file)
            print(f"spans -> {span_file}")
        else:
            metrics, ops = timed_run(config, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s}{value:12.4f} {unit}")
        print(f"  {'fail_ratio':14s}{len(failed) / len(ops):12.4f} ratio "
              f"({len(failed)}/{len(ops)} operations)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
