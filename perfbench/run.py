"""Benchmark of ddmtest on seeded synthetic collections.

Run from the repository root (no install needed; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload ud_mixed --seed 1 --seconds 28 --trace 0

Workloads (see BENCHMARK.json and perfbench/NOTES.md):

* ``ud_mixed``      ``ddmtest analyze`` with default flags on UD-like CoNLL-U;
* ``dirty_conllx``  ``ddmtest analyze`` on CoNLL-X full of exclusions and
                    parse errors, JSON report, per-family Holm;
* ``inmem_analyze`` ``analyze_collection`` + ``emit_report`` on trees built
                    in memory.

With ``--trace 0`` the CLI runs as a child process, one invocation at a time
(a closed loop), and the run reports the end-to-end metrics. With
``--trace 1`` the work runs in this process, alternating untraced and traced
repetitions, and the run reports per-layer self times and counts. Every
output is checked against the generator's ground truth. Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import check
import corpus
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"   # report sha256 per workload and seed, at seed state

MIN_SAMPLES = 3         # units of work per run, however long they take
SETUP_PAIRS = 15        # set-up is timed 15 times, each next to a reference import
CHILD_TIMEOUT_S = 150   # a CLI invocation running longer is killed and fails

# The host this runs on is shared: how fast it runs Python swings by up to 2x,
# in phases of seconds to minutes. A fixed probe task, timed before and after
# every unit of work, measures that speed; gated times are scaled to a nominal
# host on which the probe takes REF_NOMINAL_S. The probe's time swings more
# than the product's: over 206 paired units and 40 runs, log(unit time) rose
# by 0.52 to 0.73 per unit of log(probe time), hence HOST_ELASTICITY.
REF_NOMINAL_S = 0.3
REF_REPS = 150
HOST_ELASTICITY = 0.6
_REF_LINES = ["\t".join([str(i % 30 + 1), "w" * (i % 7 + 1), "_", "NOUN", "_",
                         "_", str(i * 7 % 31), "dep", "_", "_"])
              for i in range(3000)]


def reference_s() -> float:
    """Seconds one run of the probe task takes (split, int(), dict, tuples)."""
    start = time.perf_counter()
    for _ in range(REF_REPS):
        heads = {}
        for line in _REF_LINES:
            cols = line.split("\t")
            if cols[0].isdigit():
                heads[int(cols[0])] = (int(cols[6]), cols[3])
    return time.perf_counter() - start


# Set-up is mostly the loading of numpy, which ddmtest imports. So each
# set-up spawn is paired with a fresh interpreter that imports numpy alone,
# and set-up is scaled by it to a host where that takes REF_IMPORT_NOMINAL_S.
# Over ten runs this cut the spread of the set-up median from 0.19 to 0.04.
REF_IMPORT = "import numpy"
REF_IMPORT_NOMINAL_S = 0.15


def scale(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` at nominal host speed, from the probes around it."""
    return wall * (2 * REF_NOMINAL_S / (ref_before + ref_after)) ** HOST_ELASTICITY


@dataclass
class CliWorkload:
    generate: object          # (seed, datadir) -> corpus.Collection
    flags: list               # analyze flags; {data} is the generated data dir
    report: str               # report format the flags select


CLI_WORKLOADS = {
    "ud_mixed": CliWorkload(corpus.ud_mixed, ["--input", "{data}"], "csv"),
    "dirty_conllx": CliWorkload(
        corpus.dirty_conllx,
        ["--input", "{data}/hamledt", "--format", "conllx", "--scheme", "prague",
         "--report", "json", "--per-family", "--exclude-undersampled",
         "--families", "{data}/families.tsv"],
        "json"),
}


@dataclass
class Run:
    """What one benchmark run measured, kept for the final report."""

    walls: list = field(default_factory=list)
    scaled: list = field(default_factory=list)   # walls at nominal host speed
    refs: list = field(default_factory=list)     # probe times around the units
    cpus: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    digests: set = field(default_factory=set)
    failed_blocks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, wall, cpu, payload, verdict, rss_mb=None):
        self.attempted += 1
        self.walls.append(wall)
        self.cpus.append(cpu)
        if rss_mb is not None:
            self.rss_mb.append(rss_mb)
        self.digests.add(hashlib.sha256(payload).hexdigest())
        self.failed_blocks.append(verdict.failed_blocks)
        if not verdict.ok:
            self.failed += 1

    def loop(self, unit, seconds: float):
        """Closed loop of ``unit`` (which calls ``record``) between host probes."""
        self.refs.append(reference_s())
        start = time.perf_counter()
        while keep_going(start, seconds, self.walls):
            unit()
            self.refs.append(reference_s())
            self.scaled.append(scale(self.walls[-1], *self.refs[-2:]))


def say(line: str = ""):
    print(line, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def high_percentile(values: list) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100)[q - 1]
    return "max", max(values)


def describe_timing(name: str, values: list, unit: str = "s"):
    label, high = high_percentile(values)
    say(f"  {name:<24} median {statistics.median(values):.4f} {unit}, "
        f"{label} {high:.4f} {unit}, n={len(values)}")


def measure_setup(code: str) -> tuple[list, list, list]:
    """Spawn-to-exit seconds of fresh interpreters importing the entry point:
    as measured, at nominal host speed, and of the paired reference imports."""

    def spawn(source):
        argv = [sys.executable, "-c", source]
        wall, status, _ = run_child(argv, subprocess.DEVNULL, subprocess.DEVNULL)
        if status != 0:
            raise RuntimeError(f"{argv} exited with {status}")
        return wall

    spawn(code)  # warm the file cache
    raw, scaled, refs = [], [], []
    for i in range(SETUP_PAIRS):
        if i % 2:
            wall, ref = spawn(code), spawn(REF_IMPORT)
        else:
            ref, wall = spawn(REF_IMPORT), spawn(code)
        raw.append(wall)
        refs.append(ref)
        scaled.append(wall * REF_IMPORT_NOMINAL_S / ref)
    return raw, scaled, refs


def run_child(argv: list, stdout, stderr):
    """Run argv as a child process; (wall, exit code, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(),
                            cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def in_process(func):
    """Call func() with stdout/stderr captured: (wall, cpu, result, stdout, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    cpu0 = _cpu_s()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        result = func()
        wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    out.flush()
    return wall, cpu, result, out.buffer.getvalue(), err.getvalue()


def forked_peak_rss_mb(func) -> float:
    """Peak RSS of a forked child of this process that calls func() once.

    The child starts with this process's resident memory (the interpreter
    and the inputs), not with its peak, so the figure shows what func adds.
    """
    gc.collect()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            func()
            code = 0
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("the forked analysis failed")
    return usage.ru_maxrss / 1024


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def keep_going(start: float, seconds: float, walls: list,
               min_samples: int = MIN_SAMPLES) -> bool:
    """Closed loop: start another unit while it should end within the run."""
    if len(walls) < min_samples:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def src_context():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(SRC.rglob("*.py")))
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            deps = tomllib.load(fh)["project"].get("dependencies", [])
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        deps = ["unknown"]
    say(f"  context: src/ {lines} lines of Python; runtime dependencies: "
        + (", ".join(deps) or "none"))


def describe_collection(coll: corpus.Collection, gen_s: float):
    files = f", {coll.files} files, {coll.bytes / 1e6:.1f} MB" if coll.files else ""
    say(f"  input: {coll.blocks} blocks, {coll.tokens} tokens{files}; "
        f"generated in {gen_s:.2f} s")
    truth = coll.truth
    counted = sum(v for k, v in truth.items() if k[0] == "counted")
    excl = {k[1]: v for k, v in sorted(truth.items()) if k[0] == "excluded"}
    say(f"  ground truth: {counted} counted n=3/4 trees, "
        f"{truth[corpus.UNCOUNTED]} other trees, exclusions {excl}")
    if coll.bom_blocks:
        say(f"  known defect: {len(coll.bom_blocks)} BOM-prefixed files; their "
            "first blocks come back as parse errors (open, ROADMAP item 4)")


def recorded_digest(workload: str, seed: int):
    """The report sha256 recorded in DIGESTS for this seed, or None."""
    try:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return recorded.get(workload, {}).get(str(seed))


def describe_checks(run: Run, blocks: int, workload: str, seed: int):
    ratio = max(run.failed_blocks) / blocks
    say(f"  failed_ratio             {ratio:.6f} ratio "
        f"({max(run.failed_blocks)} of {blocks} blocks disagree with the ground truth)")
    recorded = recorded_digest(workload, seed)
    for digest in sorted(run.digests):
        note = ("no digest recorded for this seed" if recorded is None else
                "matches the recorded digest" if digest == recorded else
                f"DIFFERS from the recorded digest {recorded}")
        say(f"  report sha256 {digest} ({note})")
    say(f"  checked {run.attempted} outputs, {run.failed} failed")


# ------------------------------------------------------------ CLI workloads

def run_cli(wl: CliWorkload, args, workdir: Path):
    if not args.trace:
        setup = measure_setup("import ddmtest.cli as c; c.build_parser()")
    data = workdir / "data"
    start = time.perf_counter()
    coll = wl.generate(args.seed, data)
    describe_collection(coll, time.perf_counter() - start)
    argv = ["analyze"] + [f.replace("{data}", str(data)) for f in wl.flags]
    say(f"  command: python -m ddmtest.cli {' '.join(argv)}")
    run = Run()
    if args.trace:
        from ddmtest import cli
        metrics = traced_loop(run, args, coll, wl.report,
                              lambda: cli.main(list(argv)), cli_stdout=True)
    else:
        stderr_lines = []

        out_path, err_path = workdir / "stdout", workdir / "stderr"

        def unit():
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                wall, code, usage = run_child(
                    [sys.executable, "-m", "ddmtest.cli", *argv], out, err)
            payload = out_path.read_bytes()
            run.record(wall, usage.ru_utime + usage.ru_stime, payload,
                       check.judge(payload, wl.report, coll, code),
                       rss_mb=usage.ru_maxrss / 1024)
            stderr_lines.append(err_path.read_bytes().count(b"\n"))

        run.loop(unit, args.seconds)
        metrics = end_to_end(run, coll, setup)
        say(f"  stderr lines per invocation: {max(stderr_lines)}")
    describe_checks(run, coll.blocks, args.workload, args.seed)
    return run, metrics


# ----------------------------------------------------------- inmem workload

def run_inmem(args):
    from ddmtest import pipeline, trees

    if not args.trace:
        setup = measure_setup("import ddmtest")
    start = time.perf_counter()
    collection, families, coll = corpus.inmem_trees(args.seed, trees.LinearizedTree)
    describe_collection(coll, time.perf_counter() - start)

    def analyze():
        report = pipeline.analyze_collection(collection, families=families,
                                             collection="inmem")
        return pipeline.emit_report(report, "csv")

    run = Run()
    if args.trace:
        metrics = traced_loop(run, args, coll, "csv", analyze, cli_stdout=False)
    else:
        run.rss_mb.append(forked_peak_rss_mb(analyze))

        def unit():
            wall, cpu, payload, _, _ = in_process(analyze)
            run.record(wall, cpu, payload, check.judge(payload, "csv", coll))

        run.loop(unit, args.seconds)
        metrics = end_to_end(run, coll, setup)
    describe_checks(run, coll.blocks, args.workload, args.seed)
    return run, metrics


# --------------------------------------------------------------- reporting

def end_to_end(run: Run, coll: corpus.Collection, setup: tuple) -> dict:
    setup_raw, setup_scaled, setup_refs = setup
    wall = statistics.median(run.scaled)
    metrics = {
        "wall_s": wall,
        "sentences_per_s": coll.blocks / wall,
        "tokens_per_s": coll.tokens / wall,
        "peak_rss_mb": statistics.median(run.rss_mb),
        "setup_s": statistics.median(setup_scaled),
    }
    say("end-to-end (times at nominal host speed):")
    describe_timing("wall_s", run.scaled)
    describe_timing("setup_s", setup_scaled)
    for name in ("sentences_per_s", "tokens_per_s"):
        say(f"  {name:<24} {metrics[name]:.1f} 1/s (at the median wall_s)")
    say(f"  {'peak_rss_mb':<24} median {metrics['peak_rss_mb']:.1f} MB, "
        f"max {max(run.rss_mb):.1f} MB, n={len(run.rss_mb)}")
    say("as measured on this host (not gated):")
    describe_timing("wall_s", run.walls)
    describe_timing("setup_s", setup_raw)
    describe_timing(f"reference import (nominal {REF_IMPORT_NOMINAL_S})", setup_refs)
    describe_timing("cpu_s", run.cpus)
    describe_timing(f"host probe (nominal {REF_NOMINAL_S})", run.refs)
    src_context()
    return metrics


def traced_loop(run: Run, args, coll, fmt, unit, cli_stdout: bool) -> dict:
    """Alternate untraced and traced repetitions in this process."""
    plain, traced, layers = [], [], []
    last = None
    start = time.perf_counter()
    while keep_going(start, args.seconds,
                     [p + t for p, t in zip(plain, traced)], min_samples=1):
        for tracer in (None, tracing.Tracer()):
            ctx = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
            with ctx:
                wall, cpu, result, out, err = in_process(unit)
            payload = out if cli_stdout else result
            code = result if cli_stdout else 0
            run.record(wall, cpu, payload, check.judge(payload, fmt, coll, code))
            if tracer is None:
                plain.append(wall)
                continue
            traced.append(wall)
            metrics = tracer.layer_metrics()
            metrics["cli.stderr_lines"] = err.count("\n")
            metrics["proc.cpu_s"] = cpu
            layers.append(metrics)
            last = tracer
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["failed_ratio"] = max(run.failed_blocks) / coll.blocks
    trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    last.write(trace_path)
    say(f"  spans of the last traced repetition: {len(last.spans)}, "
        f"written to {trace_path.relative_to(ROOT)}")
    say("per-layer (medians over traced repetitions, as measured on this host):")
    describe_timing("wall_s untraced", plain)
    describe_timing("wall_s traced", traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*CLI_WORKLOADS, "inmem_analyze"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddmtest" / "cli.py").is_file():
        print(f"error: {SRC / 'ddmtest'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    began = time.perf_counter()
    say(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "inmem_analyze":
            run, metrics = run_inmem(args)
        else:
            run, metrics = run_cli(CLI_WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        for m in listed:
            say(f"  {m['name']:<44} {metrics[m['name']]:.6g} {m['unit']}")
    say(f"run took {time.perf_counter() - began:.1f} s, set-up included")
    result = {
        "correct": run.failed == 0 and len(run.digests) == 1,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
