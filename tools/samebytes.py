"""Check that two checkouts of ddmtest write the same bytes.

    python3 tools/samebytes.py PARENT CHANGE [--seeds 401-410]
        [--formats csv,markdown,json] [--cpus 1,2]

PARENT and CHANGE are checkouts of the repository. For each seed, the
benchmark's ``ud_mixed`` and ``dirty_conllx`` collections are generated
once, by ``perfbench/corpus.py``, into a temporary directory. ``ddmtest
analyze`` runs on each from the ``src/`` of both checkouts, with the
workload's flags from ``perfbench/run.py`` and ``--report FMT`` appended,
and with ``_pool._usable_cpus`` forced to each CPU count. Their stdout,
stderr and exit code must be equal. For ``inmem_analyze``, each checkout
writes the CSV report of the benchmark's in-memory trees, and the two
sha256 are printed next to the one ``perfbench/digests.json`` records.

One line is printed for each mismatch, then the number of pairs compared.
The exit status is 1 on any mismatch. Nothing is written under either
checkout; ``perfbench/`` is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402

# `python -m ddmtest.cli`, with the worker count forced
ANALYZE = ("import runpy; from ddmtest import _pool; "
           "_pool._usable_cpus = lambda: {cpus}; "
           "runpy.run_module('ddmtest.cli', run_name='__main__', "
           "alter_sys=True)")
# the inmem_analyze workload's report, as its sha256
INMEM = ("import hashlib, sys; sys.path.insert(0, {perfbench!r}); "
         "import corpus; from ddmtest import _pool, pipeline, trees; "
         "_pool._usable_cpus = lambda: {cpus}; "
         "collection, families, _ = corpus.inmem_trees("
         "{seed}, trees.LinearizedTree); "
         "report = pipeline.analyze_collection("
         "collection, families=families, collection='inmem'); "
         "print(hashlib.sha256(pipeline.emit_report(report, 'csv'))"
         ".hexdigest())")


def numbers(text: str) -> list[int]:
    """``401-410`` or ``1,2`` (or a mix) as a list of ints."""
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def python(tree: Path, code: str, args: list[str], cwd: Path):
    """Run ``python -c code args`` on ``tree``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the reports of two checkouts of ddmtest.")
    parser.add_argument("parent", type=Path, help="checkout to compare with")
    parser.add_argument("change", type=Path, help="checkout to check")
    parser.add_argument("--seeds", type=numbers, default="401-410",
                        help="seeds, as 401-410 or 401,405 (default 401-410)")
    parser.add_argument("--formats", type=lambda s: s.split(","),
                        default="csv,markdown,json",
                        help="report formats (default csv,markdown,json)")
    parser.add_argument("--cpus", type=numbers, default="1,2",
                        help="usable CPU counts to force (default 1,2)")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "ddmtest" / "cli.py").is_file():
            parser.error(f"{tree} is not a checkout of ddmtest")
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    pairs = mismatches = 0
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            for name, workload in run.CLI_WORKLOADS.items():
                data = work / f"{name}-{seed}"
                workload.generate(seed, data)
                flags = [f.replace("{data}", str(data))
                         for f in workload.flags]
                for fmt in args.formats:
                    for cpus in args.cpus:
                        parent, change = (
                            python(tree, ANALYZE.format(cpus=cpus),
                                   ["analyze", *flags, "--report", fmt], work)
                            for tree in trees)
                        pairs += 1
                        differ = [what for what in
                                  ("stdout", "stderr", "returncode")
                                  if getattr(parent, what)
                                  != getattr(change, what)]
                        if differ:
                            mismatches += 1
                            print(f"MISMATCH {name} seed {seed} {fmt} "
                                  f"cpus {cpus}: {', '.join(differ)} differ")
                shutil.rmtree(data)
            for cpus in args.cpus:
                code = INMEM.format(perfbench=str(PERFBENCH), cpus=cpus,
                                    seed=seed)
                parent, change = (python(tree, code, [], work)
                                  for tree in trees)
                pairs += 1
                digests = [r.stdout.decode().strip()
                           or f"failed ({r.returncode})"
                           for r in (parent, change)]
                same = digests[0] == digests[1] and not parent.returncode
                mismatches += not same
                print(f"{'same' if same else 'MISMATCH'} inmem_analyze "
                      f"seed {seed} cpus {cpus}: parent {digests[0]}, change "
                      f"{digests[1]}, recorded "
                      f"{recorded['inmem_analyze'].get(str(seed), 'none')}")
    print(f"{pairs} pairs compared, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
