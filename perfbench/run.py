"""Benchmark of the seifinv CLI over four layer-focused workloads.

    python3 perfbench/run.py --workload exact-eta --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the root of a seifinv source checkout; the program is imported
from ``src/`` there, and nothing is installed.

``--trace 0`` runs every command of the workload as a fresh
``python -m seifinv.cli`` process, in whole passes over the command list
until ``--seconds`` of measured time is used, and reports the end-to-end
metrics (medians over passes).  ``--trace 1`` calls ``seifinv.cli.main``
in-process on the same commands, alternating untraced passes with passes
traced by ``tracer.Tracer``, and reports the per-layer metrics; the
difference between the two is the tracing overhead.

Every output is checked by ``checks.check_pass``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 4
COMMAND_TIMEOUT_S = 120


class Tally:
    """Attempted and failed operations, and the problems the checkers find.

    A pass whose outputs repeat an earlier pass byte for byte gets that
    pass's verdict without recomputing the references.  A command that
    exits nonzero is counted in `failed` and not judged on its output.
    """

    def __init__(self, argvs) -> None:
        self.argvs = argvs
        self.attempted = self.failed = 0
        self.problems: Dict[str, List[str]] = {}
        self.failures: Dict[str, str] = {}
        self._verdicts: Dict[tuple, List[List[str]]] = {}

    def record(self, rcs, outs, errs, traced_series=None) -> None:
        key = (tuple(rcs), tuple(outs), repr(traced_series))
        if key not in self._verdicts:
            self._verdicts[key] = checks.check_pass(self.argvs, outs, traced_series)
        self.attempted += len(rcs)
        for argv, rc, err, found in zip(self.argvs, rcs, errs, self._verdicts[key]):
            if rc != 0:
                self.failed += 1
                self.failures[" ".join(argv)] = f"exit {rc}: {err.strip()[-300:]}"
            elif found:
                self.problems[" ".join(argv)] = found

    def summary(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "failures": self.failures,
        }


def run_child(argv: Sequence[str], env: dict):
    """One CLI process: (wall s, peak RSS MB, exit code, stdout, stderr).

    The peak RSS is this child's own, read from wait4; RUSAGE_CHILDREN
    would give the running maximum over all children instead.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "seifinv.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    err: List[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, usage.ru_maxrss / 1024, proc.returncode, out.decode(), err[0].decode()


def end_to_end(commands: List[workloads.Command], seconds: float) -> dict:
    # the children see no PYTHON* settings of the caller (such as
    # PYTHONDONTWRITEBYTECODE, which would recompile the package in every
    # process), only the path to the sources
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    argvs = [c.argv for c in commands]
    setup = []

    def set_up() -> None:
        """A CLI process that imports the package and computes nothing."""
        wall, _, rc, out, err = run_child(["--help"], env)
        if rc != 0 or not out.startswith("usage: seifinv"):
            raise RuntimeError(f"seifinv --help failed (exit {rc}): {err.strip()[-500:]}")
        setup.append(wall)

    # the first one writes the bytecode cache and is not counted; later
    # ones are spread over the run, one after each pass
    for _ in range(SETUP_REPEATS + 1):
        set_up()
    del setup[0]

    tally = Tally(argvs)
    passes = []
    measured = 0.0
    while True:
        t0 = perf_counter()
        runs = [run_child(a, env) for a in argvs]
        wall = perf_counter() - t0
        passes.append((wall, runs))
        measured += wall
        set_up()
        tally.record([r[2] for r in runs], [r[3] for r in runs], [r[4] for r in runs])
        if measured + max(p[0] for p in passes) > seconds:
            break

    per_command = [
        {
            "argv": list(a),
            "wall_s": statistics.median(p[1][i][0] for p in passes),
            "wall_samples_s": [p[1][i][0] for p in passes],
            "peak_rss_mb": max(p[1][i][1] for p in passes),
            "exit": sorted({p[1][i][2] for p in passes}),
        }
        for i, a in enumerate(argvs)
    ]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # one pass with every command at its median: steadier than the
        # median of whole-pass times when interference hits single commands
        "pass_s": (sum(c["wall_s"] for c in per_command), "s"),
        "largest_case_s": (max(c["wall_s"] for c in per_command), "s"),
        "peak_rss_mb": (statistics.median(max(r[1] for r in p[1]) for p in passes), "MB"),
    }
    return {
        **tally.summary(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": len(passes),
        "pass_samples_s": [p[0] for p in passes],
        "setup_samples_s": setup,
        "commands": per_command,
    }


def traced(commands: List[workloads.Command], seconds: float, spans_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import seifinv
    import seifinv.cli as cli

    if Path(seifinv.__file__).resolve().parent != SRC / "seifinv":
        raise RuntimeError(f"imported seifinv from {seifinv.__file__}, not from {SRC}")
    argvs = [c.argv for c in commands]
    alpha_sum = sum(c.alpha_sum for c in commands)

    def one_pass(tr=None):
        """(wall s, exit codes, stdouts, stderrs, traced eta_series results)."""
        rcs, outs, errs, series = [], [], [], []
        t0 = perf_counter()
        for argv in argvs:
            start = len(tr.spans) if tr else 0
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = cli.main(list(argv))  # looked up here, so the traced wrapper is used
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is one failed operation, as in a process
                    traceback.print_exc()
                    rc = 1
            rcs.append(rc)
            outs.append(out.getvalue())
            errs.append(err.getvalue())
            series.append(tracer.series_results(tr.spans, start) if tr else None)
        return perf_counter() - t0, rcs, outs, errs, series

    tally = Tally(argvs)
    plain, traced_walls, per_pass, span_passes = [], [], [], []
    tally.record(*one_pass()[1:4])  # warm-up: fills mpmath's caches

    def untraced_pass() -> None:
        wall, rcs, outs, errs, _ = one_pass()
        plain.append(wall)
        tally.record(rcs, outs, errs)

    def traced_pass() -> None:
        tr = tracer.Tracer()
        with tr.installed():
            wall, rcs, outs, errs, series = one_pass(tr)
        traced_walls.append(wall)
        tally.record(rcs, outs, errs, series)
        per_pass.append(tracer.layer_metrics(tr.spans, len(argvs), alpha_sum))
        span_passes.append(tr)

    while True:
        # alternate which of the two goes first, so drift does not bias the overhead
        for step in (untraced_pass, traced_pass)[:: 1 if len(plain) % 2 == 0 else -1]:
            step()
        pairs = [a + b for a, b in zip(plain, traced_walls)]
        if sum(pairs) + max(pairs) > seconds:
            break

    with open(spans_path, "w") as fh:
        for k, tr in enumerate(span_passes):
            fh.write(json.dumps({"pass": k, "wall_s": traced_walls[k], "commands": [list(a) for a in argvs]}) + "\n")
            tr.write(fh)

    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    metrics["trace.pass_s"] = statistics.median(traced_walls)
    return {
        **tally.summary(),
        "metrics": {k: {"value": v, "unit": tracer.UNITS[k]} for k, v in metrics.items()},
        "passes": len(traced_walls),
        "untraced_pass_s": statistics.median(plain),
        "untraced_samples_s": plain,
        "traced_samples_s": traced_walls,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    commands = workloads.build(name, seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    if trace:
        result = traced(commands, seconds, OUT / f"{stem}.spans.jsonl")
    else:
        result = end_to_end(commands, seconds)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for cmd, errs in result["problems"].items():
        print(f"perfbench: {name}: wrong output: {cmd}: {'; '.join(errs[:3])}", file=sys.stderr)
    for cmd, err in result["failures"].items():
        print(f"perfbench: {name}: failed: {cmd}: {err}", file=sys.stderr)
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "seifinv" / "cli.py").is_file():
        print(f"perfbench: no seifinv sources at {SRC / 'seifinv'}; run from a seifinv checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # every workload in turn, one line each, then one line with all metrics
    # prefixed by their workload
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": name, **res}), flush=True)
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
