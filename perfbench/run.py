"""Benchmark for multipos: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0

Run from a checkout holding `src/multipos`. Each command of a round runs
the real CLI (`python -m multipos.cli`) in its own process with the
default numpy threading. The run sets up its inputs several times
(setup_s is the median) and repeats whole rounds until they have taken
--seconds in all; it checks the outputs and prints one JSON object as
the last line.
With --trace 1 it alternates untraced rounds with rounds traced through
tracer.py and prints the per-layer metrics of layers.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within this many seconds; commands still running then are killed.
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sentences_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


class Runner:
    """Runs `multipos` commands in child processes and records their cost."""

    def __init__(self, cwd: Path, deadline: float, trace_dir: Path | None = None) -> None:
        self.cwd = cwd
        self.deadline = deadline
        self.trace_dir = trace_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.commands: list[dict] = []

    def __call__(self, *args: str) -> int:
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "multipos.cli", *args]
        else:
            trace = self.trace_dir / f"cmd{len(self.commands)}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace), "--", *args]
        with open(self.cwd / "commands.log", "a", encoding="utf-8") as log:
            log.write(" ".join(args) + "\n")
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env, stdout=log, stderr=log)
            watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.commands.append({
            "args": args,
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        })
        return proc.returncode

    def traces(self) -> list[dict]:
        out = []
        for i in range(len(self.commands)):
            with open(self.trace_dir / f"cmd{i}.json", encoding="utf-8") as fh:
                out.append(json.load(fh))
        return out


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _run_round(wl, inputs: dict, work: Path, deadline: float, trace_dir: Path | None = None) -> dict:
    out = _fresh(work / "out")
    runner = Runner(work, deadline, trace_dir)
    t0 = time.perf_counter()
    artifacts = wl.round(inputs, out, runner)
    wall = time.perf_counter() - t0
    failed = sum(c["exit"] != 0 for c in runner.commands)
    return {
        "wall_s": wall,
        "cpu_s": sum(c["cpu_s"] for c in runner.commands),
        "peak_rss_mb": max(c["rss_mb"] for c in runner.commands),
        "attempted": len(runner.commands),
        "failed": failed,
        "digest": None if failed else _digest(artifacts),
        "traces": runner.traces() if trace_dir is not None and not failed else None,
    }


def _check(wl, inputs: dict, work: Path, rounds: list[dict]) -> tuple[bool, list[str]]:
    """Check the last round's outputs; every round must produce the same bytes.

    Returns whether all checks passed and what was checked or found wrong.
    """
    from checks import CheckFailed

    if any(r["failed"] for r in rounds):
        return False, ["a command failed, so its outputs were not checked"]
    digests = {r["digest"] for r in rounds}
    try:
        if len(digests) != 1:
            raise CheckFailed(f"{len(rounds)} rounds of the same inputs produced {len(digests)} different outputs")
        return True, wl.check(inputs, work / "out") + [f"{len(rounds)} rounds produced byte-identical outputs"]
    except (CheckFailed, KeyError, OSError, ValueError) as exc:
        return False, [f"FAILED {type(exc).__name__}: {exc}"]


# Both measure_* functions return (metrics by name as (value, unit), rounds, checks passed, check notes).


def measure_end_to_end(wl, seed: int, seconds: float, work: Path, deadline: float):
    """Median set-up time over wl.setups set-ups, then per-round medians over untraced rounds.

    The set-ups alternate with the first rounds, so that both sample the
    same drift of host speed over the run.
    """
    setup_s, rounds = [], []
    while len(setup_s) < wl.setups or sum(r["wall_s"] for r in rounds) < seconds:
        if len(setup_s) < wl.setups:
            d = _fresh(work / "inputs")
            runner = Runner(work, deadline)
            t0 = time.perf_counter()
            inputs = wl.setup(d, seed, runner)
            setup_s.append(time.perf_counter() - t0)
        rounds.append(_run_round(wl, inputs, work, deadline))
    ok, notes = _check(wl, inputs, work, rounds)
    sentences = wl.sentences(inputs)
    med = statistics.median
    metrics = {
        "setup_s": med(setup_s),
        "wall_s": med(r["wall_s"] for r in rounds),
        "cpu_s": med(r["cpu_s"] for r in rounds),
        "sentences_per_s": med(sentences / r["wall_s"] for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }
    print(f"{wl.name}: {wl.setups} set-ups {[round(s, 3) for s in setup_s]} s; {len(rounds)} rounds "
          f"{[round(r['wall_s'], 3) for r in rounds]} s; {sentences} sentences per round")
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, rounds, ok, notes


def measure_layers(wl, seed: int, seconds: float, work: Path, deadline: float):
    """One traced set-up, then untraced and traced rounds in turn."""
    from layers import PER_LAYER, RATIO_BASES, layer_metrics
    from tracer import Tracer, instrument_setup

    tracer = Tracer()
    instrument_setup(tracer)
    try:
        inputs = wl.setup(_fresh(work / "inputs"), seed, Runner(work, deadline))
    finally:
        tracer.restore()
    traces = _fresh(work / "traces")
    tracer.dump(str(traces / "setup.json"))
    # Untraced and traced rounds alternate, so a drift in host speed during
    # the run does not show up as tracing overhead.
    plain, traced = [], []
    while not traced or sum(r["wall_s"] for r in plain + traced) < seconds:
        plain.append(_run_round(wl, inputs, work, deadline))
        traced.append(_run_round(wl, inputs, work, deadline, _fresh(traces / f"round{len(traced)}")))
    rounds = plain + traced
    ok, notes = _check(wl, inputs, work, rounds)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    overhead = statistics.median(r["wall_s"] for r in traced) - plain_wall
    setup_trace = {"spans": tracer.spans, "counts": dict(tracer.counts)}
    values = layer_metrics(setup_trace, [r["traces"] for r in traced if r["traces"]], overhead)
    sentences = wl.sentences(inputs)
    if values["encoder.encode.rows"] == sentences:
        notes.append(f"traced encode calls saw the {sentences} sentences per round behind sentences_per_s")
    else:
        ok = False
        notes.append(f"FAILED traced encode calls saw {values['encoder.encode.rows']} sentences per round, "
                     f"the workload states {sentences}")
    for name, unit in PER_LAYER:
        line = f"  {name} = {values[name]:.6g} {unit}"
        base = RATIO_BASES.get(name)
        if base and values[base]:
            line += f"  ({values[name] / values[base]:.1%} of {base} = {values[base]:.6g})"
        elif name == "trace.overhead_s":
            line += f"  ({overhead / plain_wall:.1%} of the untraced round wall_s = {plain_wall:.6g} s)"
        print(line)
    print(f"{wl.name}: {len(plain)} untraced and {len(traced)} traced rounds; "
          f"trace files under {traces.relative_to(ROOT)}")
    return {name: (values[name], unit) for name, unit in PER_LAYER}, rounds, ok, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "multipos" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'multipos'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = _fresh(ROOT / ".perfbench-runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}")
    try:
        metrics, rounds, correct, notes = (measure_layers if args.trace else measure_end_to_end)(
            wl, args.seed, args.seconds, work, deadline
        )
    finally:
        for sub in ("inputs", "out"):
            shutil.rmtree(work / sub, ignore_errors=True)
    for note in notes:
        print(f"check: {note}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
