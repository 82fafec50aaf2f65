#!/usr/bin/env python3
"""The gravent benchmark: warm sweeps, cold commands and per-layer traces.

Run from the repository root (the program is imported from src/):

    python3 perfbench/run.py --workload sweep-q --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12

With ``--trace 0`` the last stdout line is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run.  The line before it records the environment, the
inputs and the correctness gate.  ``--workload all`` runs every workload
both ways and prints a table before the JSON.  The run exits 1 when an
output is wrong and 2 when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import cli_checks
import inputs
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
SETUP_PROBES = 3          # fresh interpreters timed for setup_s per run
IMPORT_PROBES = 3         # -X importtime runs per traced run
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
# Runs go on past --seconds until this many operations are timed, so the
# tail percentile lies at p60 or above.
MIN_OPS = 25
# The reference process (speed.py) runs before every REF_EVERY-th timed
# command; more often would only lengthen the run.
REF_EVERY = 5
# Exactly what the installed `gravent` console script does.
CLI_BOOT = "import sys; from gravent.cli import main; sys.exit(main())"
# What a cold command pays before its first line of work.
IMPORT_BOOT = "import gravent, gravent.cli"

# Metric names and units, as BENCHMARK.json declares them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

_TRIG = "entanglement.trig_moments"
_LAYER_FUNCS = ("wigner.theta_circular", "entanglement.wootters_concurrence",
                "entanglement.reduced_density_closed",
                "entanglement.entanglement_of_formation",
                "entanglement.reduced_density_bruteforce", "experiments.run_sweep",
                "wigner.product_integral", "output.emit_csv", "output.emit_json",
                "output.emit_svg")
IMPORT_MODULES = ("spacetime", "wigner", "entanglement", "experiments", "output", "cli")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRAVENT_QUAD_NODES", None)  # the defaults are what is measured
    env["PYTHONPATH"] = str(SRC)
    return env


ENV = child_env()


def _reap(proc: subprocess.Popen) -> float:
    """Wait for proc; return its peak resident set in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def _kill(proc: subprocess.Popen) -> None:
    """Stop a child that is still running (on an error or interrupt)."""
    if proc.returncode is None:
        proc.kill()
        _reap(proc)


def run_command(argv: list[str]) -> tuple[int, str, str, float, float]:
    """Run argv to completion: (exit code, stdout, stderr, seconds, peak MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=ENV, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        _kill(proc)
        raise
    rss = _reap(proc)
    seconds = time.perf_counter() - start
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, seconds, rss


def start_worker(cfg: dict) -> tuple[subprocess.Popen, float]:
    """Spawn worker.py; return it and the seconds until it printed READY."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT)
    try:
        line = proc.stdout.readline()
    except BaseException:
        _kill(proc)
        raise
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.stdout.close()
        _reap(proc)
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready


def finish_worker(proc: subprocess.Popen) -> tuple[str, float]:
    """Read the rest of a worker's stdout and reap it: (stdout, peak MB)."""
    try:
        out = proc.stdout.read()
    except BaseException:
        _kill(proc)
        raise
    proc.stdout.close()
    return out, _reap(proc)


def time_reference() -> float:
    """Seconds of one run of the reference process (see speed.py)."""
    rc, _, err, secs, _ = run_command([sys.executable, str(BENCH / "speed.py")])
    if rc != 0:
        raise BenchError(f"the reference process failed: {err.strip()[-300:]}")
    return secs


def probe_setup(round_: list, count: int, refs: list[float]) -> list[float]:
    """Set-up seconds of `count` fresh interpreters.

    With a sweep round, each is a sweep worker up to READY (imports and
    warm-up); without one, each is a plain import of gravent and
    gravent.cli, all a cold command does before its own work.  The
    reference process runs before each; its times are appended to `refs`.
    """
    times = []
    for _ in range(count):
        refs.append(time_reference())
        if round_:
            proc, ready = start_worker({"round": round_, "setup_only": True})
            finish_worker(proc)
            times.append(ready)
        else:
            rc, _, err, secs, _ = run_command([sys.executable, "-c", IMPORT_BOOT])
            if rc != 0:
                raise BenchError(f"importing gravent failed: {err.strip()[-300:]}")
            times.append(secs)
    return times


def import_times() -> dict:
    """Median cumulative import ms per gravent module and for SciPy.

    SciPy's figure sums the outermost scipy* entries, which are imported
    from inside gravent modules.
    """
    runs = []
    for _ in range(IMPORT_PROBES):
        rc, _, err, _, _ = run_command(
            [sys.executable, "-X", "importtime", "-c", "import gravent, gravent.cli"])
        if rc != 0:
            raise BenchError("importing gravent failed")
        found = {"scipy": 0.0}
        stack: list[str] = []
        lines = [m for m in (re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
                             for line in err.splitlines()) if m]
        for m in reversed(lines):  # parents are printed after their children
            depth = (len(m.group(2)) - 1) // 2
            del stack[depth:]
            name, cumulative_ms = m.group(3), int(m.group(1)) / 1e3
            if name.startswith("gravent."):
                found[name.split(".", 1)[1]] = cumulative_ms
            elif name.split(".")[0] == "scipy" and not any(
                    s.split(".")[0] == "scipy" for s in stack):
                found["scipy"] += cumulative_ms
            stack.append(name)
        runs.append(found)
    names = list(IMPORT_MODULES) + ["scipy"]
    return {n: statistics.median(r.get(n, 0.0) for r in runs) for n in names}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               text=True, capture_output=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (head or "unknown") + ("+dirty-src" if dirty.strip() else "")


def latency(groups: dict) -> tuple[float, float, dict]:
    """(p50 ms, tail ms, info) of operation latencies grouped by input.

    The p50 is each input's median latency averaged over the inputs: the
    machine alternates between fast and slow phases, and a median pooled
    over inputs of different cost jumps between them as the phase mix
    shifts.  The tail is the highest percentile of the pooled latencies
    with TAIL_BEYOND samples beyond it.
    """
    pooled = sorted(x for values in groups.values() for x in values)
    k = max(0, len(pooled) - TAIL_BEYOND - 1)
    p50 = statistics.mean(statistics.median(values) for values in groups.values())
    return p50, pooled[k], {"samples": len(pooled),
                            "tail_percentile": 100.0 * (k + 1) / len(pooled)}


# -- aggregation of traces -------------------------------------------------

def merge_traces(summaries: list[dict]) -> dict:
    agg = {"spans": {}, "counts": {}, "maxima": {}, "samples": {}}
    for s in summaries:
        for name, entry in s["spans"].items():
            into = agg["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for key, value in s["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0.0) + value
        for key, value in s["maxima"].items():
            agg["maxima"][key] = max(agg["maxima"].get(key, value), value)
        for key, values in s["samples"].items():
            agg["samples"].setdefault(key, []).extend(values)
    return agg


def per_layer_metrics(agg: dict, ops: int, first_call_s: list[float], imports: dict,
                      overhead: float, coverage: float) -> dict:
    """Every PER_LAYER metric; counts and times are per operation."""
    spans, counts = agg["spans"], agg["counts"]

    def per_op(value: float) -> float:
        return value / ops

    m = {}
    for name in _LAYER_FUNCS + (_TRIG, "experiments.oracle_equivalence_report",
                                "cli.main", "wigner.theta_zeros"):
        entry = spans.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = per_op(entry["calls"])
        m[f"{name}.self_ms"] = per_op(entry["self_s"] * 1e3)
    trig_calls = spans.get(_TRIG, {"calls": 0})["calls"]
    nodes = agg["samples"].get(f"{_TRIG}.nodes_final", [])
    momenta = counts.get(f"{_TRIG}.momenta", 0.0)
    m[f"{_TRIG}.at_cap"] = per_op(counts.get(f"{_TRIG}.at_cap", 0.0))
    m[f"{_TRIG}.at_cap_frac"] = counts.get(f"{_TRIG}.at_cap", 0.0) / trig_calls if trig_calls else 0.0
    m[f"{_TRIG}.failed"] = per_op(counts.get(f"{_TRIG}.failed", 0.0))
    m[f"{_TRIG}.nodes_final_p50"] = float(statistics.median(nodes)) if nodes else 0.0
    m[f"{_TRIG}.nodes_final_max"] = float(max(nodes)) if nodes else 0.0
    m[f"{_TRIG}.residual_max"] = agg["maxima"].get(f"{_TRIG}.residual_max", 0.0)
    m[f"{_TRIG}.useful_node_frac"] = (
        counts.get(f"{_TRIG}.useful_momenta", 0.0) / momenta if momenta else 0.0)
    m["wigner.theta_circular.points"] = per_op(counts.get("wigner.theta_circular.points", 0.0))
    rows = 0.0
    for kind in ("computed", "reduced_tolerance", "no_convergence", "domain", "horizon"):
        value = counts.get(f"experiments.rows.{kind}", 0.0)
        rows += value
        m[f"experiments.rows.{kind}"] = per_op(value)
    m["experiments.rows.failed_frac"] = (
        counts.get("experiments.rows.no_convergence", 0.0) / rows if rows else 0.0)
    m["wigner.product_integral.steps"] = per_op(counts.get("wigner.product_integral.steps", 0.0))
    m["wigner.product_integral.first_call_ms"] = (
        statistics.median(first_call_s) * 1e3 if first_call_s else 0.0)
    for name in ("emit_csv", "emit_json", "emit_svg"):
        m[f"output.{name}.bytes"] = per_op(counts.get(f"output.{name}.bytes", 0.0))
    for module, ms in imports.items():
        m[f"{module}.import_ms"] = ms
    m["trace.overhead_frac"] = overhead
    m["trace.coverage"] = coverage
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}


# -- workloads -------------------------------------------------------------

def run_sweeps(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    round_ = inputs.sweep_round(workload, seed)
    setup_refs: list[float] = []
    setups = probe_setup(round_, SETUP_PROBES - 1, setup_refs)
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "min_ops": MIN_OPS, "trace": trace, "round": round_}
    setup_refs.append(time_reference())
    proc, ready = start_worker(cfg)
    setups.append(ready)
    out, rss = finish_worker(proc)
    if proc.returncode != 0:
        raise BenchError(f"sweep worker exited with {proc.returncode}")
    res = json.loads(out.splitlines()[-1])
    check = res["check"]
    # Every row is an operation.  A row flagged no-convergence (its E is
    # imputed by stationary phase) fails when the cap rule of checks.py
    # resolves it; every round repeats the last one's rows exactly.
    rounds_run = res["rows"] // check["rows"]
    info = {"at_cap_frac": res["at_cap_frac"],
            "no_convergence_frac": check["no_convergence"] / check["rows"],
            "rounds": res["rounds"], "sweeps_per_round": len(round_), "check": check}
    result = {"correct": check["ok"], "attempted": res["rows"],
              "failed": check["refused_resolvable"] * rounds_run}
    if trace:
        imports = import_times()
        ops = res["ops_traced"]
        overhead = res["rows_per_s_untraced"] / res["rows_per_s_traced"] - 1.0
        result["metrics"] = per_layer_metrics(merge_traces([res["trace"]]), ops, [],
                                              imports, overhead, res["coverage"])
        info.update(rows_per_s_untraced=res["rows_per_s_untraced"],
                    rows_per_s_traced=res["rows_per_s_traced"])
        if not 0.9 <= res["coverage"] <= 1.0 + 1e-9:
            result["correct"] = False
            info["coverage_error"] = "span self times do not account for sweep wall time"
    else:
        def by_input(times: list[float]) -> dict:
            groups: dict = {}
            for i, ms in enumerate(times):
                groups.setdefault(i % len(round_), []).append(ms)
            return groups

        raw = by_input(res["op_ms"])
        scale = speed.factor(res["ref_ms"])
        lo, hi = speed.FACTOR_RANGE
        info.update(speed_factor=scale, speed_factor_in_range=lo <= scale <= hi, unscaled={
            "throughput_per_s": res["rows"] / (sum(res["op_ms"]) / 1e3),
            "latency_ms_p50": latency(raw)[0], "latency_ms_tail": latency(raw)[1]})
        if not info["speed_factor_in_range"]:
            print(f"perfbench: speed factor {scale:.3f} outside [{lo}, {hi}]; the "
                  "scaled sweep metrics of this run are suspect", file=sys.stderr)
        # Each sweep is scaled by the kernel timed around it, so the
        # times are at nominal speed already.
        scaled = by_input(speed.scale_each(res["op_ms"], res["ref_ms"]))
        result["metrics"] = end_to_end_metrics(setups, setup_refs, res["rows"], scaled,
                                               rss, info, 1.0)
    return result, info


def end_to_end_metrics(setups, setup_refs, done, groups, rss, info, scale) -> dict:
    """The END_TO_END metrics of one untraced run.

    `done` is the work completed (rows or commands) in the operations
    timed in `groups`.  Timings are multiplied by the speed references'
    factors (speed.py), so they read at nominal machine speed: set-up by
    the reference process timed next to it, throughput, p50 and tail by
    `scale` (1 when the times in `groups` are scaled already).
    """
    p50, tail_ms, tail_info = latency(groups)
    rate = done / (sum(sum(values) for values in groups.values()) / 1e3)
    setup_scale = speed.process_factor(setup_refs)
    values = {
        "setup_s": statistics.median(setups) * setup_scale,
        "throughput_per_s": rate / scale,
        "latency_ms_p50": p50 * scale,
        "latency_ms_tail": tail_ms * scale,
        "peak_rss_mb": rss,
    }
    info.update(tail_info, setup_samples_s=setups, setup_speed_factor=setup_scale)
    info.setdefault("unscaled", {}).setdefault("latency_ms_tail", tail_ms)
    info["unscaled"]["setup_s"] = statistics.median(setups)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_commands(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    setup_refs: list[float] = []
    setups = probe_setup([], SETUP_PROBES, setup_refs)
    op_refs: list[float] = []
    op_ms: dict[str, list[float]] = {}
    errors: list[str] = []
    failed = 0
    peak = 0.0
    plain_s, traced_s, summaries, first_calls = [], [], [], []
    svg_outputs: dict[tuple[str, ...], str] = {}
    index = 0
    start = time.perf_counter()

    def one(argv: list[str], traced: bool) -> str:
        nonlocal failed, peak
        boot = [str(BENCH / "traced_cli.py")] if traced else ["-c", CLI_BOOT]
        rc, out, err, secs, rss = run_command([sys.executable] + boot + argv)
        if rc != 0:
            failed += 1
            errors.append(f"gravent {' '.join(argv)} exited {rc}: {err.strip()[-300:]}")
        else:
            errors.extend(f"gravent {' '.join(argv)}: {e}"
                          for e in cli_checks.check_command(argv, out))
            if "svg" in argv:
                svg_outputs.setdefault(tuple(argv), out)
        (traced_s if traced else plain_s).append(secs)
        if not traced:
            op_ms.setdefault(argv[0], []).append(secs * 1e3)
            peak = max(peak, rss)
        return err

    # Untraced runs stop when the time is up and MIN_OPS commands are
    # timed; traced runs finish whole rounds, so their per-command counts
    # repeat exactly.
    def more() -> bool:
        done = sum(len(v) for v in op_ms.values())
        return time.perf_counter() - start < seconds or (not trace and done < MIN_OPS)

    while index == 0 or more():
        for argv in inputs.command_round(workload, seed, index):
            if not trace and not more():
                break
            if not trace and len(plain_s) % REF_EVERY == 0:
                op_refs.append(time_reference())
            one(argv, False)
            if trace:
                err = one(argv, True)
                line = next((ln for ln in reversed(err.splitlines())
                             if ln.startswith("PERFBENCH-TRACE ")), None)
                if line is None:
                    raise BenchError(f"no trace from gravent {' '.join(argv)}")
                summary = json.loads(line.split(" ", 1)[1])
                summaries.append(summary)
                if summary["product_integral_first_s"] is not None:
                    first_calls.append(summary["product_integral_first_s"])
        index += 1

    # Each distinct plot is checked against the rows of the same command
    # in CSV, after the timed loop so the check does not thin it out.
    for argv, svg in svg_outputs.items():
        twin = list(argv)
        twin[twin.index("--format") + 1] = "csv"
        rc, out, err, _, _ = run_command([sys.executable, "-c", CLI_BOOT] + twin)
        problems = [f"exited {rc}: {err.strip()[-300:]}"] if rc != 0 else (
            cli_checks.svg_matches_rows(svg, out))
        errors.extend(f"gravent {' '.join(argv)}: {e}" for e in problems)

    info = {"rounds": index, "seed_applies": workload != "validate",
            "check": {"ok": not errors, "breaches": len(errors), "failures": errors[:10]}}
    attempted = sum(len(v) for v in op_ms.values())
    result = {"correct": not errors and not failed, "attempted": attempted, "failed": failed}
    if trace:
        agg = merge_traces(summaries)
        spans_s = sum(e["self_s"] for e in agg["spans"].values())
        overhead = statistics.mean(traced_s) / statistics.mean(plain_s) - 1.0
        result["metrics"] = per_layer_metrics(agg, len(summaries), first_calls,
                                              import_times(), overhead,
                                              spans_s / sum(traced_s))
        info["at_cap_frac"] = result["metrics"][f"{_TRIG}.at_cap_frac"]["value"]
    else:
        scale = speed.process_factor(op_refs)
        info.update(speed_factor=scale, unscaled={
            "throughput_per_s": attempted / (sum(map(sum, op_ms.values())) / 1e3),
            "latency_ms_p50": latency(op_ms)[0]})
        result["metrics"] = end_to_end_metrics(setups, setup_refs, attempted, op_ms, peak,
                                               info, scale)
    return result, info


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    runner = run_sweeps if workload in inputs.SWEEP_WORKLOADS else run_commands
    result, info = runner(workload, seed, seconds, trace)
    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "why": inputs.WORKLOADS[workload], **info, "env": environment()}
    return result, info


def _table(workload: str, result: dict) -> str:
    lines = [f"== {workload} (correct={result['correct']}, attempted={result['attempted']}, "
             f"failed={result['failed']})"]
    lines += [f"  {name:50s} {m['value']:14.6g} {m['unit']}"
              for name, m in result["metrics"].items()]
    return "\n".join(lines)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the child clean-ups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gravent" / "__init__.py").is_file():
        print(f"perfbench: no gravent sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.workload != "all":
            result, info = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
            print(json.dumps(info))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        report, correct = {}, True
        for workload in inputs.WORKLOADS:
            for trace in (False, True):
                result, info = run_workload(workload, args.seed, args.seconds, trace)
                print(_table(workload + (" traced" if trace else ""), result), flush=True)
                report.setdefault(workload, {})["traced" if trace else "untraced"] = {
                    "result": result, "info": info}
                correct = correct and result["correct"]
        print(json.dumps(report))
        return 0 if correct else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
