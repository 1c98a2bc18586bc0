#!/usr/bin/env python3
"""The repository benchmark: figure regeneration, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run builds the `perfbench`
cargo package (this directory) into $CARGO_TARGET_DIR, default
`.bench_build`; everything a run writes goes under `.perfbench_work/`.

Workloads (see BENCHMARK.json for why each exists):

  sweep-small     every figure of `figures::ALL` at Small scale, cold (no
                  result store, no trace store), executor at nproc workers
  nofail-default  fig04 (no power failure) at Default scale, one worker
  tr1-default     fig05 (Power Trace 1) at Default scale, one worker
  sweep-warm      the sweep-small figure set served from a result store
                  that set-up fills, one fresh process per serve

Each iteration of a workload is a fresh process, because the executor's
memo cache is process-wide; a run repeats iterations for about
--seconds, starting another only when it is expected to end in time.
So with run_seconds 20, tr1-default (9-15 s per fig05) records only one
or two samples per run, and its spread shows mostly across runs; the
stamp gives each metric's sample count.

The simulator is deterministic and its inputs are the fixed paper suite
and built-in power traces, so --seed permutes the order in which the
two sweep workloads regenerate their figures; results must not depend
on it. It has no effect on the two Default workloads.

End-to-end metrics (--trace 0); the timings and peak_rss_mb are medians
over the run's samples:

  wall_s           host seconds of one iteration, measured in the child
  sim_instr_per_s  simulated instructions retired per host second; for
                   sweep-warm, instructions of the results served (what
                   the fill simulated) per host second
  setup_s          host seconds of set-up: a child that starts, builds
                   the kernel suite and makes the executor's first use
                   of every kernel (trace recording, dedup
                   fingerprinting); for sweep-warm, a store fill
  peak_rss_mb      peak resident memory (VmHWM) of the iteration process
  paper_gap        mean |ln(measured / paper)| of the gmean(Total)
                   speedups over NVSRAM(ideal) in the fig04/fig05 the
                   run produced (expect.py lists the paper ratios)

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
makes one traced run (`perfbench trace`) that times each layer's public
functions from outside the program and reports the per-layer metrics;
its layer peel replays the suite on the workload's own power trace
(Default workloads) or on no-failure and Power Trace 1 (Small sweeps).
Metric names and units come from BENCHMARK.json.

Every output is checked: sweep TSVs against pinned fingerprints
(expect.py), Default TSVs byte for byte against results/,
warm serves for zero executed simulations, and the traced run's own
engine cross-checks. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; failed/attempted is the
run's failed_frac. The line before it, "# stamp {...}", records the
provenance of the numbers (source fingerprint, git rev when there is
one, nproc, workers, engine, rustc, EHSIM_* variables, the share of CPU
time the hypervisor stole during the run, per-metric quartiles and
sample counts); the same record is written to
.perfbench_work/<workload>/result.json. The exit status is 1 when any
check fails.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
from expect import PAPER_RATIOS, SMALL_TSV_FNV  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# The committed Default-scale TSVs the Default workloads must reproduce.
EXPECT = ROOT / "results"

# `figures::ALL`, in regeneration order.
FIGURES = list(SMALL_TSV_FNV)
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

WORKLOADS = {
    "sweep-small": {"scale": "small", "figures": FIGURES, "workers": NPROC, "store": False, "powers": "none,rf1"},
    "nofail-default": {"scale": "default", "figures": ["fig04"], "workers": 1, "store": False, "powers": "none"},
    "tr1-default": {"scale": "default", "figures": ["fig05"], "workers": 1, "store": False, "powers": "rf1"},
    "sweep-warm": {"scale": "small", "figures": FIGURES, "workers": NPROC, "store": True, "powers": "none,rf1"},
}

# A run must end within 180 s of its start (the first run may also
# build); children get what is left of this budget.
RUN_BUDGET_S = 170.0
# Set-up repetitions per run. A sweep's set-up (process start, suite
# construction, trace recording) takes ~10 ms at Small and ~0.4 s at
# Default scale; sweep-warm's set-up, a store fill, is a cold Small sweep.
SUITE_SETUPS = 9
STORE_FILLS = 3


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def quantile(values, q):
    """The q-quantile (0 <= q <= 1) of `values`, interpolating linearly
    between closest ranks; 0.0 for no values."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    xs = sorted(values)
    if not xs:
        return 0.0
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def summary(values):
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "n": len(values),
    }


def gmean_total(tsv_text):
    """Design label -> gmean(Total) of a Fig 4/5-style speedup table."""
    rows = [line.split("\t") for line in tsv_text.splitlines() if line]
    col = rows[0].index("gmean(Total)")
    return {row[0]: float(row[col]) for row in rows[1:]}


def paper_gap(tables):
    """Mean |ln(measured / paper)| of the gmean(Total) speedups over
    NVSRAM(ideal), over every (figure, design) of PAPER_RATIOS whose
    figure is in `tables` (name -> TSV text)."""
    terms = []
    for fig, ratios in PAPER_RATIOS.items():
        if fig in tables:
            measured = gmean_total(tables[fig])
            terms += [abs(math.log(measured[d] / paper)) for d, paper in ratios.items()]
    return statistics.fmean(terms)


class Checks:
    """Output checks: every one attempted counts, failures are named on
    stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def check_tsvs(results_dir, names, expect_dir, checks):
    """Checks each `<name>.tsv` in `results_dir`: Default-scale figures
    byte for byte against `expect_dir`, the rest against the pinned
    Small fingerprints. Returns name -> TSV text for those present."""
    tables = {}
    for name in names:
        path = results_dir / f"{name}.tsv"
        data = path.read_bytes() if path.is_file() else None
        if expect_dir is not None:
            ok = data is not None and data == (expect_dir / f"{name}.tsv").read_bytes()
            checks.check(ok, f"{path} differs from {expect_dir / (name + '.tsv')}")
        else:
            ok = data is not None and fnv1a(data) == SMALL_TSV_FNV[name]
            checks.check(ok, f"{path} does not match its pinned fingerprint")
        if data is not None:
            tables[name] = data.decode()
    return tables


class Runner:
    """Starts the perfbench binary and waits for it, within the run's
    deadline."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline
        self.env_stamp = {}

    def env(self, workers, store=None):
        env = {k: v for k, v in os.environ.items() if k not in ("EHSIM_JOBS", "EHSIM_RESULT_STORE", "EHSIM_TRACE_CACHE")}
        env["EHSIM_JOBS"] = str(workers)
        if store is not None:
            env["EHSIM_RESULT_STORE"] = str(store)
        self.env_stamp.update({k: v for k, v in env.items() if k.startswith("EHSIM_") and k != "EHSIM_RESULT_STORE"})
        return env

    def run(self, args, cwd, env, checks):
        """Runs one job; returns its result object, or None (counted as a
        failed check) when it fails or runs out of time."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            checks.check(False, f"no time left for perfbench {' '.join(args)}")
            return None
        cwd.mkdir(parents=True, exist_ok=True)
        try:
            p = subprocess.run([str(self.binary), *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            checks.check(False, f"perfbench {' '.join(args)} ran out of time")
            return None
        lines = [line for line in p.stdout.splitlines() if line.startswith("PERFBENCH ")]
        ok = p.returncode == 0 and bool(lines)
        if ok:
            # The traced run counts its own failed checks; pass on what they were.
            sys.stderr.writelines(line + "\n" for line in p.stderr.splitlines() if "check failed" in line)
        checks.check(ok, f"perfbench {' '.join(args)} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
        return json.loads(lines[-1][len("PERFBENCH "):]) if ok else None

    def figures(self, wl, names, cwd, env, expect_dir, checks):
        """One figure regeneration in `cwd`, outputs checked. Returns
        (result or None, name -> TSV text)."""
        shutil.rmtree(cwd / "results", ignore_errors=True)
        res = self.run(["figures", "--scale", wl["scale"], "--names", ",".join(names)], cwd, env, checks)
        return res, check_tsvs(cwd / "results", names, expect_dir, checks)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"perfbench: build failed ({' '.join(cmd)})")
    return target / "release" / "perfbench"


def fill_stores(runner, wl, work, expect_dir, checks, fills):
    """Set-up of sweep-warm: fills a fresh result store `fills` times
    with a cold sweep. Returns (fill seconds, last store, instructions
    the fill simulated, simulations it ran)."""
    seconds, store, instructions, sims = [], None, 0, 0
    for i in range(fills):
        store = work / f"store{i}"
        shutil.rmtree(store, ignore_errors=True)
        t = time.perf_counter()
        res, _ = runner.figures(wl, wl["figures"], work / "fill", runner.env(wl["workers"], store), expect_dir, checks)
        seconds.append(time.perf_counter() - t)
        if res is not None:
            instructions, sims = res["instructions"], res["sims_run"]
    return seconds, store, instructions, sims


def timed_run(runner, wl, args, work, expect_dir, checks, stamp):
    rng = random.Random(args.seed)
    if wl["store"]:
        setup, store, delivered, filled = fill_stores(runner, wl, work, expect_dir, checks, STORE_FILLS)
        env = runner.env(wl["workers"], store)
    else:
        setup, store = [], None
        env = runner.env(wl["workers"])
        for _ in range(SUITE_SETUPS):
            t = time.perf_counter()
            res = runner.run(["suite", "--scale", wl["scale"]], work / "suite", env, checks)
            setup.append(time.perf_counter() - t)
            checks.check(res is not None and res["kernels"] == res["canonical"] == 23, "suite set-up")

    samples = {"wall_s": [], "sim_instr_per_s": [], "peak_rss_mb": []}
    tables, start = {}, time.monotonic()
    while True:
        names = rng.sample(wl["figures"], len(wl["figures"]))
        res, tables = runner.figures(wl, names, work / "iter", env, expect_dir, checks)
        if res is not None:
            stamp["engine"] = res["engine"]
            instructions = res["instructions"]
            if wl["store"]:
                # A warm serve executes nothing; it delivers the results
                # of every simulation the fill ran.
                ok = res["sims_run"] == 0 and res["store_hits"] == filled and res["store_rejects"] == 0
                checks.check(ok, f"warm serve: {res['sims_run']} sims run, {res['store_hits']} of {filled} from the store")
                instructions = delivered
            samples["wall_s"].append(res["wall_s"])
            samples["sim_instr_per_s"].append(instructions / res["wall_s"])
            samples["peak_rss_mb"].append(res["vm_hwm_kb"] / 1024)
        n = len(samples["wall_s"])
        elapsed = time.monotonic() - start
        if res is None or n == 0 or elapsed * (n + 1) / n > args.seconds:
            break
    samples["setup_s"] = setup
    stamp["samples"] = {k: summary(v) for k, v in samples.items()}
    stamp["order"] = names
    try:
        gap = paper_gap(tables)
    except (KeyError, ValueError, IndexError, statistics.StatisticsError):
        gap = 0.0
    checks.check(gap > 0.0, "paper_gap could not be computed from the outputs")
    values = {k: quantile(v, 0.5) for k, v in samples.items()}
    values["paper_gap"] = gap
    return values


def traced_run(runner, wl, args, work, expect_dir, checks, stamp):
    names = random.Random(args.seed).sample(wl["figures"], len(wl["figures"]))
    store = None
    if wl["store"]:
        _, store, _, _ = fill_stores(runner, wl, work, expect_dir, checks, 1)
    env = runner.env(wl["workers"], store)
    cwd = work / "trace"
    shutil.rmtree(cwd, ignore_errors=True)
    args_ = ["trace", "--scale", wl["scale"], "--names", ",".join(names), "--powers", wl["powers"]]
    res = runner.run(args_, cwd, env, checks)
    check_tsvs(cwd / "results", names, expect_dir, checks)
    stamp["order"] = names
    if res is None:
        return {}
    stamp["engine"] = res["engine"]
    stamp["trace_child"] = {k: v for k, v in res.items() if k != "exec.sim_ns"}
    checks.attempted += res["attempted"]
    checks.failed += res["failed"]
    sim_ms = [ns / 1e6 for ns in res["exec.sim_ns"]]
    stamp["samples"] = {"exec.sim_ms": summary(sim_ms)}
    values = dict(res)
    values["exec.sim_ms_p50"] = quantile(sim_ms, 0.50)
    values["exec.sim_ms_p99"] = quantile(sim_ms, 0.99)
    values["failed_frac"] = checks.failed / max(checks.attempted, 1)
    return values


def source_fingerprint():
    """SHA-256 over the sources the benchmark builds (paths and
    contents), standing in for a git rev where there is none."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", *sorted((ROOT / "crates").rglob("*")), *sorted(HERE.rglob("*"))]
    for f in files:
        if f.is_file() and "target" not in f.relative_to(ROOT).parts:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks():
    """The host's cumulative CPU ticks (user .. steal) from /proc/stat,
    or None where there is no /proc."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_fraction(before, after):
    """Share of CPU time the hypervisor took from this machine between
    two cpu_ticks() readings: a measure of how contended the host was."""
    if before is None or after is None or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def command_output(cmd):
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()

    wl = WORKLOADS[args.workload]
    expect_dir = EXPECT if wl["scale"] == "default" else None
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(binary, time.monotonic() + RUN_BUDGET_S)
    checks = Checks()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source_fingerprint": source_fingerprint(),
        "git_rev": command_output(["git", "rev-parse", "--short=12", "HEAD"]) if (ROOT / ".git").exists() else "none",
        "nproc": NPROC,
        "workers": wl["workers"],
        "rustc": command_output(["rustc", "-V"]),
    }
    run = traced_run if args.trace else timed_run
    ticks = cpu_ticks()
    values = run(runner, wl, args, work, expect_dir, checks, stamp)
    stamp["host_steal_frac"] = steal_fraction(ticks, cpu_ticks())
    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        value = values.get(m["name"])
        checks.check(value is not None, f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(value or 0.0), "unit": m["unit"]}
    stamp["env"] = runner.env_stamp
    stamp["checks"] = {"attempted": checks.attempted, "failed": checks.failed}
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": metrics,
    }
    # Keep the record; drop the stores and TSVs the run wrote.
    for sub in work.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    (work / "result.json").write_text(json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print("# stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
