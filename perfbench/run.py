#!/usr/bin/env python3
"""leafcoh benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-cold, float-lane, dio-search, exact-calculus (see README.md
next to this file).  One process, one closed-loop client: the next job
starts only when the previous one has returned.  A run executes whole
rounds, each a fixed mix of job kinds whose values and order come from the
seed, until ``--seconds`` have passed and at least 100 jobs have run.
Every job's answer is checked by an oracle; at the default seed 0 the first
round is also compared with the reference recorded in ``reference/``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` each round runs untraced and then traced on the same
inputs; the last line carries the per-layer metrics of the traced passes.
The line before it records the environment and run details.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "cli-cold": "cli_cold",
    "float-lane": "float_lane",
    "dio-search": "dio_search",
    "exact-calculus": "exact_calculus",
}
DEFAULT_SEED = 0
MIN_JOBS = 100  # so that at least ten samples lie beyond job_p90_ms
SETUP_PROBES = 5
HARD_STOP_S = 120.0  # a run never starts a round after this, whatever --seconds says

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("job_cpu_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYERS = ("cli", "scalars", "exact", "diophantine", "fourier", "leafwise", "toral", "skewflow", "liealg")
CLI_GROUPS = ("dio", "fn", "fol", "toral", "flow", "skew", "lie")
COUNTED = (
    "scalars.circle_distance.calls",
    "scalars.to_float.calls",
    "exact.mul.calls",
    "exact.inverse.calls",
    "exact.phase_zero.calls",
)
COMPUTED = (
    "fourier.mul.mode_pairs",
    "skewflow.rk4_steps",
    "diophantine.k_searched",
    "leafwise.modes_divided",
    "liealg.ce_entries",
)
PER_LAYER = tuple(
    [(f"{layer}.{m}", u) for layer in LAYERS
     for m, u in (("calls", "count"), ("self_ms", "ms"), ("self_share", "ratio"), ("raised", "count"))]
    + [("cli.interp_ms", "ms"), ("cli.import_ms", "ms")]
    + [(f"cli.{g}.p50_ms", "ms") for g in CLI_GROUPS]
    + [("fourier.mul121.p50_ms", "ms"), ("fourier.mul441.p50_ms", "ms"), ("fourier.eval441.us_per_point", "us")]
    + [("skewflow.section32.p50_ms", "ms"), ("skewflow.section64.p50_ms", "ms")]
    + [("diophantine.us_per_k", "us")]
    + [(name, "count") for name in COUNTED + COMPUTED]
    + [("trace.overhead_ratio", "ratio")]
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# host speed calibration
#
# Each CPU of the host switches between a fast and a slow state (about 1.7x
# apart) every few seconds, as other tenants come and go, and leafcoh's CPU
# time moves with it, so raw times of one run say as much about the host as
# about leafcoh.  The run is pinned to one CPU (pin_to_one_cpu).  A fixed pure-Python
# loop (integer and dict bytecode plus Fraction arithmetic, like leafcoh's
# exact lanes) is timed between jobs; the end-to-end time metrics are
# reported at the loop's reference speed, raw * reference / calibration.
# leafcoh code never runs inside the loop, so a change to leafcoh cannot
# move it.  Raw values are printed on the info line.

CAL_EVERY_S = 0.25  # recalibrate after this much job time


def _calibration_loop():
    s, d = 0, {}
    for i in range(6000):
        s += i * i % 7
        d[i & 255] = s
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    return s, x


def _memory_walk(table):
    i = s = 0
    for _ in range(20000):
        i = table[i]
        s += i
    return s


class Calibration:
    """Times the calibration loop; ``factor`` turns a loop time into a speed factor.

    In-process jobs are bytecode-bound and track the plain loop.  A cold CLI
    child spends its time loading modules, which tracks memory latency, so
    for cli-cold the loop adds a dependent walk through a shuffled 300k-entry
    table.  The reference times are the loops' fast-state times on a 2-vCPU
    Xeon container.
    """

    def __init__(self, cold: bool):
        self.table = None
        self.reference = 5.0e-3
        if cold:
            perm = list(range(300_000))
            random.Random(0).shuffle(perm)
            self.table = [0] * len(perm)
            for a, b in zip(perm, perm[1:] + perm[:1]):
                self.table[a] = b
            self.reference = 12.0e-3

    def measure(self) -> float:
        t0 = time.perf_counter()
        _calibration_loop()
        _calibration_loop()
        if self.table is not None:
            _memory_walk(self.table)
        return time.perf_counter() - t0

    def factor(self, before: float, after: float) -> float:
        return 2 * self.reference / (before + after)


# ----------------------------------------------------------------------
# set-up


def load_workload(name, runner):
    """Import the workload; return its round builder (rng, tiny) -> [Job]."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module(f"workloads.{WORKLOADS[name]}")
    if name == "cli-cold":
        return mod, functools.partial(mod.build_round, runner=runner)
    import leafcoh

    if not Path(leafcoh.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"leafcoh imported from {leafcoh.__file__}, not from {SRC}")
    return mod, mod.build_round


def round_rng(seed, r):
    return random.Random(f"{seed}:{r}")


def prepare(name, seed, tiny, runner):
    """Imports, first-round inputs and warm-up: everything before the first timed job."""
    mod, build = load_workload(name, runner)
    first = build(round_rng(seed, 0), tiny)
    if name == "cli-cold":
        mod.warm_up(runner)
    else:
        for job in build(random.Random(f"warm-up:{seed}"), True):
            job.check(job.call())
    return build, first


def measure_setup(name, seed, tiny, cal):
    """Median wall time from a fresh interpreter to ready-to-time, over several probes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    if tiny:
        cmd.append("--tiny")
    times, scaled = [], []
    for _ in range(1 if tiny else SETUP_PROBES):
        before = cal.measure()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(elapsed)
        scaled.append(elapsed * cal.factor(before, cal.measure()))
    return statistics.median(scaled), times


# ----------------------------------------------------------------------
# timed rounds


class Record:
    __slots__ = ("round", "kind", "wall", "cpu", "speed", "ok", "out", "counts", "units", "error")

    def __init__(self, rnd, kind, wall, cpu, units):
        self.round, self.kind, self.wall, self.cpu, self.units = rnd, kind, wall, cpu, units
        self.ok, self.out, self.counts, self.error = False, None, {}, None
        self.speed = 1.0  # Calibration.factor around the job


def run_job(job, rnd, job_id, cpu_clock, tracer=None):
    from common import Wrong, json_roundtrip

    span = tracer.open(f"job:{job.kind}", None, job_id) if tracer else None
    c0, t0 = cpu_clock(), time.perf_counter()
    try:
        out, raised = job.call(), None
    except Exception as e:  # a job that raises is a failed job, not a crashed benchmark
        out, raised = None, e
    t1, c1 = time.perf_counter(), cpu_clock()
    if tracer:
        tracer.close(span, raised=raised is not None)
    rec = Record(rnd, job.kind, t1 - t0, c1 - c0, job.units)
    if raised is not None:
        rec.error = f"raised {type(raised).__name__}: {raised}"
        return rec
    try:
        rec.out = json_roundtrip(job.check(out))
        rec.counts = job.counts(out)
        rec.ok = True
    except Wrong as e:
        rec.error = f"wrong answer: {e}"
    except Exception as e:  # an oracle that cannot digest the output also fails the job
        rec.error = f"unreadable output: {type(e).__name__}: {e}"
    return rec


def run_pass(jobs, rnd, first_id, cpu_clock, cal, tracer=None):
    """Run the jobs of one round once.

    The calibration loop runs before the first job and again whenever
    CAL_EVERY_S of job time has passed; each job's speed factor comes from
    the two calibrations around it.
    """
    records, segment, since = [], [], 0.0
    before = cal.measure()
    for i, job in enumerate(jobs):
        rec = run_job(job, rnd, first_id + i, cpu_clock, tracer)
        records.append(rec)
        segment.append(rec)
        since += rec.wall
        if since >= CAL_EVERY_S or i == len(jobs) - 1:
            after = cal.measure()
            for r in segment:
                r.speed = cal.factor(before, after)
            segment, before, since = [], after, 0.0
    return records


def run_rounds(build, first, seed, seconds, tiny, cpu_clock, cal, tracer=None):
    """Whole rounds until the time is up and MIN_JOBS have run.

    Untraced: returns the records.  Traced: each round runs untraced and
    then traced on the same jobs; returns both record lists.
    """
    plain, traced = [], []
    start = time.perf_counter()
    jobs, rnd = first, 0
    while True:
        r0 = time.perf_counter()
        plain += run_pass(jobs, rnd, len(plain) + len(traced), cpu_clock, cal)
        if tracer is not None:
            tracer.install()
            try:
                traced += run_pass(jobs, rnd, len(plain) + len(traced), cpu_clock, cal, tracer)
            finally:
                tracer.uninstall()
        rnd += 1
        now = time.perf_counter()
        enough = tracer is not None or len(plain) >= MIN_JOBS
        if tiny or now - start > HARD_STOP_S or (enough and now - start + (now - r0) > seconds):
            break
        jobs = build(round_rng(seed, rnd), tiny)
    return plain, traced


# ----------------------------------------------------------------------
# reference outputs


def reference_path(name):
    return HERE / "reference" / f"{WORKLOADS[name]}.json"


def compare_reference(name, tiny, records):
    """At the default seed, compare the first round field by field with the reference."""
    from common import matches

    size = "tiny" if tiny else "full"
    try:
        ref = json.loads(reference_path(name).read_text())[size]
    except (OSError, KeyError, ValueError) as e:
        for rec in records:
            rec.ok, rec.error = False, f"no reference: {e}"
        return
    first = [rec for rec in records if rec.round == 0]
    if [r["kind"] for r in ref] != [rec.kind for rec in first]:
        for rec in first:
            rec.ok, rec.error = False, "first round differs from the reference job list"
        return
    for want, rec in zip(ref, first):
        if rec.ok and not matches(want["out"], rec.out):
            rec.ok, rec.error = False, "output differs from the reference"


# ----------------------------------------------------------------------
# metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setup_s, peak_rss_mb, normalized=True):
    """The end-to-end metrics; times at the calibration loop's reference speed
    unless ``normalized`` is false."""
    speed = (lambda r: r.speed) if normalized else (lambda r: 1.0)
    by_round = defaultdict(list)
    for rec in records:
        by_round[rec.round].append(rec)
    walls = [rec.wall * speed(rec) for rec in records]
    failed = sum(not rec.ok for rec in records)
    values = {
        "jobs_per_s": statistics.median(len(rs) / sum(r.wall * speed(r) for r in rs) for rs in by_round.values()),
        "job_p50_ms": statistics.median(walls) * 1e3,
        "job_p90_ms": (statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else walls[0]) * 1e3,
        "job_cpu_ms": statistics.median(sum(r.cpu * speed(r) for r in rs) / len(rs) for rs in by_round.values())
        * 1e3,
        "pass_ratio": (len(records) - failed) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def p50_ms(records, match):
    walls = [r.wall for r in records if match(r.kind)]
    return statistics.median(walls) * 1e3 if walls else 0.0


def per_layer(name, plain, traced, tracer, probes):
    stats = tracer.layer_stats()
    job_time = sum(r.wall for r in traced)
    computed = Counter()
    for rec in traced:
        computed.update(rec.counts)
    values = {}
    for layer in LAYERS:
        st = stats[layer]
        values[f"{layer}.calls"] = st["calls"]
        values[f"{layer}.self_ms"] = st["self_s"] * 1e3
        values[f"{layer}.self_share"] = st["self_s"] / job_time if job_time else 0.0
        values[f"{layer}.raised"] = st["raised"]
    values["cli.interp_ms"], values["cli.import_ms"] = probes
    for g in CLI_GROUPS:
        values[f"cli.{g}.p50_ms"] = p50_ms(plain, lambda k, g=g: name == "cli-cold" and k.split(".")[0] == g)
    for kind in ("mul121", "mul441"):
        values[f"fourier.{kind}.p50_ms"] = p50_ms(plain, lambda k, kind=kind: k == kind)
    per_point = [r.wall / r.units * 1e6 for r in plain if r.kind == "eval441"]
    values["fourier.eval441.us_per_point"] = statistics.median(per_point) if per_point else 0.0
    for n in (32, 64):
        values[f"skewflow.section{n}.p50_ms"] = p50_ms(plain, lambda k, n=n: k == f"section{n}")
    k_searched = computed["diophantine.k_searched"]
    values["diophantine.us_per_k"] = stats["diophantine"]["self_s"] * 1e6 / k_searched if k_searched else 0.0
    for key in COUNTED:
        values[key] = tracer.counts[key]
    for key in COMPUTED:
        values[key] = computed[key]
    # speed-normalized, so that a host slowdown between the passes does not show
    untraced = sum(r.wall * r.speed for r in plain)
    values["trace.overhead_ratio"] = sum(r.wall * r.speed for r in traced) / untraced if untraced else 0.0
    return {key: metric(values[key], unit) for key, unit in PER_LAYER}


def cli_probes():
    """Median bare interpreter start and cold ``import leafcoh.cli``, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp, imports = [], []
    code = "import time; t = time.perf_counter(); import leafcoh.cli; print(time.perf_counter() - t)"
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        interp.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return statistics.median(interp) * 1e3, statistics.median(imports) * 1e3


# ----------------------------------------------------------------------
# environment


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment(seed):
    from importlib import metadata

    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "leafcoh").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_before": os.getloadavg(),
    }


# ----------------------------------------------------------------------
# entry point


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one round at tiny sizes (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="write reference/<workload>.json from the default seed's first round")
    return ap.parse_args(argv)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    Each CPU of the host switches between a fast and a slow state on its
    own, so a calibration taken on one CPU says nothing about a job that ran
    on the other one.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "leafcoh" / "__init__.py").is_file():
        log(f"no leafcoh sources under {SRC}; run from a leafcoh checkout")
        return 2
    cpu = pin_to_one_cpu()
    from workloads.cli_cold import CliRunner
    from tracer import Tracer

    if args.setup_probe:
        runner = CliRunner(ROOT)
        try:
            prepare(args.workload, args.seed, args.tiny, runner)
        finally:
            runner.close()
        print("ready", flush=True)
        return 0
    if args.record_reference:
        return record_reference(args.workload)

    env = environment(args.seed)
    env["pinned_cpu"] = cpu
    is_cli = args.workload == "cli-cold"
    tracer = Tracer() if args.trace else None
    cal = Calibration(cold=is_cli)
    setup_s, setup_runs = (None, []) if args.trace else measure_setup(args.workload, args.seed, args.tiny, cal)
    runner = CliRunner(ROOT, tracer)
    # cli-cold counts the CPU of the children, in-process workloads their own
    cpu_clock = (lambda: runner.cpu_s) if is_cli else time.process_time
    try:
        build, first = prepare(args.workload, args.seed, args.tiny, runner)
        plain, traced = run_rounds(build, first, args.seed, args.seconds, args.tiny, cpu_clock, cal, tracer)
    finally:
        runner.close()

    if args.seed == DEFAULT_SEED:
        compare_reference(args.workload, args.tiny, plain)
    for p, t in zip(plain, traced):
        if p.ok and t.ok and p.out != t.out:
            t.ok, t.error = False, "traced output differs from the untraced output"
    records = plain + traced
    failed = [r for r in records if not r.ok]
    for rec in failed[:10]:
        log(f"FAILED {rec.kind} (round {rec.round}): {rec.error}")

    from common import digest

    raw = None
    if args.trace:
        probes = cli_probes() if is_cli else (0.0, 0.0)
        metrics = per_layer(args.workload, plain, traced, tracer, probes)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file)
    else:
        peak_rss_kb = runner.peak_rss_kb if is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_rss_mb = peak_rss_kb / 1024.0
        metrics = end_to_end(plain, setup_s, peak_rss_mb)
        raw = end_to_end(plain, statistics.median(setup_runs), peak_rss_mb, normalized=False)
        trace_file = None

    env["loadavg_after"] = os.getloadavg()
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "rounds": 1 + max(r.round for r in plain),
        "jobs": len(plain),
        "setup_runs_s": setup_runs,
        "speed": statistics.median(r.speed for r in plain),
        "raw_metrics": {k: v["value"] for k, v in raw.items()} if raw else None,
        "outputs_sha256": digest(r.out for r in (traced or plain)),
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "failures": [f"{r.kind}: {r.error}" for r in failed[:10]],
    }
    print(json.dumps({"env": env, "run": info}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def record_reference(name):
    from workloads.cli_cold import CliRunner

    out = {}
    for tiny in (False, True):
        runner = CliRunner(ROOT)
        try:
            build, first = prepare(name, DEFAULT_SEED, tiny, runner)
            recs = [run_job(job, 0, i, time.process_time) for i, job in enumerate(first)]
        finally:
            runner.close()
        bad = [f"{r.kind}: {r.error}" for r in recs if not r.ok]
        if bad:
            log("not recording a reference with failing jobs: " + "; ".join(bad))
            return 1
        strip = lambda o: {k: v for k, v in o.items() if not k.startswith("#")}  # noqa: E731
        out["tiny" if tiny else "full"] = [{"kind": r.kind, "out": strip(r.out)} for r in recs]
    path = reference_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    log(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
