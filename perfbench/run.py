"""Seeded benchmark for fcaregistry: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Inputs are generated from ``--seed`` into a scratch directory under
``perfbench/.work`` that is removed at the end.  A single closed-loop client
runs whole passes of the workload's fixed operation stream for about
``--seconds``, checking every output after its clock stops.

Every operation and set-up is timed between two runs of a fixed reference
kernel (see ``hostspeed``).  The gated end-to-end times are scaled by the
kernel's time around each operation, so that the host's spells of slowness
cancel; the report also gives every time as measured on the wall clock.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, in this process (the CLI included), and prints
the per-layer metrics with the tracing overhead between the two.
The line before the result holds the full report: every end-to-end metric
under its workload's own name with unit and sample count, run metadata,
per-layer self-time breakdowns and output digests.  The report and the
spans of a traced run are also written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

GOLDEN_SEED = 1
# Set-up runs at least this many times, and again until it has taken this
# many seconds (at most SETUP_MAX_REPS times); setup_s is the median.
SETUP_REPS = {"full": (7, 2.0), "smoke": (2, 0.05)}
SETUP_MAX_REPS = 50
MIN_TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MAX_PROBLEMS = 20


@dataclass
class Env:
    workload: str
    seed: int
    dir: Path
    manifest: dict
    golden: object
    child_env: dict
    in_process: bool = False


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    ms: dict[str, list[float]] = field(default_factory=dict)
    # the same at the reference host speed (see hostspeed)
    setup_norm_s: list[float] = field(default_factory=list)
    norm_ms: dict[str, list[float]] = field(default_factory=dict)
    ref_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    passes: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= MIN_TAIL_BEYOND:
            return p
    return 50


def nearest_rank(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def untraced(kind: str):
    return nullcontext()


def timed(call, s: Samples, op):
    """Run ``call`` between two reference-kernel runs.

    Returns its output, its wall time and that time scaled to the reference
    host speed, all in seconds.
    """
    before = hostspeed.sample_ms()
    t0 = time.perf_counter()
    with op:
        out = call()
    took = time.perf_counter() - t0
    after = hostspeed.sample_ms()
    s.ref_ms += [before, after]
    return out, took, took * hostspeed.NOMINAL_MS * 2 / (before + after)


def problems_of(check, out) -> list[str]:
    try:
        return check(out)
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3)]


def set_up(wl, s: Samples, reps: tuple[int, float], op=untraced):
    """Set up repeatedly (see SETUP_REPS); return the last state."""
    state = None
    min_reps, budget_s = reps
    for i in range(SETUP_MAX_REPS):
        if i >= min_reps and sum(s.setup_s) >= budget_s:
            break
        s.attempted += 1
        try:
            state, took, norm = timed(wl.setup, s, op("setup"))
        except Exception:
            s.fail("setup raised: " + traceback.format_exc(limit=3))
            continue
        s.setup_s.append(took)
        s.setup_norm_s.append(norm)
        problems = problems_of(wl.check_setup, state)
        if problems:
            s.fail("setup: " + "; ".join(problems))
    return state


def run_step(step, s: Samples, op=untraced) -> None:
    """Time one operation, then check its output."""
    kind, call, check = step
    s.attempted += 1
    try:
        out, took, norm = timed(call, s, op(kind))
    except Exception:
        s.fail(f"{kind} raised: " + traceback.format_exc(limit=3))
        return
    s.ms.setdefault(kind, []).append(took * 1e3)
    s.norm_ms.setdefault(kind, []).append(norm * 1e3)
    problems = problems_of(check, out)
    if problems:
        s.fail(f"{kind}: " + "; ".join(problems))


def run_pass(wl, state, s: Samples) -> None:
    for step in wl.steps(state):
        run_step(step, s)
    s.passes += 1


def another_pass(start: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean one so far, would end less
    than half a pass past ``seconds``: the runs then last ``seconds`` give or
    take half a pass, whatever the length of a pass."""
    now = time.perf_counter()
    return now + (now - start) / passes / 2 < start + seconds


def measure(wl, seconds: float, reps: tuple[int, float]) -> Samples:
    """Set up, then run whole passes for about ``seconds``."""
    s = Samples()
    state = set_up(wl, s, reps)
    if s.setup_s:
        gc.collect()
        start = time.perf_counter()
        run_pass(wl, state, s)
        while another_pass(start, s.passes, seconds):
            run_pass(wl, state, s)
    return s


def timings(workload: str, setup_s: list[float], ms: dict[str, list[float]], primary: str) -> dict:
    """Every timing of a run under the workload's own names, from one clock."""
    first = ms[primary]
    ops = sum(map(len, ms.values()))
    p = tail_percentile(len(first))

    def med(kind, unit, scale=1.0):
        return {"value": statistics.median(ms[kind]) * scale, "unit": unit, "samples": len(ms[kind])}

    p50 = med(primary, "ms")
    named = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s", "samples": len(setup_s)},
        "op_p50_ms": p50,
        "op_mean_ms": {"value": statistics.mean(first), "unit": "ms", "samples": len(first)},
        # Whole passes keep the mix fixed.  Each operation counts at its kind's
        # median time: the busy time itself follows the few slowest
        # operations of a run, which a seed or a slow spell can move.
        "ops_per_s": {
            "value": ops / (sum(len(v) * statistics.median(v) for v in ms.values()) / 1e3),
            "unit": "1/s",
            "samples": ops,
        },
    }
    tail = {"value": nearest_rank(first, p), "unit": "ms", "samples": len(first), "percentile": p}
    if workload in ("search", "refine"):
        named |= {"query_p50_ms": p50, "query_tail_ms": tail, "queries_per_s": named["ops_per_s"]}
    elif workload == "ingest":
        named |= {"build_s": med("build", "s", 1e-3), "insert_p50_ms": p50, "insert_tail_ms": tail}
    else:
        named |= {
            "cli_build_s": med("cli.build", "s", 1e-3),
            "cli_stats_ms": med("cli.stats", "ms"),
            "cli_query_p50_ms": p50,
            "cli_query_tail_ms": tail,
            "cli_refine_p50_ms": med("cli.refine", "ms"),
        }
    return named


def end_to_end(workload: str, s: Samples, primary: str, rss_mib: float) -> tuple[dict, dict]:
    """The gated metrics, and the full report of end-to-end metrics.

    The gate takes its times at the reference host speed; the report gives
    every timing at that speed and on the wall clock.
    """
    at_ref = timings(workload, s.setup_norm_s, s.norm_ms, primary)
    rss = {"value": rss_mib, "unit": "MiB", "samples": 1}
    gated = {k: at_ref[k] for k in ("setup_s", "op_p50_ms", "ops_per_s")} | {"peak_rss_mib": rss}
    quartiles = statistics.quantiles(s.ref_ms, n=4)
    report = {
        "reference_speed": at_ref,
        "wall_clock": timings(workload, s.setup_s, s.ms, primary),
        "peak_rss_mib": rss,
        "error_rate": {"value": s.failed / s.attempted, "unit": "ratio", "samples": s.attempted},
        "reference_kernel_ms": {
            "nominal": hostspeed.NOMINAL_MS, "quartiles": quartiles, "samples": len(s.ref_ms)
        },
    }
    return gated, report


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def prepare(workload: str, seed: int, size: str, work: Path, child_env: dict) -> dict:
    """Generate the inputs in a child; for search and refine, save their lattice with the CLI."""
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--size", size, "--out", str(work)],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    if workload in ("search", "refine"):
        subprocess.run(
            [sys.executable, "-m", "fcaregistry.cli", "build", "--records", str(work / "corpus.json"),
             "--out", str(work / "corpus.lat")],
            check=True, stdout=subprocess.DEVNULL, env=child_env, timeout=300,
        )
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))


def import_library() -> None:
    """Import fcaregistry from this checkout's src, never from anywhere else."""
    if not (SRC / "fcaregistry" / "__init__.py").is_file():
        raise SystemExit(f"error: no fcaregistry sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fcaregistry

    if Path(fcaregistry.__file__).resolve().parent != (SRC / "fcaregistry").resolve():
        raise SystemExit(f"error: imported fcaregistry from {fcaregistry.__file__}, not {SRC}")


def run_untraced(cls, env: Env, seconds: float, reps: tuple[int, float]) -> tuple[list[Samples], dict, dict]:
    wl = cls(env)
    s = measure(wl, seconds, reps)
    if not (s.setup_s and wl.primary in s.ms):
        return [s], {}, {}
    metrics, report = end_to_end(env.workload, s, wl.primary, wl.peak_rss_kib() / 1024)
    return [s], metrics, {"end_to_end": report}


def run_traced(cls, env: Env, seconds: float, reps: tuple[int, float]) -> tuple[list[Samples], dict, dict]:
    """Untraced and traced operations in turn, in this process, so drift hits both alike."""
    import layers
    from tracer import Tracer
    from workloads import probe_cli_start

    env.in_process = True
    wl, traced_wl = cls(env), cls(env)
    plain, traced = Samples(), Samples()
    tracer = Tracer()
    sites = layers.sites()
    state = set_up(wl, plain, reps)
    with tracer.installed(sites):
        traced_state = set_up(traced_wl, traced, reps, tracer.op)
    if plain.setup_s and traced.setup_s:
        gc.collect()
        start = time.perf_counter()
        while True:
            for step, traced_step in zip(wl.steps(state), traced_wl.steps(traced_state)):
                run_step(step, plain)
                with tracer.installed(sites):
                    run_step(traced_step, traced, tracer.op)
            plain.passes += 1
            traced.passes += 1
            if not another_pass(start, plain.passes, seconds):
                break
    tracer.write(OUT / f"{env.workload}-seed{env.seed}-spans.jsonl")
    primary = wl.primary
    if primary not in plain.ms or primary not in traced.ms:
        return [plain, traced], {}, {}
    probe = probe_cli_start(env.child_env, reps[0]) if env.workload == "cli" else None
    overhead = (statistics.median(traced.norm_ms[primary]) / statistics.median(plain.norm_ms[primary]) - 1) * 100
    per_layer = layers.per_layer(tracer, probe, overhead)
    report = {
        "per_layer": per_layer,
        "accounting": {
            kind: {
                "untraced_mean_ms": statistics.mean(plain.ms[kind]),
                "untraced_p50_ms": statistics.median(plain.ms[kind]),
                "traced": tracer.breakdown(kind),
            }
            for kind in sorted(traced.ms)
            if kind in plain.ms
        },
    }
    if probe:
        report["cli_start_ms"] = probe
    metrics = {k: {"value": v, "unit": layers.PER_LAYER[k][0]} for k, v in per_layer.items()}
    return [plain, traced], metrics, report


def pin_to_one_cpu() -> tuple[int, int]:
    """Keep this process and every child it starts on one CPU.

    The reference kernel then runs on the CPU that ran the operation it
    scales, CLI children included; the CPUs of a shared host are not equally
    fast at the same moment.  Returns the CPU count and the CPU chosen.
    """
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def run(args) -> dict:
    nproc, cpu = pin_to_one_cpu()
    import_library()
    import checks
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=BENCH / ".work"))
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    golden_path = BENCH / "golden.json"
    golden_all = json.loads(golden_path.read_text(encoding="utf-8"))
    key = f"{args.size}/{args.workload}"
    check_golden = args.seed == GOLDEN_SEED and not args.update_golden
    golden = checks.Golden(golden_all.get(key, {}) if check_golden else None)
    try:
        manifest = prepare(args.workload, args.seed, args.size, work, child_env)
        env = Env(args.workload, args.seed, work, manifest, golden, child_env)
        how = run_traced if args.trace else run_untraced
        runs, metrics, measured = how(WORKLOADS[args.workload], env, args.seconds, SETUP_REPS[args.size])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.update_golden:
        golden_all[key] = golden.seen
        golden_path.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": sum(r.attempted for r in runs),
        "failed": failed if metrics else max(failed, 1),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "meta": {
            "git_sha": git_sha(),
            "python": sys.version.split()[0],
            "nproc": nproc,
            "pinned_to_cpu": cpu,
            "client": "one closed-loop client in one process",
        },
        "inputs": {k: v for k, v in manifest.items() if not isinstance(v, list)},
        **measured,
        "passes": [r.passes for r in runs],
        "problems": [p for r in runs for p in r.problems],
        "golden": {"compared": golden.compared, "digests": golden.seen},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"report": report}))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fcaregistry benchmark")
    parser.add_argument("--workload", required=True, choices=["search", "refine", "ingest", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SETUP_REPS), default="full",
                        help="input size; smoke runs every workload in seconds")
    parser.add_argument("--update-golden", action="store_true",
                        help=f"record this run's output digests as the golden ones (seed {GOLDEN_SEED})")
    args = parser.parse_args(argv)
    if args.update_golden and args.seed != GOLDEN_SEED:
        parser.error(f"golden digests are recorded for seed {GOLDEN_SEED} only")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
