"""sempower benchmark: one command, two workloads, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fading_blocks --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``fading_blocks``
(one bisection solve per Rayleigh coherence block) and ``cli_readme``
(one pass of the four README commands, each a fresh process). Each is a
closed loop with one client; inputs come from ``--seed``. In-process
query times are reported at reference speed (see ``reference.py``): the
host's speed swings by up to 2x, and a fixed kernel timed before each
query cancels it.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from a traced run
(see ``tracing.py``) made twice, in two fresh processes, on the same
fixed query set, and fails unless the counts of both agree exactly.
Human-readable lines come first; the last line of standard output is
the JSON result. The exit code is 1 when a correctness check failed and
2 when the repository is not there to measure. Run records (result,
failures with their inputs, provenance, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS thread pools are capped before numpy loads; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer
from workloads import PARAMS, WORKLOADS, make_workload, oracle_gap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# Fixed traced query sets, so counts repeat exactly: 40 blocks; one CLI pass.
TRACE_QUERIES = {"fading_blocks": 40, "cli_readme": 1}
EXACT_COUNTS = ("solvers.bisection.iterations", "solvers.equal_snr.evals",
                "simulator.bits", "simulator.ci_violations", "trace.queries")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def provenance() -> dict:
    """What this run ran on, including what the benchmark cannot control."""
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    files = sorted((SRC / "sempower").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    import numpy
    import scipy

    governor = read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_sempower_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": model.group(1).strip() if model else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "uncontrolled": {
            "cpu_governor": governor.strip() if governor else "not exposed",
            "load_average_at_start": os.getloadavg(),
            "bytecode_cache_written": not sys.dont_write_bytecode,
            "machine": "possibly shared with other tenants; no pinning, no frequency control",
        },
    }


def setup_probe_seconds(name: str, seed: int, scratch: Path) -> float:
    """One set-up, timed from spawn to exit of a fresh process.

    In-process workloads: import sempower, make the first query and run
    it once. ``cli_readme``: make the pass's argv and start the CLI once
    (``--version``), which imports the whole package.
    """
    t0 = time.perf_counter()
    if name == "cli_readme":
        make_workload(name, seed, ROOT, scratch, child_env()).make(0)
        cmd = [sys.executable, "-m", "sempower.cli", "--version"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
               "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, scratch: Path) -> dict:
    """Untraced closed loop for ``seconds``; the end-to-end metrics.

    In-process queries are timed at reference speed: the reference kernel
    (``reference.py``) runs just before each query and the query's wall
    time is scaled by ``NOMINAL_MS`` over the kernel's time, which cancels
    the host's swings in speed. CLI passes and set-up probes are fresh
    processes, whose time that kernel does not track; they stay raw wall
    time. Raw query times and kernel times go into the run record.
    """
    # Imported here, not at the top: the kernel loads numpy and
    # scipy.special, which the set-up probes must import no earlier
    # than sempower itself does.
    from reference import NOMINAL_MS, kernel_ms

    wl = make_workload(name, seed, ROOT, scratch, child_env())
    in_process = name != "cli_readme"
    setup: list[float] = []
    attempted, failures, first = 0, [], 0
    if in_process:  # warm-up query, as in the probes
        q = wl.make(0)
        n, f, _ = wl.check(q, wl.run(q))
        attempted, failures, first = n, f, 1
    lat: list[float] = []  # raw wall seconds per query
    ref: list[float] = []  # kernel ms just before each in-process query
    per_command: dict[str, list[float]] = {}
    t_start = time.perf_counter()
    i = first
    while True:
        # Set-up probes are spread over the run, between queries: the
        # host's speed changes over seconds, and a median over the whole
        # run moves less with it than one over the first few seconds.
        # The workload above already imported sempower, so where Python
        # keeps a bytecode cache every probe finds it written.
        if time.perf_counter() - t_start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_probe_seconds(name, seed, scratch))
        q = wl.make(i)
        if in_process:
            ref.append(kernel_ms())
        t0 = time.perf_counter()
        result = wl.run(q)
        lat.append(time.perf_counter() - t0)
        n, f, _ = wl.check(q, result)
        attempted += n
        failures += f
        if not in_process:
            for cmd, (_rc, secs, _err) in result.items():
                per_command.setdefault(cmd, []).append(secs)
            shutil.rmtree(q.payload, ignore_errors=True)
        i += 1
        # Stop where one more query would end further past the deadline
        # than stopping now, so a steady machine runs the same number of
        # queries every time.
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / len(lat) >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:  # a run too short to spread them
        setup.append(setup_probe_seconds(name, seed, scratch))
    timed = [v * NOMINAL_MS / k for v, k in zip(lat, ref)] if in_process else lat
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setup),
        "query_p50_ms": statistics.median(timed) * 1e3,
        "queries_per_s": len(timed) / sum(timed),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    report = {
        "queries": len(lat),
        "timing": "reference speed" if in_process else "wall time",
        "setup_samples_s": setup,
        "latency_ms": [v * 1e3 for v in lat],
    }
    if in_process:
        report["kernel_ms"] = ref
        report["kernel_median_ms"] = statistics.median(ref)
        report["wall_query_p50_ms"] = statistics.median(lat) * 1e3
    if len(lat) >= 100:
        report["query_p90_ms"] = statistics.quantiles(timed, n=10)[-1] * 1e3
    if per_command:
        report["cli_command_median_s"] = {c: statistics.median(v) for c, v in per_command.items()}
    return {"metrics": metrics, "report": report,
            "attempted": attempted, "failures": failures}


def trace_child(name: str, seed: int, spans_path: str | None) -> dict:
    """One traced run: untraced then traced pass over the fixed query set."""
    scratch = Path(tempfile.mkdtemp(prefix=f"trace-{name}-", dir=OUT))
    try:
        wl = make_workload(name, seed, ROOT, scratch, child_env())
        if name == "cli_readme":
            wl.in_process = True
        queries = [wl.make(i) for i in range(TRACE_QUERIES[name])]
        wl.run(queries[0])  # warm-up
        untraced = 0.0
        for q in queries:
            t0 = time.perf_counter()
            wl.run(q)
            untraced += time.perf_counter() - t0
        tracer = Tracer()
        attempted, failures, stats = 0, [], {"ci_violations": 0}
        traced = 0.0
        with tracer:
            for q in queries:
                tracer.query = q.index
                t0 = time.perf_counter()
                with tracer.span("query"):
                    result = wl.run(q, tracer)
                traced += time.perf_counter() - t0
                n, f, st = wl.check(q, result)
                attempted += n
                failures += f
                stats["ci_violations"] += st.get("ci_violations", 0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if spans_path:
        tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer, len(queries), stats)
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "spans": len(tracer.spans)}


def layer_metrics(tracer, n_queries: int, stats: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``*.calls`` and the other counts are totals over the traced set;
    ``*.self_ms`` is self time per query; ``<solver>.ms`` and the other
    plain ``.ms`` figures are inclusive time per call (0 when the layer
    was never called).
    """
    agg = tracer.aggregate()

    def get(span: str, key: str) -> float:
        return agg.get(span, {}).get(key, 0)

    def per_call_ms(span: str) -> float:
        calls = get(span, "calls")
        return get(span, "ns") / 1e6 / calls if calls else 0.0

    m: dict[str, float] = {}
    for span in ("perception.eval_surface", "perception.solve_psi2_on_constraint",
                 "numerics.bisect_root", "numerics.q_inverse", "modulation.power_from_ber"):
        m[f"{span}.calls"] = get(span, "calls")
    for span in ("perception.eval_surface", "perception.solve_psi2_on_constraint",
                 "perception.constraint_line_endpoints", "numerics.bisect_root",
                 "numerics.q_inverse", "perception.solve_psi2_many", "numerics.bisect_root_many",
                 "modulation.power_from_ber", "solvers.sweep_targets",
                 "numerics.nelder_mead_minimize"):
        m[f"{span}.self_ms"] = get(span, "self_ns") / 1e6 / n_queries
    for span in ("solvers.equal_snr", "solvers.proportional", "solvers.bisection",
                 "solvers.grid_oracle", "perception.fit_surface", "config.load_config",
                 "config.write_manifest", "svgchart.line_chart", "cli.solve", "cli.sweep",
                 "cli.simulate", "cli.fit"):
        m[f"{span}.ms"] = per_call_ms(span)

    results = tracer.solver_results
    m["solvers.bisection.iterations"] = sum(a.iterations for _q, s, _t, a in results
                                            if s == "solvers.bisection")
    m["solvers.equal_snr.evals"] = sum(a.iterations for _q, s, _t, a in results
                                       if s == "solvers.equal_snr")
    m["solvers.residual_max"] = max((abs(a.achieved_p - t) for _q, _s, t, a in results
                                     if a.total_cost > 0.0), default=0.0)
    # A query can solve one target more than once (the CLI sweep repeats
    # its targets per modulation), so each bisection pairs with the next
    # oracle run on the same target.
    gaps, pending = [0.0], {}
    for q, s, t, a in results:
        if s in ("solvers.bisection", "solvers.grid_oracle"):
            costs = pending.setdefault((q, t), {})
            costs[s] = a.total_cost
            if len(costs) == 2:
                gaps.append(oracle_gap(costs["solvers.bisection"], costs["solvers.grid_oracle"]))
                del pending[(q, t)]
    m["solvers.oracle_gap_max_rel"] = max(gaps)
    m["solvers.converged_share"] = (sum(a.converged for *_x, a in results) / len(results)
                                    if results else 0.0)
    bits = tracer.sim_bits
    m["simulator.simulate_ber.ms_per_mbit"] = (get("simulator.simulate_ber", "ns") / 1e6
                                               / (bits / 1e6) if bits else 0.0)
    m["simulator.bits"] = bits
    m["simulator.ci_violations"] = stats["ci_violations"]
    m["trace.queries"] = n_queries
    return m


def import_times_ms() -> dict:
    """Median ``-X importtime`` cost of ``import sempower`` and of the
    ``scipy.optimize`` modules it pulls in.

    scipy loads ``scipy.optimize`` through a lazy ``__getattr__``, which
    logs no line for the package itself, so its cost is the summed
    cumulative time of the outermost ``scipy.optimize.*`` entries.
    """
    samples: dict[str, list[float]] = {"sempower": [], "scipy.optimize": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sempower"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e3))
        found = {"sempower": 0.0, "scipy.optimize": 0.0}
        ancestors: list[tuple[int, str]] = []
        for depth, name, cumulative_ms in reversed(entries):  # parents precede children here
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            parent = ancestors[-1][1] if ancestors else ""
            if name == "sempower":
                found[name] = cumulative_ms
            elif name.startswith("scipy.optimize") and not parent.startswith("scipy.optimize"):
                found["scipy.optimize"] += cumulative_ms
            ancestors.append((depth, name))
        for mod, value in found.items():
            samples[mod].append(value)
    return {"import.sempower_ms": statistics.median(samples["sempower"]),
            "import.scipy_optimize_ms": statistics.median(samples["scipy.optimize"])}


def run_traced(name: str, seed: int) -> dict:
    """Two traced runs in fresh processes; counts must agree exactly."""
    runs = []
    for tag in ("a", "b"):
        spans = str(OUT / f"spans_{name}_seed{seed}.csv.gz") if tag == "a" else ""
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--trace-child", "--workload", name,
             "--seed", str(seed), "--spans", spans],
            cwd=ROOT, env=child_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"traced run {tag} failed ({proc.returncode}): {proc.stderr[-3000:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    a, b = runs
    counts = [k for k in a["metrics"] if k.endswith(".calls") or k in EXACT_COUNTS]
    mismatches = {k: (a["metrics"][k], b["metrics"][k]) for k in counts
                  if a["metrics"][k] != b["metrics"][k]}
    metrics = {**a["metrics"], **import_times_ms()}
    failures = a["failures"] + b["failures"]
    if mismatches:
        failures.append({"reason": "counts differ between two traced runs of one seed",
                         "counts": mismatches})
    return {"metrics": metrics, "attempted": a["attempted"] + b["attempted"],
            "failures": failures, "report": {"spans": a["spans"], "count_mismatches": mismatches}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time; defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--trace-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spans", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "sempower" / "__init__.py", ROOT / "configs", ROOT / "BENCHMARK.json")
               if not p.exists()]
    if missing:
        print(f"error: not a sempower checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        wl = make_workload(args.workload, args.seed, ROOT, OUT, child_env())
        wl.run(wl.make(0))
        return 0
    if args.trace_child:
        print(json.dumps(trace_child(args.workload, args.seed, args.spans or None)))
        return 0

    import sempower

    if Path(sempower.__file__).resolve().parent != (SRC / "sempower").resolve():
        print(f"error: imported sempower from {sempower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    prov = provenance()
    if args.trace:
        res = run_traced(args.workload, args.seed)
    else:
        scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
        try:
            res = measure(args.workload, args.seed, seconds, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    if set(res["metrics"]) != set(declared):
        print(f"error: measured metrics {sorted(res['metrics'])} differ from BENCHMARK.json "
              f"{sorted(declared)}", file=sys.stderr)
        return 2

    failures = res["failures"]
    report = {**res["report"], "failed_share": len(failures) / res["attempted"]}
    record = {
        "workload": {"name": args.workload, "why": why[args.workload],
                     "generator": PARAMS[args.workload]},
        "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "provenance": prov,
        "metrics": res["metrics"], "report": report,
        "attempted": res["attempted"], "failures": failures,
    }
    record_path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sempower {prov['src_sha256'][:12]} ({prov['src_sempower_lines']} lines)")
    for key, value in report.items():
        if key not in ("latency_ms", "setup_samples_s", "kernel_ms"):
            print(f"  {key:42s} {value}")
    for key in sorted(res["metrics"]):
        print(f"  {key:42s} {res['metrics'][key]:.6g} {declared[key]}")
    print(f"  failed {len(failures)} of {res['attempted']} attempted; record {record_path}")
    for f in failures[:5]:
        print(f"  FAILED {json.dumps(f)[:300]}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
