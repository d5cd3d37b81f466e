"""Seeded benchmark for teijournal: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --smoke               # tiny inputs, fails on any check
    python3 perfbench/run.py --control             # a wrong manifest entry must fail

Run from the root of a checkout; the program is imported from ``src``.  The
benchmark generates its inputs from the seed, sets up three times (one set-up
with ``--trace 1``), then runs passes of the workload for ``--seconds``
seconds and checks every output.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced passes alternate
and the metrics are the per-layer ones.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import ENTRY, WORKLOADS, Context, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 3
REFERENCE_SAMPLES = 3  # reference runs after each set-up and untraced pass
REFERENCE_S = 0.11  # nominal reference time that calibrated seconds refer to
STARTUP_SAMPLES = 5
DEADLINE_S = 170
SMOKE_DEADLINE_S = 900

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("mib_per_s", "MiB/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

GROWTH = ("validator.validate", "render.citation_order", "render.render_xhtml")
CLI_COMMANDS = ("validate", "index", "biblio", "corrigenda", "query", "codify",
                "schema-validate", "variants", "arbitrate")

PER_LAYER = (
    ("rawxml.parse_raw.calls", "count", "lower"),
    ("rawxml.parse_raw.self_s", "s", "lower"),
    ("rawxml.parse_raw.mib_per_s", "MiB/s", "higher"),
    ("xmlio.parse_article.calls", "count", "lower"),
    ("xmlio.parse_article.self_s", "s", "lower"),
    ("xmlio.parse_article.issues", "count", "higher"),
    ("xmlio.serialize_article.self_s", "s", "lower"),
    ("xmlio.iter_model_paths.calls", "count", "lower"),
    ("xmlio.iter_model_paths.self_s", "s", "lower"),
    ("xmlio.iter_model_paths.walks_per_article", "ratio", "lower"),
    ("model.resolve_ref.calls", "count", "lower"),
    ("model.resolve_ref.self_s", "s", "lower"),
    ("validator.validate.self_s", "s", "lower"),
    ("validator.validate.findings", "count", "higher"),
    ("render.citation_order.calls", "count", "lower"),
    ("render.citation_order.self_s", "s", "lower"),
    ("render.render_xhtml.self_s", "s", "lower"),
    ("render.render_plaintext.self_s", "s", "lower"),
    *(
        (f"{name}.{stat}", unit, "lower")
        for name in GROWTH
        for stat, unit in (("growth", "ratio"), ("self_s_at_S", "s"), ("self_s_at_2S", "s"))
    ),
    ("corpus.load_corpus.self_s", "s", "lower"),
    ("corpus.load_corpus.loaded_ratio", "ratio", "higher"),
    ("corpus.build_indexes.self_s", "s", "lower"),
    ("corpus.unified_bibliography.self_s", "s", "lower"),
    ("corpus.corrigenda.self_s", "s", "lower"),
    ("corpus.query.self_s", "s", "lower"),
    ("schema.profile_corpus.self_s", "s", "lower"),
    ("schema.codify.self_s", "s", "lower"),
    ("schema.validate_against.self_s", "s", "lower"),
    ("schema.detect_variants.self_s", "s", "lower"),
    ("schema.arbitrate.self_s", "s", "lower"),
    ("schema.arbitrate.rewrites", "count", "higher"),
    ("cli.startup_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"cli.{command}.wall_s", "s", "lower") for command in CLI_COMMANDS),
    ("trace.overhead_ratio", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


class Stop(Exception):
    """Raised by SIGALRM (time limit) or SIGTERM, so children get stopped."""


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def compile_package(ctx: Context) -> None:
    """Write bytecode for the package, as an installer would."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/teijournal"],
        cwd=ctx.root, env=ctx.env, check=True, stdout=subprocess.DEVNULL,
    )


def reference_s(ctx: Context) -> tuple:
    """Wall time of one run of ``reference.py`` and its failures."""
    out, err = ctx.work / "reference.out", ctx.work / "reference.err"
    code, wall, _ = run_child([sys.executable, str(HERE / "reference.py")], ctx, out, err)
    return wall, [] if code == 0 else [f"reference.py: exit {code}"]


def startup_s(ctx: Context) -> tuple:
    """Wall times of ``teijournal explain R9``: start-up with no work."""
    out, err = ctx.work / "explain.out", ctx.work / "explain.err"
    times, failures = [], []
    for _ in range(STARTUP_SAMPLES):
        code, wall, _ = run_child([sys.executable, "-c", ENTRY, "explain", "R9"], ctx, out, err)
        times.append(wall)
        if code != 0 or not out.read_bytes().startswith(b"R9 (error)"):
            failures.append(f"explain R9: exit {code}")
    return times, failures


def layer_metrics(totals: dict, untraced: list, traced: list, startup: list) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    ids = sorted(p for p in totals if p > 0)  # pass 0 is a warm-up

    def per_pass(name: str, key: str, tag: str | None = None) -> list:
        return [
            sum(t.get(key, 0) for (n, g), t in totals[p].items()
                if n == name and (tag is None or g == tag))
            for p in ids
        ]

    def ratio(num: list, den: list) -> float:
        return median([a / b for a, b in zip(num, den) if b])

    out = {}
    for name, _, _ in PER_LAYER:
        module, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "issues", "findings", "rewrites"):
            out[name] = median(per_pass(module, stat))
    out["rawxml.parse_raw.mib_per_s"] = ratio(
        [b / 2**20 for b in per_pass("rawxml.parse_raw", "bytes")],
        per_pass("rawxml.parse_raw", "self_s"),
    )
    out["xmlio.iter_model_paths.walks_per_article"] = ratio(
        per_pass("xmlio.iter_model_paths", "calls"),
        per_pass("xmlio.parse_article", "articles"),
    )
    out["corpus.load_corpus.loaded_ratio"] = ratio(
        per_pass("corpus.load_corpus", "loaded"), per_pass("corpus.load_corpus", "files")
    )
    for name in GROWTH:
        small = per_pass(name, "self_s", "S")
        large = per_pass(name, "self_s", "2S")
        out[f"{name}.growth"] = ratio(large, small)
        out[f"{name}.self_s_at_S"] = median(small)
        out[f"{name}.self_s_at_2S"] = median(large)
    out["cli.startup_s"] = median(startup)
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = median([r.cmd_walls[command] for r in untraced])
    out["trace.overhead_ratio"] = ratio(
        [median([r.wall_s for r in traced])], [median([r.wall_s for r in untraced])]
    )
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", control: bool = False) -> dict:
    """Set up, run passes for ``seconds``, check them; returns the result."""
    work = WORK / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ctx = Context(ROOT, work, seed, size, control, trace)
    workload = WORKLOADS[name](ctx)
    attempted = 0
    failures: list = []
    setup_times: list = []
    passes: dict = {False: [], True: []}
    references: list = []
    span_files: list = []

    def account(result) -> None:
        nonlocal attempted
        attempted += result.attempted
        failures.extend(result.failures)

    def calibrate() -> None:
        nonlocal attempted
        group = []
        for _ in range(0 if trace else REFERENCE_SAMPLES):
            attempted += 1
            wall, problems = reference_s(ctx)
            group.append(wall)
            failures.extend(problems)
        references.append(group)

    try:
        calibrate()
        for i in range(1 if trace else SETUPS):
            started = time.perf_counter()
            workload.setup()
            ctx.env = ctx.make_env(work / f"pycache-{i}")
            compile_package(ctx)
            workload.start(False)
            warm = workload.run_pass(0, False)
            setup_times.append(time.perf_counter() - started)
            account(warm)
            calibrate()
            shutil.rmtree(work / f"pycache-{i - 1}", ignore_errors=True)
        if trace:  # pass -1 warms the traced side; its spans are dropped
            workload.start(True)
            account(workload.run_pass(-1, True))
        started = time.perf_counter()
        pass_no = 1
        while True:
            done = time.perf_counter() - started >= seconds
            enough = len(passes[False]) >= 2 and (not trace or len(passes[True]) >= 2)
            if done and enough:
                break
            traced = trace and pass_no % 2 == 0
            result = workload.run_pass(pass_no, traced)
            account(result)
            passes[traced].append(result)
            pass_no += 1
            calibrate()
    except BaseException:
        workload.abort()
        raise
    span_files += workload.close()
    untraced = passes[False]
    metrics: dict = {}
    notes: dict = {}
    shown: list = []  # printed, not in the JSON: (name, value, unit, note)
    if trace:
        startup, startup_failures = startup_s(ctx)
        attempted += len(startup)
        failures += startup_failures
        totals: dict = {}
        for path in span_files + [f for r in passes[True] for f in r.span_files]:
            tracer.summarize(json.loads(path.read_text(encoding="utf-8")), totals)
        metrics = layer_metrics(totals, untraced, passes[True], startup)
        n = len(passes[True])
        notes = {key: f"median of {n} traced passes" for key in metrics}
        notes["cli.startup_s"] = f"median of {len(startup)} runs"
        for command in CLI_COMMANDS:
            notes[f"cli.{command}.wall_s"] = f"median of {len(untraced)} untraced passes"
    else:
        n = len(untraced)
        nset = len(setup_times)

        def speed(*groups) -> float:
            """Nominal ÷ measured reference time around one set-up or pass."""
            return REFERENCE_S / statistics.mean([w for g in groups for w in g])

        # reference groups sit between the set-ups and passes, in run order
        walls = setup_times + [r.wall_s for r in untraced]
        calibrated = [w * speed(references[i], references[i + 1]) for i, w in enumerate(walls)]
        setup_cal, pass_cal = calibrated[:nset], calibrated[nset:]
        mib = [r.bytes_read / 2**20 for r in untraced]
        metrics = {
            "setup_s": median(setup_cal),
            "pass_s": median(pass_cal),
            "mib_per_s": median([m / t for m, t in zip(mib, pass_cal)]),
            "peak_rss_mib": median([r.rss_mib for r in untraced]),
        }
        notes = {
            "setup_s": f"median of {nset} set-ups, calibrated",
            "pass_s": f"median of {n} passes, calibrated",
            "mib_per_s": f"median of {n} passes; {median(mib):.2f} MiB read per pass",
            "peak_rss_mib": f"median of {n} passes; largest process doing the work",
        }
        references_s = [w for g in references for w in g]
        shown = [
            ("setup_wall_s", median(setup_times), "s", f"median of {nset} set-ups"),
            ("pass_wall_s", median([r.wall_s for r in untraced]), "s", f"median of {n} passes"),
            ("reference_s", median(references_s), "s",
             f"median of {len(references_s)} runs of reference.py"),
        ]
    ctx.save_ledger()
    shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "notes": notes,
        "shown": shown,
        "passes": {"untraced": len(untraced), "traced": len(passes[True])},
    }


def report(result: dict, seed: int, trace: bool) -> None:
    print(
        f"workload {result['workload']}  seed {seed}  trace {int(trace)}  "
        f"passes {result['passes']['untraced']} untraced/{result['passes']['traced']} traced  "
        f"python {platform.python_version()}  nproc {os.cpu_count()}"
    )
    for key, value in result["metrics"].items():
        print(f"  {key:<42} {value:>12.6g} {UNITS[key]:<6} ({result['notes'][key]})")
    for key, value, unit, note in result["shown"]:
        print(f"  {key:<42} {value:>12.6g} {unit:<6} ({note}; not in the JSON)")
    failed = len(result["failures"])
    print(f"  {'failed_ratio':<42} {failed / result['attempted']:>12.6g} ratio  "
          f"({failed} of {result['attempted']} operations failed)")
    for message in result["failures"][:20]:
        print(f"    FAILED {message}")


def summary_line(results: list, prefix: bool) -> str:
    failed = sum(len(r["failures"]) for r in results)
    metrics = {}
    for r in results:
        for key, value in r["metrics"].items():
            name = f"{r['workload']}.{key}" if prefix else key
            metrics[name] = {"value": value, "unit": UNITS[key]}
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    })


def declared_metrics() -> tuple | None:
    """(end_to_end, per_layer) names from BENCHMARK.json, if present."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError:
        return None
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def self_test(control: bool) -> int:
    """Tiny inputs, every workload, untraced then traced."""
    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, seed=1, seconds=0, trace=trace, size="smoke", control=control)
            report(result, 1, trace)
            results.append(result)
    if control:
        caught = all(
            any(r["failures"] for r in results if r["workload"] == name) for name in WORKLOADS
        )
        print(f"negative control: failed_ratio > 0 on every workload: {caught}")
        return 0 if caught else 1
    problems = [m for r in results for m in r["failures"]]
    declared = declared_metrics()
    for r in results if declared is not None else ():
        names = declared[1] if r["passes"]["traced"] else declared[0]
        if sorted(r["metrics"]) != sorted(names):
            problems.append(f"{r['workload']}: metrics differ from BENCHMARK.json")
    print(summary_line(results, prefix=True))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--control", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "teijournal" / "cli.py").is_file():
        print(f"perfbench: no teijournal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (args.smoke or args.control or args.workload):
        parser.error("give --workload, --smoke or --control")

    def on_signal(signum, frame):
        raise Stop(f"stopped by {signal.Signals(signum).name}")

    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    if args.smoke or args.control:
        signal.alarm(SMOKE_DEADLINE_S)
        return self_test(args.control)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        signal.alarm(DEADLINE_S)
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        report(result, args.seed, bool(args.trace))
        results.append(result)
    signal.alarm(0)
    print(summary_line(results, prefix=len(results) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
