"""sdprel benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # every workload, in turn
    python3 perfbench/run.py --workload cv_paper --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test           # each check rejects bad output

Run from the repository root.  Inputs are generated from ``--seed`` into
``.perfbench_work/`` and removed afterwards; the program reads only those
files.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  See README.md.
"""

import os

# One BLAS thread, fixed before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("cv_paper", "preprocess_dense", "tune_predict")
# Set-up runs this many times before the first round and once more before
# every round, so its median samples the whole run; setup_s is that median.
SETUP_REPS = 5


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(workload, seconds: float, trace: bool):
    """Set up SETUP_REPS times, warm up, then run rounds for ``seconds``.

    A new round starts only if the previous round's time still fits, and
    another set-up precedes it.  With tracing, untraced and traced rounds
    alternate, at least one of each.
    """
    from tracing import Tracer

    setup_times = [workload.setup() for _ in range(SETUP_REPS)]
    setup_summary = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            workload.setup()
            setup_summary = tracer.summarize(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    workload.warm_up()

    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if rounds:  # keep one round's output alive, so peak memory is one round's
            rounds[-1].output = None
            setup_times.append(workload.setup())
        gc.collect()
        probes = workload.probes()
        with ExitStack() as stack:
            for probe in probes:
                stack.enter_context(probe)
            if traced:
                tracer = Tracer()
                tracer.install()
                stack.callback(tracer.uninstall)
            result = workload.body(probes)
        if traced:
            result.traced, result.tracer = True, tracer
            result.trace = tracer.summarize(result.wall_s)
        rounds.append(result)
        done = not trace or len(rounds) >= 2
        if done and time.perf_counter() - start + result.wall_s > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return setup_times, setup_summary, rounds, peak_rss_mb


def run_checks(workload, rounds) -> list[str]:
    """Failures of the output checks, as messages; empty when all pass."""
    import checks

    if len({r.digest for r in rounds if r.digest}) > 1:
        return ["rounds on the same inputs gave different outputs"]
    if rounds[-1].output is None:
        return ["the last round did not complete, so there is no output to check"]
    out = rounds[-1].output
    truth = workload.truth
    try:
        if workload.name == "preprocess_dense":
            checks.check_preprocess(truth, out["result"], workload.config.position_window)
            checks.check_roundtrip(out["result"], out["back"])
        elif workload.name == "cv_paper":
            checks.check_preprocess(truth, out["result"], workload.config.position_window)
            checks.check_cv(truth, out["train_calls"], out["eval_calls"], out["report"],
                            workload.config.k_folds)
        else:
            checks.check_labels(truth, out["held"])
            checks.check_checkpoint_roundtrip(out["checkpoint_path"])
            checks.check_forward(truth, out["ck"], out["model"], out["vectorizer"],
                                 out["held"], out["scores"], workload.config.embedding_path)
            checks.check_training(out["train"].epoch_losses, out["held"], out["scores"])
    except checks.CheckFailed as exc:
        return [str(exc)]
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    run_dir = os.path.join(WORK, f"run-{name}-{seed}-{os.getpid()}")
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", name,
                        "--seed", str(seed), "--out", run_dir], check=True)
        sys.path.insert(0, SRC)
        import workloads
        from tracing import per_layer_metrics

        paths = {f: os.path.join(run_dir, f) for f in
                 ("corpus.tsv", "deps.tsv", "config.txt", "truth.json")}
        with open(paths["truth.json"], encoding="utf-8") as fh:
            truth = json.load(fh)
        workload = workloads.WORKLOADS[name](paths, truth)
        setup_times, setup_summary, rounds, peak_rss_mb = measure(
            workload, seconds, trace)
        failures = run_checks(workload, rounds)
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)

        plain = [r for r in rounds if not r.traced]
        wall_s = statistics.median(r.wall_s for r in plain)
        print("machine: " + json.dumps(machine_facts()))
        print(f"workload {name} seed {seed}: {len(plain)} untraced rounds "
              f"({', '.join(f'{r.wall_s:.3f}' for r in plain)} s), set-up "
              f"{', '.join(f'{s:.3f}' for s in setup_times)} s")
        for fig, (value, unit) in plain[-1].figures.items():
            print(f"figure {fig} = {value:.6g} {unit}")
        if trace:
            traced = sorted((r for r in rounds if r.traced), key=lambda r: r.wall_s)
            pick = traced[(len(traced) - 1) // 2]
            overhead = statistics.median(r.wall_s for r in traced) - wall_s
            values = per_layer_metrics(setup_summary, pick.trace, overhead, pick.figures)
            os.makedirs(WORK, exist_ok=True)
            pick.tracer.write_spans(
                os.path.join(WORK, f"spans-{name}-seed{seed}.tsv"))
        else:
            values = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (wall_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
        for metric, (value, unit) in values.items():
            print(f"metric {metric} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": not failures,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }))
        return 0 if not failures else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory does not carry over."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check rejects corrupted output")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sdprel", "__init__.py")):
        print(f"error: no sdprel sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.self_test:
        sys.path.insert(0, SRC)
        import selftest

        return selftest.main(WORK)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
