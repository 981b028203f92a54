#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with spans and counters and prints
the per-layer metrics (see README.md). The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; problems found by
the checks go to standard error.
"""

import os

# One BLAS thread, and none of the program's REPRO_* switches, before
# NumPy loads: every run measures the program's defaults the same way.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train_full", "train_sampled", "train_dist", "serve")
#: Cold set-ups per run: this process plus this many fresh children.
SETUP_CHILDREN = 2
#: Seconds a traced run spends on each of the other workloads.
PROBE_SECONDS = 3.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it")
    return parser.parse_args(argv)


def _import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _cold_setup_s(args) -> float:
    """One set-up in a fresh process, as a user would first meet it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _timed_setup(mod, seed):
    """Make the inputs, then time the set-up."""
    from common import now

    inputs = mod.make_inputs(seed)
    t0 = now()
    state = mod.setup(inputs)
    setup_s = now() - t0
    # Objects made so far (imports, inputs, set-up) are never garbage:
    # keep the collector from walking them during the timed phase.
    gc.freeze()
    return state, setup_s


def _measure(mod, seed, seconds, traced=False, spans_path=None):
    """Set up, run the timed phase and check.

    Returns the outcome, the metrics, the checks' problems and the
    set-up time. A traced run reports the per-layer metrics, an untraced
    one the end-to-end ones bar ``setup_s``. Checks run unless this is a
    traced probe (a traced run without ``spans_path``).
    """
    from common import Spans, peak_rss_mb

    state, setup_s = _timed_setup(mod, seed)
    spans = Spans(traced)
    outcome = mod.run(state, seconds, spans)
    rss = peak_rss_mb()
    if traced:
        metrics = mod.per_layer(state, outcome, spans)
    else:
        metrics = {"peak_rss_mb": rss, **outcome.end_to_end(mod.TAIL_PCT)}
    check = not traced or spans_path is not None
    problems = mod.check(state, outcome) if check else []
    mod.close(state)
    if spans_path is not None:
        spans.write(spans_path)
    p50 = outcome.end_to_end(mod.TAIL_PCT)["op_ms_p50"]
    print(f"perfbench: {mod.NAME} traced={int(traced)} op_ms_p50 {p50:.4f} "
          f"set-up {setup_s:.4f} s", file=sys.stderr)
    return outcome, metrics, problems, setup_s


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()

    mod = importlib.import_module(args.workload)
    if args.setup_only:
        state, setup_s = _timed_setup(mod, args.seed)
        mod.close(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        declared = spec["per_layer"]
        outcome, metrics, problems, _ = _measure(
            mod, args.seed, args.seconds, True,
            ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json")
        # Every per-layer metric is reported: the other workloads' ones
        # come from a short traced probe of each, after the main run.
        for other in WORKLOADS:
            if other != args.workload:
                probe = importlib.import_module(other)
                _, extra, _, _ = _measure(probe, args.seed, PROBE_SECONDS,
                                          True)
                for name, value in extra.items():
                    metrics.setdefault(name, value)
    else:
        declared = spec["end_to_end"]
        outcome, metrics, problems, setup_s = _measure(
            mod, args.seed, args.seconds)
        setups = [setup_s] + [_cold_setup_s(args)
                              for _ in range(SETUP_CHILDREN)]
        metrics["setup_s"] = statistics.median(setups)
        print(f"perfbench: set-ups {[round(s, 4) for s in setups]}",
              file=sys.stderr)

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
            "differ from BENCHMARK.json")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    if outcome.failures:
        print(f"perfbench: failed ops {outcome.failures}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
