"""Run one benchmark workload against the evsikit sources of this checkout.

    python3 evsibench/run.py --workload ades-conjugate --seed 1 --seconds 35 --trace 0

Runs whole passes of the workload while another one is expected to end
within --seconds of wall time, checks every output, and prints one JSON line: `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 it traces passes from the same seeds and reports per-pass layer
metrics, the tracing overhead against the same passes run untraced, and
whether traced and untraced outputs are bit-identical.  Every operation's
output and every failed check go to evsibench/out/.

The exact references are computed in a child process, so their memory does
not count in `peak_rss_mb`.  End-to-end times are CPU seconds scaled by the
readings of gauge.py's fixed kernel, so that they do not move with how much
other tenants of a shared machine slow this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3   # fresh interpreters set up during the run, besides this process
OVERHEAD_SAMPLE_S = 3.0
WORKLOAD_NAMES = ("ades-conjugate", "ades-mcmc", "toy-replicates")
# one BLAS thread, so timings do not vary with how many cores happen to be free,
# and no idle BLAS threads spin on the CPU time of the gauge
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _setup(workload: str):
    """Import evsikit from this checkout and build the workload's models and designs.

    Returns the CPU seconds this took; the benchmark's own modules are
    imported outside the timed parts.
    """
    start = time.process_time()
    sys.path.insert(0, str(SRC))
    import evsikit as ek

    import_s = time.process_time() - start
    if not Path(ek.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"evsikit imported from {ek.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    start = time.process_time()
    state = WORKLOADS[workload][0](ek)
    return ek, state, import_s + time.process_time() - start


def _child(workload: str, flag: str) -> str:
    """The last output line of this script run with `flag` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, flag],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def _run_passes(runner, pass_fn, state, refs, ek, seed: int, seconds: float, between=None):
    """Whole passes while another one is expected to end within `seconds` of wall time.

    Makes at least one pass.  `between(share)`, if given, runs before each
    pass with the share of `seconds` passed so far.  Returns the CPU seconds
    of each pass.
    """
    per_pass = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if per_pass and elapsed * (len(per_pass) + 1) / len(per_pass) > seconds:
            return per_pass
        if between is not None:
            between(elapsed / seconds if seconds > 0 else 0.0)
        cpu = time.process_time()
        pass_fn(runner, state, refs, ek.SeedSpec(seed).derive(len(per_pass)))
        per_pass.append(time.process_time() - cpu)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--references", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "evsikit" / "__init__.py").is_file():
        print(f"error: no evsikit sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2

    if args.references:
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS

        print(json.dumps(WORKLOADS[args.workload][2]()))
        return 0
    ek, state, setup_s = _setup(args.workload)
    import gauge

    setup_s *= gauge.scale_now()
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    from tracing import Tracer
    from workloads import WORKLOADS, Runner, trace_state

    warnings.simplefilter("ignore")
    pass_fn = WORKLOADS[args.workload][1]
    refs = json.loads(_child(args.workload, "--references"))

    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        setups = [setup_s]

        def probe(share):
            # spread over the run; each set-up is scaled by the gauge in its own process
            while len(setups) <= share * (SETUP_PROBES + 1) and len(setups) <= SETUP_PROBES:
                setups.append(float(_child(args.workload, "--setup-probe")))

        runner = Runner(ek)
        runner.before_op = scaled = gauge.ScaledTimes(runner)
        passes = len(_run_passes(runner, pass_fn, state, refs, ek, args.seed, args.seconds,
                                 between=probe))
        scaled.close()
        probe(1.0)
        runner.finish()
        completed, estimate_s, oracle_s = scaled.totals()
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "evsi_per_s": _metric(completed / estimate_s, "1/s"),
            "oracle_s": _metric(oracle_s / passes, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        identical = True
    else:
        # pass 0 untraced to warm the caches, then the traced passes; the
        # first of them, about OVERHEAD_SAMPLE_S, are each run untraced just
        # before, so both runs of a pass see the same state of the machine
        warm = Runner(ek)
        _run_passes(warm, pass_fn, state, refs, ek, args.seed, 0.0)
        tracer = Tracer()
        plain = Runner(ek)
        plain_s: list[float] = []

        def untraced_twin(share):
            if sum(plain_s) < OVERHEAD_SAMPLE_S:
                tracer.uninstall()
                start = time.process_time()
                pass_fn(plain, state, refs, ek.SeedSpec(args.seed).derive(len(plain_s)))
                plain_s.append(time.process_time() - start)
                tracer.install()

        tracer.install()
        try:
            runner = Runner(ek, tracer)
            traced = _run_passes(runner, pass_fn, trace_state(tracer, state), refs, ek,
                                 args.seed, args.seconds, between=untraced_twin)
        finally:
            tracer.uninstall()
        runner.finish()
        per_pass = len(warm.records)
        identical = (warm.records == plain.records[:per_pass]
                     and plain.records == runner.records[:len(plain.records)])
        if not identical:
            runner.problems.append("traced and untraced outputs differ")
        passes = len(traced)
        metrics = {k: _metric(v, "count" if not k.endswith("_s") else "s")
                   for k, v in tracer.layer_metrics(passes).items()}
        pairs = list(zip(traced, plain_s))
        metrics["trace.overhead_s"] = _metric(statistics.median(t - u for t, u in pairs), "s")
        metrics["trace.overhead_share"] = _metric(
            statistics.median(t / u for t, u in pairs) - 1.0, "1")
        errors = runner.rel_errors
        metrics["momentmatch.rel_rmse"] = _metric(
            (sum(e * e for e in errors) / len(errors)) ** 0.5 if errors else float("nan"), "1")

    report.update(passes=passes, records=runner.records, problems=runner.problems,
                  metrics=metrics)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh)

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems and identical,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
