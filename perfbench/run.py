"""The repository benchmark: ``compile``, ``train`` and ``serve`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1           # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1 # plus layer report

Each run prints its metrics by name with units, the attempted and failed
operation counts and the oracle's verdict, then one JSON line (the last line
of standard output)::

    {"correct": true, "attempted": 65, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the calls into each ``repro`` layer are wrapped and the metrics are the
per-layer figures (see ``layers.py``), and the run states its overhead
against the untraced run of the same workload and seed, when one was made in
this checkout.  Full results, with provenance, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import END_TO_END, Outcome, peak_rss_mb, provenance, read_report, write_report  # noqa: E402
from hostclock import HostClock  # noqa: E402

WORKLOADS = ("compile", "train", "serve")
#: set-up is repeated this many times per run (in fresh processes) and the
#: median reported, so one slow start does not move setup_s
SETUP_SAMPLES = 3
#: calibration slices right after set-up; their median scales setup_s
SETUP_CALIBRATION = 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, tear it down and print the seconds it took",
    )
    return parser


def _setup(name: str, seed: int, seconds: float) -> tuple[dict, float]:
    """Set the workload up; returns its state and the set-up seconds since
    the interpreter started, scaled to the reference host speed."""
    module = importlib.import_module(f"wl_{name}")
    state = module.setup(seed, seconds) if name == "serve" else module.setup(seed)
    elapsed = time.perf_counter() - _STARTED
    clock = HostClock()
    clock.calibrate(SETUP_CALIBRATION)
    state["clock"] = clock
    return state, elapsed * clock.factor(time.perf_counter())


def _teardown(name: str, state: dict) -> None:
    if name == "serve":
        importlib.import_module("wl_serve").teardown(state)


def _setup_probe(name: str, seed: int, seconds: float) -> float:
    """Set-up seconds measured in a fresh interpreter, like the main run's."""
    completed = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--setup-only"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, dict, dict]:
    """Run one workload; returns (outcome, metrics to print, their units)."""
    tracer = None
    if trace:
        from layers import instrument

        tracer = instrument()
    state, setup_s = _setup(name, seed, seconds)
    outcome = Outcome(name)
    if tracer is not None:
        outcome.on_timed_end = tracer.close
    module = importlib.import_module(f"wl_{name}")
    extra: dict[str, float] = {}
    try:
        module.run(seed, seconds, state, outcome)
        if name == "serve":
            rss = peak_rss_mb((state["proc"].pid,))
            if trace:
                extra.update(module.service_layers(state))
        else:
            rss = outcome.details.get("peak_rss_mb") or peak_rss_mb()
    finally:
        outcome.timed_end()
        _teardown(name, state)
    extra["rl.wins_share"] = outcome.details.get("rl_wins_share", 0.0)
    extra["rl.final_reward"] = outcome.details.get("final_reward", 0.0)

    if trace:
        from layers import layer_metric_specs, layer_metrics

        operations = {
            "compile": outcome.attempted,
            "train": outcome.details.get("timesteps", 1),
            "serve": outcome.attempted,
        }[name]
        metrics = layer_metrics(tracer, max(operations, 1), extra)
        units = {n: unit for n, unit, _better in layer_metric_specs()}
        untraced = read_report(name, seed, trace=False)
        outcome.details["end_to_end_while_traced"] = dict(outcome.metrics)
        if untraced:
            outcome.details["tracing_overhead"] = {
                key: outcome.metrics[key] / untraced["metrics"][key]["value"] - 1.0
                for key in ("ops_per_s", "op_p50_ms", "op_p85_ms")
            }
        return outcome, metrics, units

    samples = [setup_s] + [_setup_probe(name, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
    outcome.details["setup_samples_s"] = samples
    metrics = dict(outcome.metrics, setup_s=statistics.median(samples), peak_rss_mb=rss)
    units = dict(END_TO_END)
    return outcome, {n: metrics[n] for n, _unit in END_TO_END}, units


def _print_human(outcome: Outcome, host: dict, trace: bool, metrics: dict, units: dict) -> None:
    print(f"perfbench {outcome.workload}  seed={host['seed']}  trace={int(trace)}")
    print(
        f"  host: {host['cpu']}, nproc {host['nproc']}, python {host['python']}, "
        f"numpy {host['numpy']}, commit {host['commit']}"
    )
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for key in ("rl_wins_share", "final_reward", "eval_fidelity_mean", "max_rps_at_slo",
                "generator_late_p50_ms"):
        if key in outcome.details:
            print(f"  ({key:<42} {outcome.details[key]:>14.6g})")
    if "ladder" in outcome.details:
        for rate, step in outcome.details["ladder"].items():
            print(
                f"  (ladder {rate:>5g} req/s: {step['requests']} sent, p50 {step['p50_ms']:.1f} ms, "
                f"p90 {step['p90_ms']:.1f} ms, failed {step['failed']}, "
                f"{'meets' if step['meets_slo'] else 'misses'} SLO)"
            )
    overhead = outcome.details.get("tracing_overhead")
    if trace:
        if overhead:
            text = ", ".join(f"{k} {v:+.1%}" for k, v in overhead.items())
            print(f"  tracing overhead vs untraced run of this seed: {text}")
        else:
            print("  tracing overhead: no untraced run of this workload and seed to compare with")
    print(
        f"  attempted {outcome.attempted}  failed {outcome.failed}  oracle: "
        f"{outcome.oracle_checked} outputs checked, {len(outcome.oracle_rejected)} rejected"
    )
    for rejected in outcome.oracle_rejected[:10]:
        print(f"    rejected: {rejected}")


def _result_line(outcome: Outcome, metrics: dict, units: dict) -> dict:
    return {
        "correct": outcome.failed == 0 and not outcome.oracle_rejected,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (untraced, then traced if asked)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for traced in (False, True) if trace else (False,):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced))],
                cwd=common.ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                return completed.returncode
            line = json.loads(completed.stdout.strip().splitlines()[-1])
            combined["correct"] &= line["correct"]
            if not traced:
                combined["attempted"] += line["attempted"]
                combined["failed"] += line["failed"]
            for metric, payload in line["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = payload
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        common.import_program()
    except common.BenchmarkSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        state, setup_s = _setup(args.workload, args.seed, args.seconds)
        _teardown(args.workload, state)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    trace = bool(args.trace)
    outcome, metrics, units = run_workload(args.workload, args.seed, args.seconds, trace)
    host = provenance(args.seed)
    write_report(outcome, host, trace, metrics, units)
    _print_human(outcome, host, trace, metrics, units)
    print(json.dumps(_result_line(outcome, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
