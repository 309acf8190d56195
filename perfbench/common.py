"""Shared pieces of the benchmark: inputs, statistics, provenance and reporting."""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
#: the checkout the benchmark lives in; it runs the program from ``src/``
#: there and builds nothing
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: the paper's evaluation device for the preset backends
DEVICE = "ibmq_washington"
PRESETS = ("qiskit-o0", "qiskit-o1", "qiskit-o2", "qiskit-o3", "tket-o0", "tket-o1", "tket-o2")
#: circuits compiled before timing starts, wider than any measured input so
#: they never hit a measured key; without them the first measured seconds
#: pay for lazily built tables and read slow
WARMUP = (("qft", 9), ("ghz", 3))

#: end-to-end metrics every workload reports: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p85_ms", "ms"),
    ("cx_total", "count"),
    ("fidelity_geomean", "ratio"),
)


class BenchmarkSetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources)."""


def import_program() -> None:
    """Make ``repro`` importable from ``<checkout>/src``, and only from there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkSetupError(f"no program sources at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchmarkSetupError(f"repro imported from {repro.__file__}, not from {src}")


def family_widths(min_width: int, max_width: int) -> list[tuple[str, int]]:
    """Every (benchmark family, width) pair in the range, in a fixed order."""
    from repro.bench.suite import BENCHMARK_GENERATORS

    return [
        (family, width)
        for family, (_generator, family_min) in sorted(BENCHMARK_GENERATORS.items())
        for width in range(max(min_width, family_min), max_width + 1)
    ]


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, stream), stable across Python builds."""
    return random.Random(f"{seed}:{stream}")


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (``q`` in 0..100).

    A weighted mean of every order statistic, with weights from the beta
    distribution that the rank of the percentile follows; unlike a single
    order statistic it does not jump when two samples near the percentile
    trade places, which matters for 40-100 samples spread over circuits of
    very different sizes.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no values")
    if n == 1:
        return float(ordered[0])
    a, b = (n + 1) * q / 100.0, (n + 1) * (1 - q / 100.0)
    # The beta density on cell midpoints, so that a density unbounded at an
    # end (a or b below 1, for few samples) stays finite.
    cells = 20000
    middle = (np.arange(cells) + 0.5) / cells
    log_density = (a - 1) * np.log(middle) + (b - 1) * np.log1p(-middle)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_density - log_density.max()))))
    edges = np.arange(cells + 1) / cells
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ ordered)


def geomean(values: list[float]) -> float:
    return statistics.geometric_mean(values)


def two_qubit_gates(circuit) -> int:
    return sum(1 for inst in circuit.instructions if len(inst.qubits) == 2)


def peak_rss_mb(child_pids: tuple[int, ...] = ()) -> float:
    """Peak resident set of this process plus the given live children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
        except OSError:
            pass
    return kib / 1024.0


def provenance(seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


class Outcome:
    """What one workload run measured, before it is printed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.oracle_checked = 0
        self.oracle_rejected: list[str] = []
        self.details: dict = {}
        #: called once the timed phase ends (the traced run stops tracing there)
        self.on_timed_end = None

    def timed_end(self) -> None:
        if self.on_timed_end is not None:
            self.on_timed_end()
            self.on_timed_end = None

    def fail(self, what: str) -> None:
        self.failed += 1
        self.details.setdefault("failures", []).append(what)


def write_report(outcome: Outcome, host: dict, trace: bool, metrics: dict, units: dict) -> Path:
    """Keep the full result next to the checkout for later comparison."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{outcome.workload}-seed{host['seed']}-trace{int(trace)}.json"
    payload = {
        "workload": outcome.workload,
        "trace": trace,
        "provenance": host,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "oracle": {"checked": outcome.oracle_checked, "rejected": outcome.oracle_rejected},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "details": outcome.details,
    }
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


def read_report(workload: str, seed: int, trace: bool) -> dict | None:
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
