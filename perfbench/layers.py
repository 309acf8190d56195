"""Which ``repro`` calls the traced run wraps, and the per-layer metrics they give.

Every ``*_ms`` metric is self time per workload operation (per sweep on
``compile``, per env step on ``train``, per request on ``serve``); every
``*_calls`` metric is calls per operation.  A layer a workload never enters
reads 0.  The service and gateway metrics of ``serve`` come from the
program's own spans and counters over HTTP (see ``wl_serve.py``), not from
wrappers, because that code runs in the gateway's process.
"""

from __future__ import annotations

from tracer import Tracer, self_times

BACKENDS = ("rl", "qiskit-o0", "qiskit-o1", "qiskit-o2", "qiskit-o3", "tket-o0", "tket-o1", "tket-o2")

#: registered pass names at the time the benchmark was defined; a pass
#: registered later still gets wrapped, but only these names are reported
PASSES = (
    "trivial_layout", "dense_layout", "sabre_layout", "cx_cancellation",
    "inverse_cancellation", "commutative_cancellation",
    "commutative_inverse_cancellation", "remove_diagonal_before_measure",
    "optimize_1q_gates", "remove_redundancies", "consolidate_blocks",
    "peephole_optimise_2q", "optimize_cliffords", "clifford_simp",
    "full_peephole_optimise", "basis_translator", "basic_swap",
    "stochastic_swap", "sabre_swap", "tket_routing",
)

#: metrics read from the gateway's trace and stats endpoints (serve only)
SERVE_LAYER_METRICS = (
    "service.queue_wait_ms", "service.lane_execute_ms", "service.cache_hit_rate",
    "gateway.self_ms", "http.roundtrip_ms", "serve.generator_late_ms",
)

#: workload quality figures that are not end-to-end metrics on every workload
QUALITY_METRICS = ("rl.wins_share", "rl.final_reward")

_TIMED = (
    [f"compilers.{b}" for b in BACKENDS]
    + [f"passes.{p}" for p in PASSES]
    + [
        "pipeline.pass_apply", "linalg.synthesize_1q", "linalg.synthesize_1q_batch",
        "linalg.synthesize_2q", "features.vector", "reward", "core.env_step_self",
        "core.action_masks", "rl.vec_step", "rl.policy_forward", "rl.update",
        "circuit.to_qasm", "api.from_dict", "api.compile_batch_self",
    ]
)
#: spans whose call counts are reported too
_COUNTED = {f"passes.{p}" for p in PASSES} | {
    "linalg.synthesize_1q", "linalg.synthesize_1q_batch", "linalg.synthesize_2q",
    "features.vector", "reward",
}
#: metric stem -> span name, where they differ
_SPAN_OF = {"core.env_step_self": "core.env_step", "api.compile_batch_self": "api.compile_batch"}


def _ms_name(stem: str) -> str:
    return "reward.ms" if stem == "reward" else f"{stem}_ms"


def _calls_name(stem: str) -> str:
    return "reward.calls" if stem == "reward" else f"{stem}_calls"


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for stem in _TIMED:
        specs.append((_ms_name(stem), "ms", "lower"))
        if stem in _COUNTED:
            specs.append((_calls_name(stem), "calls", "lower"))
    specs += [
        ("pipeline.analysis_hit_rate", "ratio", "higher"),
        ("pipeline.transform_hit_rate", "ratio", "higher"),
    ]
    units = {"service.cache_hit_rate": ("ratio", "higher")}
    specs += [(name, *units.get(name, ("ms", "lower"))) for name in SERVE_LAYER_METRICS]
    specs += [(name, "ratio", "higher") for name in QUALITY_METRICS]
    return specs


def instrument() -> Tracer:
    """Wrap the public entry points of every layer; returns the live tracer."""
    from repro.api import batch
    from repro.api.backends import PredictorBackend, PresetBackend
    from repro.api.result import CompilationResult
    from repro.circuit import qasm
    from repro.core.environment import CompilationEnv
    from repro.features import extraction
    from repro.linalg import decompositions, kernels
    from repro.passes.registry import pass_factory, registered_passes
    from repro.pipeline import AnalysisCache, PassRunner, TransformCache
    from repro.reward.functions import REWARD_FUNCTIONS
    from repro.rl.networks import MLP, Adam
    from repro.rl.vecenv import SyncVectorEnv

    tracer = Tracer()
    tracer.wrap_method(PresetBackend, "compile", lambda b: f"compilers.{b.name}")
    tracer.wrap_method(PredictorBackend, "compile", lambda b: f"compilers.{b.name}")
    # Several registered passes inherit one ``run`` (the block-resynthesis
    # family), so wrap each defining class once and name spans by the
    # registry name of the instance's own class.
    registry_name = {type(pass_factory(name)()): name for name in registered_passes()}
    definers = {
        next(k for k in cls.__mro__ if "run" in k.__dict__) for cls in registry_name
    }
    for definer in definers:
        tracer.wrap_method(
            definer, "run", lambda p: f"passes.{registry_name.get(type(p), p.name)}"
        )
    tracer.wrap_method(PassRunner, "apply", "pipeline.pass_apply")
    tracer.track_instances(AnalysisCache, "analysis")
    tracer.track_instances(TransformCache, "transform")
    tracer.wrap_function(decompositions.synthesize_1q, "linalg.synthesize_1q")
    tracer.wrap_function(decompositions.synthesize_2q, "linalg.synthesize_2q")
    tracer.wrap_function(kernels.synthesize_1q_batch, "linalg.synthesize_1q_batch")
    tracer.wrap_function(extraction.feature_vector, "features.vector")
    tracer.wrap_function(extraction.feature_vectors_batch, "features.vector")
    for key in list(REWARD_FUNCTIONS):
        tracer.replace_in_dict(REWARD_FUNCTIONS, key, "reward")
    tracer.wrap_method(CompilationEnv, "step", "core.env_step")
    tracer.wrap_method(CompilationEnv, "action_masks", "core.action_masks")
    tracer.wrap_method(SyncVectorEnv, "step", "rl.vec_step")
    tracer.wrap_method(MLP, "__call__", "rl.policy_forward")
    tracer.wrap_method(MLP, "forward", "rl.update")
    tracer.wrap_method(MLP, "backward", "rl.update")
    tracer.wrap_method(Adam, "step", "rl.update")
    tracer.wrap_function(qasm.to_qasm, "circuit.to_qasm")
    tracer.wrap_method(CompilationResult, "from_dict", "api.from_dict")
    tracer.wrap_function(batch.compile_batch, "api.compile_batch")
    return tracer


def _hit_rate(caches, hits_of, misses_of) -> float:
    hits = sum(hits_of(c) for c in caches)
    total = hits + sum(misses_of(c) for c in caches)
    return hits / total if total else 0.0


def layer_metrics(tracer: Tracer, operations: int, extra: dict | None = None) -> dict[str, float]:
    """Per-operation per-layer figures from a finished traced run."""
    seconds, calls = self_times(tracer.spans)
    out: dict[str, float] = {}
    for stem in _TIMED:
        span = _SPAN_OF.get(stem, stem)
        out[_ms_name(stem)] = 1000.0 * seconds.get(span, 0.0) / operations
        if stem in _COUNTED:
            out[_calls_name(stem)] = calls.get(span, 0) / operations
    out["pipeline.analysis_hit_rate"] = _hit_rate(
        tracer.instances["analysis"], lambda c: c.hits, lambda c: c.misses
    )
    out["pipeline.transform_hit_rate"] = _hit_rate(
        tracer.instances["transform"], lambda c: c.hits, lambda c: c.misses
    )
    for name in SERVE_LAYER_METRICS + QUALITY_METRICS:
        out[name] = 0.0
    out.update(extra or {})
    return out
