"""Self-checks of the benchmark: inputs, metric names, oracle, tracer, exactness.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.import_program()

import hostclock  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import wl_compile  # noqa: E402
import wl_serve  # noqa: E402
import wl_train  # noqa: E402

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())

REPLAY_ACTIONS = [3, 8, 32, 28, 9, 22, 25, 22, 23, 31, 26, 20, 30]


# -- inputs ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "draw",
    [wl_compile.draw_inputs, wl_train.draw_inputs, lambda seed: wl_serve.draw_schedule(seed, 25)],
    ids=["compile", "train", "serve"],
)
def test_same_seed_same_inputs_other_seed_other_inputs(draw):
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_compile_draw_covers_every_family_and_width_once_per_pass():
    order = wl_compile.draw_inputs(3)
    assert len(order) == len(set(order)) == 65
    assert sorted(order) == sorted(wl_compile.draw_inputs(4))
    assert {w for _f, w in order} == set(range(3, 9))
    assert len({f for f, _w in order}) == 22


def test_serve_offers_the_same_requests_on_every_seed():
    def requests(seed):
        return sorted(item["key"] for item in wl_serve.draw_schedule(seed, 25))

    assert requests(1) == requests(2)
    primed = set(wl_serve.primed_keys())
    schedule = wl_serve.draw_schedule(1, 25)
    for rate in {item["rate"] for item in schedule}:  # each phase rounds its own share
        keys = [item["key"] for item in schedule if item["rate"] == rate]
        hits = sum(key in primed for key in keys)
        assert hits == len(keys) - round(len(keys) * (1 - wl_serve.REPEAT_SHARE))
    keys = requests(1)
    fresh = [key for key in keys if key not in primed]
    assert len(set(fresh)) == len(fresh)  # every other key is fresh


# -- metric names ----------------------------------------------------------------------


def test_printed_metric_names_are_declared():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert dict(common.END_TO_END) == declared_e2e
    assert {n: u for n, u, _b in layers.layer_metric_specs()} == declared_layers
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["compile", "train", "serve"]


def test_every_registered_pass_is_reported():
    from repro.passes.registry import registered_passes

    assert set(registered_passes()) == set(layers.PASSES)


# -- oracle ----------------------------------------------------------------------------


def test_oracle_flags_the_block_resynthesis_replay_and_accepts_the_input():
    import repro

    circuit = repro.benchmark_circuit("twolocalrandom", 4)
    env = repro.CompilationEnv([circuit])
    env.reset(seed=0)
    for action in REPLAY_ACTIONS:
        env.step(action)
    reference = oracle.distribution(circuit)
    ok, distance = oracle.check_equivalent(reference, env.state.circuit)
    assert not ok
    assert distance == pytest.approx(0.37, abs=0.01)
    assert oracle.check_equivalent(reference, circuit) == (True, 0.0)


def test_oracle_gate_identities():
    from repro.circuit.circuit import QuantumCircuit

    def dist(build):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.append("ry", [1], [0.7])
        circuit.append("rx", [2], [1.9])
        build(circuit)
        for q in range(3):
            circuit.measure(q, q)
        return oracle.distribution(circuit)

    def three_cx_swap(c):
        c.cx(0, 1), c.cx(1, 0), c.cx(0, 1)

    def hadamard_cz(c):
        c.h(1), c.cz(0, 1), c.h(1)

    assert oracle.tv_distance(dist(lambda c: c.swap(0, 1)), dist(three_cx_swap)) < 1e-12
    assert oracle.tv_distance(dist(lambda c: c.cx(0, 1)), dist(hadamard_cz)) < 1e-12
    assert oracle.tv_distance(dist(lambda c: c.cx(0, 1)), dist(lambda c: c.cx(1, 0))) > 1e-3


def test_oracle_branches_on_mid_circuit_measurement():
    from repro.circuit.circuit import QuantumCircuit

    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.cx(0, 1)  # after the measurement: the copy must be classical
    circuit.h(0)
    circuit.measure(1, 1)
    assert oracle.distribution(circuit) == pytest.approx({0b00: 0.5, 0b11: 0.5})


# -- tracer ----------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert tracer.union_length([(2, 5), (4, 7), (9, 10)]) == 6
    assert tracer.union_length([]) == 0


def test_tracer_nests_spans_and_restores_wrapped_names():
    import repro.linalg.decompositions as decompositions
    from repro.passes.optimization import blocks

    original = decompositions.synthesize_2q
    trace = layers.instrument()
    try:
        assert blocks.synthesize_2q is not original  # the importing module is wrapped too
        import repro

        repro.compile(repro.benchmark_circuit("ghz", 3), backend="qiskit-o3")
    finally:
        trace.close()
    assert decompositions.synthesize_2q is original and blocks.synthesize_2q is original
    names = {span.name for span in trace.spans}
    assert {"compilers.qiskit-o3", "pipeline.pass_apply", "reward"} <= names
    backend_span = next(s for s in trace.spans if s.name == "compilers.qiskit-o3")
    assert 0 < backend_span.self_time < backend_span.end - backend_span.start
    seconds, calls = tracer.self_times(trace.spans)
    assert calls["compilers.qiskit-o3"] == 1 and seconds["reward"] > 0


# -- host-speed calibration -------------------------------------------------------------


def test_host_clock_scales_by_the_nearest_slices():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_SLICE_S
    clock.slices = [(float(t), 2 * ref) for t in range(5)]
    clock.slices += [(float(t), ref / 2) for t in range(100, 105)]
    assert clock.scaled(1.0, 3.0) == pytest.approx(1.0)  # a slow host: halved
    assert clock.scaled(101.0, 102.0) == pytest.approx(2.0)  # a fast one: doubled
    clock.calibrate(2)
    assert len(clock.slices) == 12 and clock.slices[-1][1] > 0


# -- exactness -------------------------------------------------------------------------


def test_quality_counts_repeat_exactly_across_runs():
    def compile_once():
        state = dict(wl_compile.setup(1), clock=hostclock.HostClock())
        outcome = common.Outcome("compile")
        wl_compile.run(1, 0.0, state, outcome, order=wl_compile.draw_inputs(1)[:4])
        assert outcome.failed == 0 and outcome.oracle_checked == 32
        return outcome.metrics["cx_total"], outcome.details["rl_wins_share"]

    def train_once():
        state = dict(wl_train.setup(1), clock=hostclock.HostClock())
        state["held_out"] = state["held_out"][:3]
        outcome = common.Outcome("train")
        wl_train.run(1, 0.0, state, outcome, timesteps=256)
        return outcome.details["final_reward"], outcome.metrics["cx_total"]

    assert compile_once() == compile_once()
    assert train_once() == train_once()


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
