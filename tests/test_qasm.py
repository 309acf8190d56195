"""Unit tests for OpenQASM 2 import/export."""

from __future__ import annotations

import math
import re
import struct

import pytest

import repro
from repro.circuit import QasmError, QuantumCircuit, from_qasm, random_circuit, to_qasm
from repro.circuit.qasm import _eval_param, _format_param
from repro.linalg import allclose_up_to_global_phase, circuit_unitary

# -- reference implementations: the pre-O(1) scan and the eval-only decoder ----------

#: every candidate of the old scan, in scan order (denominator, then numerator)
_SCAN = [
    (num * math.pi / denom, f"pi*{num}/{denom}" if denom != 1 else f"pi*{num}")
    for denom in (1, 2, 3, 4, 6, 8, 16)
    for num in range(-16 * denom, 16 * denom + 1)
    if num != 0
]


def _scan_format_param(value: float) -> str:
    """The ~1,300-candidate scan ``to_qasm`` used to run, with exact matching."""
    for candidate, text in _SCAN:
        if value == candidate:
            return text
    if value == 0.0 and math.copysign(1.0, value) > 0:
        return "0"
    return repr(float(value))


def _eval_only_param(expr: str) -> float:
    """The decoder before its fast path: sanitise, then ``eval``."""
    original = expr.strip()
    expr = original.replace("pi", repr(math.pi))
    if not re.fullmatch(r"[0-9eE\.\+\-\*/\(\) ]+", expr):
        raise QasmError(f"unsupported parameter expression: {original!r}")
    try:
        return float(eval(expr, {"__builtins__": {}}, {}))  # noqa: S307 - sanitised above
    except Exception as exc:
        raise QasmError(f"invalid parameter expression {original!r}: {exc}") from None


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_same_circuit(rebuilt: QuantumCircuit, original: QuantumCircuit) -> None:
    assert len(rebuilt) == len(original)
    for got, want in zip(rebuilt, original):
        assert (got.name, got.qubits, got.clbits) == (want.name, want.qubits, want.clbits)
        assert [_bits(p) for p in got.params] == [_bits(float(p)) for p in want.params]
    assert rebuilt.fingerprint() == original.fingerprint()


class TestExport:
    def test_header_and_registers(self, bell_circuit):
        text = to_qasm(bell_circuit)
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text
        assert "creg c[2];" in text

    def test_gate_lines(self, bell_circuit):
        text = to_qasm(bell_circuit)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text

    def test_parameter_formatting_pi(self):
        circuit = QuantumCircuit(1)
        circuit.rz(math.pi / 2, 0)
        assert "pi*1/2" in to_qasm(circuit)

    def test_measure_line(self):
        circuit = QuantumCircuit(2)
        circuit.measure(0, 1)
        assert "measure q[0] -> c[1];" in to_qasm(circuit)

    def test_barrier_line(self):
        circuit = QuantumCircuit(2)
        circuit.barrier(0, 1)
        assert "barrier q[0],q[1];" in to_qasm(circuit)


class TestImport:
    def test_simple_parse(self):
        text = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        cx q[0],q[1];
        measure q[0] -> c[0];
        """
        circuit = from_qasm(text)
        assert circuit.num_qubits == 2
        assert [i.name for i in circuit] == ["h", "cx", "measure"]

    def test_parameter_expression(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrz(pi/4) q[0];\n')
        assert circuit[0].params[0] == pytest.approx(math.pi / 4)

    def test_u1_maps_to_p(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nu1(0.5) q[0];\n')
        assert circuit[0].name == "p"

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError, match="unsupported gate"):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmystery q[0];\n')

    def test_bad_parameter_expression_rejected(self):
        with pytest.raises(ValueError):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrz(__import__) q[0];\n')


class TestMalformedInput:
    """Trust-boundary hardening: every bad input is a QasmError, never a
    KeyError/IndexError leaking parser internals."""

    HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'

    def test_qasm_error_is_value_error(self):
        assert issubclass(QasmError, ValueError)

    def test_undeclared_quantum_register(self):
        with pytest.raises(QasmError, match="undeclared quantum register 'r'"):
            from_qasm(self.HEADER + "h r[0];\n")

    def test_undeclared_register_in_measurement(self):
        with pytest.raises(QasmError, match="undeclared"):
            from_qasm(self.HEADER + "measure r[0] -> c[0];\n")
        with pytest.raises(QasmError, match="undeclared classical register"):
            from_qasm(self.HEADER + "measure q[0] -> d[0];\n")

    def test_out_of_range_qubit_index(self):
        with pytest.raises(QasmError, match=r"index 2 out of range .* q\[2\]"):
            from_qasm(self.HEADER + "h q[2];\n")

    def test_out_of_range_clbit_index(self):
        with pytest.raises(QasmError, match="out of range"):
            from_qasm(self.HEADER + "measure q[0] -> c[5];\n")

    def test_duplicate_register_name(self):
        with pytest.raises(QasmError, match="duplicate register name 'q'"):
            from_qasm('OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\ncreg c[2];\n')

    def test_creg_shadowing_qreg_is_duplicate(self):
        with pytest.raises(QasmError, match="duplicate register name 'q'"):
            from_qasm('OPENQASM 2.0;\nqreg q[2];\ncreg q[2];\n')

    def test_register_declared_after_statement(self):
        with pytest.raises(QasmError, match="declared after first statement"):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nqreg r[1];\n')

    def test_gate_broadcast_rejected(self):
        with pytest.raises(QasmError, match="broadcast"):
            from_qasm(self.HEADER + "h q;\n")

    def test_gate_without_operands(self):
        with pytest.raises(QasmError, match="no operands"):
            from_qasm(self.HEADER + "h ;\n")

    def test_garbage_line(self):
        with pytest.raises(QasmError, match="cannot parse"):
            from_qasm(self.HEADER + "!!! nonsense;\n")

    def test_non_string_input(self):
        with pytest.raises(QasmError, match="must be a string"):
            from_qasm(12345)

    def test_bad_parameter_is_qasm_error(self):
        with pytest.raises(QasmError, match="parameter expression"):
            from_qasm(self.HEADER + "rz(1/0) q[0];\n")

    def test_two_registers_get_offsets(self):
        circuit = from_qasm(
            'OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncreg c[4];\ncx a[1],b[0];\n'
        )
        assert circuit.num_qubits == 4
        assert circuit[0].qubits == (1, 2)

    def test_barrier_bare_register_expands(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nbarrier q;\n')
        assert circuit[0].qubits == (0, 1, 2)

    def test_barrier_undeclared_register(self):
        with pytest.raises(QasmError, match="undeclared"):
            from_qasm('OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nbarrier r;\n')


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuit_round_trip_unitary(self, seed):
        circuit = random_circuit(3, 5, seed=seed)
        rebuilt = from_qasm(to_qasm(circuit))
        assert allclose_up_to_global_phase(circuit_unitary(rebuilt), circuit_unitary(circuit))

    def test_round_trip_preserves_counts(self, ghz5):
        ghz5.measure_all()
        rebuilt = from_qasm(to_qasm(ghz5))
        assert rebuilt.count_ops() == ghz5.count_ops()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_circuits(self, seed):
        circuit = random_circuit(4, 12, seed=seed, measure=seed % 2 == 0)
        _assert_same_circuit(from_qasm(to_qasm(circuit)), circuit)

    def test_edge_parameters(self):
        circuit = QuantumCircuit(1)
        for value in (0.0, -0.0, 5e-324, 1e-16, math.pi / 2, math.nextafter(math.pi / 2, 0.0)):
            circuit.rz(value, 0)
        _assert_same_circuit(from_qasm(to_qasm(circuit)), circuit)

    @pytest.mark.parametrize("family", ["qft", "qaoa", "twolocalrandom", "qpeinexact"])
    def test_compiled_preset_outputs(self, family):
        circuit = repro.benchmark_circuit(family, 4)
        for backend in ("qiskit-o1", "qiskit-o3", "tket-o1", "tket-o2"):
            result = repro.compile(circuit, backend=backend, device="ibmq_washington")
            _assert_same_circuit(from_qasm(to_qasm(result.circuit)), result.circuit)
            wire = repro.CompilationResult.from_dict(result.to_dict())
            assert wire.circuit.fingerprint() == result.circuit.fingerprint()


def _parity_values() -> list[float]:
    """``N*pi/D`` for denominators in and outside the table (N well beyond it),
    each with ±5e-13, ±2e-12 and ±1-ulp neighbours, plus the special values."""
    values = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]
    for denom in (1, 2, 3, 4, 6, 8, 16, 5, 7, 32):
        for num in range(-64 * denom, 64 * denom + 1):
            base = num * math.pi / denom
            values += [base, base + 5e-13, base - 5e-13, base + 2e-12, base - 2e-12]
            values += [math.nextafter(base, math.inf), math.nextafter(base, -math.inf)]
    return values


_PARITY_VALUES = _parity_values()


class TestParameterEncoding:
    def test_matches_the_candidate_scan(self):
        assert len(_PARITY_VALUES) > 75_000
        for value in _PARITY_VALUES:
            assert _format_param(value) == _scan_format_param(value), value

    def test_only_exact_fractions_snap(self):
        half_pi = math.pi / 2
        assert _format_param(half_pi) == "pi*1/2"
        assert _format_param(math.nextafter(half_pi, 0.0)) == repr(math.nextafter(half_pi, 0.0))
        assert _format_param(0.0) == "0"
        assert _format_param(-0.0) == "-0.0"
        assert _format_param(1e-16) == "1e-16"
        assert _format_param(5e-324) == "5e-324"
        assert _format_param(17 * math.pi) == repr(17 * math.pi)  # beyond the table

    def test_every_finite_value_round_trips_bitwise(self):
        for value in _PARITY_VALUES:
            if math.isfinite(value):
                text = _format_param(value)
                assert _bits(_eval_param(text)) == _bits(value), text
                assert _bits(_eval_only_param(text)) == _bits(value), text


class TestParameterDecoding:
    """The decoder's fast path accepts nothing the sanitiser rejected and reads
    every expression to the float the eval path gave."""

    HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'

    @pytest.mark.parametrize(
        "expr", ["nan", "inf", "-inf", "1_0", "01", "pi*01", "pi*1/0", "pi*x", "__import__", ""]
    )
    def test_rejected(self, expr):
        with pytest.raises(QasmError):
            _eval_only_param(expr)
        with pytest.raises(QasmError):
            _eval_param(expr)
        with pytest.raises(QasmError):
            from_qasm(self.HEADER + f"u({expr},0.5,0.5) q[0];\n")

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(QasmError):
            from_qasm(self.HEADER + "rz() q[0];\n")

    EXPRESSIONS = [
        "pi/4", "-pi/2", "2*pi/3", "1e-3", "pi*3/4", "pi*-5/16", "pi*7", "pi*0", "pi*-0",
        "0", "-0", "-0.0", "0.25", " 0.25 ", "1e+16", "5e-324", "1e999",
    ]

    @pytest.mark.parametrize("expr", EXPRESSIONS + ["(pi)/2"])
    def test_same_float_as_the_eval_path(self, expr):
        assert _bits(_eval_param(expr)) == _bits(_eval_only_param(expr))

    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_same_float_through_from_qasm(self, expr):
        rebuilt = from_qasm(self.HEADER + f"rz({expr}) q[0];\n")
        assert _bits(rebuilt[0].params[0]) == _bits(_eval_only_param(expr))
