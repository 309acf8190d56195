"""Minimal OpenQASM 2 serialisation for :class:`QuantumCircuit`.

Only the subset needed to round-trip circuits produced by this library is
supported: quantum/classical register declarations, the gates listed in
:mod:`repro.circuit.gates`, barriers and measurements.

``from_qasm`` sits on a trust boundary — the HTTP gateway feeds it text sent
by arbitrary network clients — so every malformed input must surface as a
:class:`QasmError` (a ``ValueError`` subclass) with the offending line, never
as a bare ``KeyError``/``IndexError`` leaking parser internals.
"""

from __future__ import annotations

import math
import re

from .circuit import QuantumCircuit
from .gates import GATE_SPECS

__all__ = ["QasmError", "to_qasm", "from_qasm"]

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

# Gate names that differ between this library and qelib1.
_TO_QASM_NAME = {"p": "u1", "xx_plus_yy": "xx_plus_yy"}
_FROM_QASM_NAME = {"u1": "p", "cu1": "cp", "cu3": "cu3", "id": "id", "iden": "id"}


class QasmError(ValueError):
    """Malformed or unsupported OpenQASM 2 input.

    Raised for every parse-level problem — syntax errors, undeclared or
    duplicate registers, out-of-range qubit/clbit indices, unsupported gates,
    bad parameter expressions — so callers at trust boundaries can catch one
    exception type and turn it into a structured error response.
    """


#: denominators of the pi-fractions ``to_qasm`` writes, tried in this order
_PI_DENOMS = (1, 2, 3, 4, 6, 8, 16)


def _format_param(value: float) -> str:
    """Render a parameter so that :func:`_eval_param` reads back the same float.

    ``pi*N/D`` (``pi*N`` for ``D == 1``) is written only when ``value`` *is*
    ``(pi * N) / D`` for a ``D`` in :data:`_PI_DENOMS` and ``|N| <= 16 * D``;
    ``0`` only for ``+0.0``; everything else as ``repr``.  Within one
    denominator the candidates lie ``pi / D`` apart, so rounding
    ``value * D / pi`` names the only ``N`` worth testing.
    """
    value = float(value)
    if abs(value) < 17 * math.pi:  # also False for nan and inf
        for denom in _PI_DENOMS:
            num = round(value * denom / math.pi)
            if num and abs(num) <= 16 * denom and value == math.pi * num / denom:
                return f"pi*{num}/{denom}" if denom != 1 else f"pi*{num}"
    if value == 0.0 and math.copysign(1.0, value) > 0:
        return "0"
    return repr(value)


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise a circuit to an OpenQASM 2 string."""
    lines = [_HEADER.rstrip("\n")]
    lines.append(f"qreg q[{max(circuit.num_qubits, 1)}];")
    lines.append(f"creg c[{max(circuit.num_clbits, 1)}];")
    for instr in circuit:
        name = instr.name
        if name == "barrier":
            qubits = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"barrier {qubits};" if qubits else "barrier q;")
            continue
        if name == "measure":
            q = instr.qubits[0]
            c = instr.clbits[0] if instr.clbits else q
            lines.append(f"measure q[{q}] -> c[{c}];")
            continue
        params = ""
        if instr.params:
            params = "(" + ",".join(_format_param(p) for p in instr.params) + ")"
        qubits = ",".join(f"q[{q}]" for q in instr.qubits)
        lines.append(f"{_TO_QASM_NAME.get(name, name)}{params} {qubits};")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:\((?P<params>[^)]*)\))?\s*"
    r"(?P<args>[^;]*);"
)

_REG_DECL_RE = re.compile(r"^(?P<kind>qreg|creg)\s+(?P<name>\w+)\s*\[(?P<size>\d+)\]\s*;$")
_ARG_RE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\[(?P<index>\d+)\])?$")
_MEASURE_RE = re.compile(
    r"^measure\s+(?P<qreg>\w+)\s*\[(?P<qidx>\d+)\]\s*->\s*(?P<creg>\w+)\s*\[(?P<cidx>\d+)\]\s*;$"
)


#: the two shapes ``to_qasm`` writes: ``pi*N[/D]`` and a ``repr``-style float.
#: Numerals are capped at 9 digits so ``int`` -> ``float`` cannot overflow;
#: longer ones take the ``eval`` path, which reports the error.
_PI_FRACTION_RE = re.compile(r"pi\*(-?(?:0|[1-9][0-9]{0,8}))(?:/([1-9][0-9]{0,8}))?")
_FLOAT_RE = re.compile(r"0|-?(?:(?:0|[1-9][0-9]*)\.[0-9]+|[1-9](?:\.[0-9]+)?e[+-][0-9]+)")


def _eval_param(expr: str) -> float:
    """Evaluate a QASM parameter expression (numbers, pi, + - * /).

    What :func:`to_qasm` writes is read without ``eval``: ``pi*N/D`` becomes
    ``(pi * N) / D`` and a finite float literal goes through ``float`` —
    the same floats ``eval`` gives.  Anything else takes the sanitised
    ``eval``.
    """
    original = expr.strip()
    match = _PI_FRACTION_RE.fullmatch(original)
    if match:
        num, denom = match.groups()
        return math.pi * int(num) / int(denom or 1)
    if _FLOAT_RE.fullmatch(original):
        value = float(original)
        if math.isfinite(value):
            return value
    expr = original.replace("pi", repr(math.pi))
    if not re.fullmatch(r"[0-9eE\.\+\-\*/\(\) ]+", expr):
        raise QasmError(f"unsupported parameter expression: {original!r}")
    try:
        return float(eval(expr, {"__builtins__": {}}, {}))  # noqa: S307 - sanitised above
    except Exception as exc:
        raise QasmError(f"invalid parameter expression {original!r}: {exc}") from None


class _Registers:
    """Declared registers of one kind (quantum or classical), with offsets."""

    def __init__(self, kind: str):
        self.kind = kind
        self.offsets: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.total = 0

    def declare(self, name: str, size: int, line: str) -> None:
        if name in self.offsets:
            raise QasmError(f"duplicate register name {name!r}: {line!r}")
        self.offsets[name] = (self.total, size)
        self.total += size

    def resolve(self, name: str, index: int, line: str) -> int:
        entry = self.offsets.get(name)
        if entry is None:
            raise QasmError(
                f"undeclared {self.kind} register {name!r} "
                f"(declared: {sorted(self.offsets) or 'none'}): {line!r}"
            )
        offset, size = entry
        if not 0 <= index < size:
            raise QasmError(
                f"index {index} out of range for {self.kind} register "
                f"{name}[{size}]: {line!r}"
            )
        return offset + index

    def expand(self, name: str, line: str) -> list[int]:
        """Every bit of one register, in order (used by bare-register barriers)."""
        entry = self.offsets.get(name)
        if entry is None:
            raise QasmError(
                f"undeclared {self.kind} register {name!r} "
                f"(declared: {sorted(self.offsets) or 'none'}): {line!r}"
            )
        offset, size = entry
        return list(range(offset, offset + size))


def _parse_gate_args(args: str, qregs: _Registers, line: str) -> list[int]:
    """Resolve comma-separated ``reg[idx]`` gate operands to flat qubit indices."""
    qubits: list[int] = []
    for arg in args.split(","):
        arg = arg.strip()
        if not arg:
            raise QasmError(f"empty operand in QASM line: {line!r}")
        match = _ARG_RE.match(arg)
        if not match:
            raise QasmError(f"cannot parse operand {arg!r}: {line!r}")
        if match.group("index") is None:
            raise QasmError(
                f"register broadcast ({arg!r} without an index) is not "
                f"supported here: {line!r}"
            )
        qubits.append(qregs.resolve(match.group("name"), int(match.group("index")), line))
    return qubits


def from_qasm(text: str) -> QuantumCircuit:
    """Parse an OpenQASM 2 string (the subset produced by :func:`to_qasm`).

    Raises :class:`QasmError` on malformed input: undeclared or duplicate
    registers, out-of-range indices, unknown gates, or unparseable lines.
    """
    if not isinstance(text, str):
        raise QasmError(f"QASM input must be a string, got {type(text).__name__}")
    qregs = _Registers("quantum")
    cregs = _Registers("classical")
    body: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if not line:
            continue
        if line.startswith(("OPENQASM", "include")):
            continue
        match = _REG_DECL_RE.match(line)
        if match:
            if body:
                raise QasmError(f"register declared after first statement: {line!r}")
            regs = qregs if match.group("kind") == "qreg" else cregs
            # qreg and creg share the QASM identifier namespace: a creg named
            # like an existing qreg (or vice versa) is a duplicate too.
            other = cregs if regs is qregs else qregs
            if match.group("name") in other.offsets:
                raise QasmError(f"duplicate register name {match.group('name')!r}: {line!r}")
            regs.declare(match.group("name"), int(match.group("size")), line)
            continue
        if line.startswith(("qreg", "creg")):
            raise QasmError(f"cannot parse register declaration: {line!r}")
        body.append(line)

    circuit = QuantumCircuit(qregs.total, cregs.total or None)
    for line in body:
        if line.startswith("measure"):
            match = _MEASURE_RE.match(line)
            if not match:
                raise QasmError(f"cannot parse measurement: {line!r}")
            qubit = qregs.resolve(match.group("qreg"), int(match.group("qidx")), line)
            clbit = cregs.resolve(match.group("creg"), int(match.group("cidx")), line)
            circuit.measure(qubit, clbit)
            continue
        match = _TOKEN_RE.match(line)
        if not match:
            raise QasmError(f"cannot parse QASM line: {line!r}")
        name = match.group("name").lower()
        name = _FROM_QASM_NAME.get(name, name)
        args = (match.group("args") or "").strip()
        if name == "barrier":
            qubits: list[int] = []
            for arg in args.split(",") if args else []:
                arg = arg.strip()
                arg_match = _ARG_RE.match(arg)
                if not arg_match:
                    raise QasmError(f"cannot parse operand {arg!r}: {line!r}")
                if arg_match.group("index") is None:
                    qubits.extend(qregs.expand(arg_match.group("name"), line))
                else:
                    qubits.append(
                        qregs.resolve(
                            arg_match.group("name"), int(arg_match.group("index")), line
                        )
                    )
            circuit.barrier(*qubits)
            continue
        params_text = match.group("params")
        params = (
            [_eval_param(p) for p in params_text.split(",")] if params_text else []
        )
        if name == "cu3":
            name, params = "cu", params + [0.0]
        if name not in GATE_SPECS:
            raise QasmError(f"unsupported gate in QASM input: {name!r}")
        if not args:
            raise QasmError(f"gate {name!r} has no operands: {line!r}")
        qubits = _parse_gate_args(args, qregs, line)
        try:
            circuit.append(name, qubits, params)
        except ValueError as exc:
            raise QasmError(f"{exc}: {line!r}") from None
    return circuit
