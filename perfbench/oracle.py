"""Independent equivalence oracle: exact output distributions over classical bits.

Two circuits are equivalent for the benchmark when they produce the same
probability distribution over their classical bits.  That is the property a
compiler must preserve: it may relabel qubits (layout and routing), add
ancillas and change the gate set, but what gets measured into which clbit
must keep its distribution.

The oracle deliberately shares no code with the program under test: the gate
matrices below are built here from Pauli products and textbook definitions,
not taken from ``repro.circuit.gates`` or ``repro.simulation``.  Only the
circuit container is read (instruction name, qubits, clbits, params).

Simulation runs on the *active* qubits only (those some instruction touches),
so a circuit routed onto a 127-qubit device costs no more than its logical
width plus the ancillas routing used.  Measurements that are followed by
further operations on their qubit branch the state; terminal measurements
are read off the final amplitudes without branching.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

__all__ = ["OracleError", "distribution", "tv_distance", "check_equivalent"]

#: outputs whose distributions differ by more than this total-variation
#: distance are rejected (float round-off in resynthesised gates is ~1e-12)
TOLERANCE = 1e-6

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class OracleError(ValueError):
    """The oracle cannot evaluate a circuit (unknown gate, too wide)."""


def _rot(pauli: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta/2 P) for a Pauli product P (P @ P = I)."""
    return math.cos(theta / 2) * np.eye(pauli.shape[0]) - 1j * math.sin(theta / 2) * pauli


def _phase(lam: float) -> np.ndarray:
    return np.diag([1, cmath.exp(1j * lam)])


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s], [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]]
    )


def _controlled(u: np.ndarray) -> np.ndarray:
    """Control on the instruction's first qubit (the most significant index)."""
    n = u.shape[0]
    out = np.eye(2 * n, dtype=complex)
    out[n:, n:] = u
    return out


_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
_SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)

#: name -> (number of qubits, matrix builder taking the params)
_GATES = {
    "id": (1, lambda: _I),
    "x": (1, lambda: _X),
    "y": (1, lambda: _Y),
    "z": (1, lambda: _Z),
    "h": (1, lambda: _H),
    "s": (1, lambda: _phase(math.pi / 2)),
    "sdg": (1, lambda: _phase(-math.pi / 2)),
    "t": (1, lambda: _phase(math.pi / 4)),
    "tdg": (1, lambda: _phase(-math.pi / 4)),
    "sx": (1, lambda: _SX),
    "sxdg": (1, lambda: _SX.conj().T),
    "rx": (1, lambda t: _rot(_X, t)),
    "ry": (1, lambda t: _rot(_Y, t)),
    "rz": (1, lambda t: _rot(_Z, t)),
    "p": (1, _phase),
    "u1": (1, _phase),
    "u2": (1, lambda phi, lam: _u(math.pi / 2, phi, lam)),
    "u": (1, _u),
    "u3": (1, _u),
    "cx": (2, lambda: _controlled(_X)),
    "cy": (2, lambda: _controlled(_Y)),
    "cz": (2, lambda: _controlled(_Z)),
    "ch": (2, lambda: _controlled(_H)),
    "csx": (2, lambda: _controlled(_SX)),
    "cp": (2, lambda lam: _controlled(_phase(lam))),
    "crx": (2, lambda t: _controlled(_rot(_X, t))),
    "cry": (2, lambda t: _controlled(_rot(_Y, t))),
    "crz": (2, lambda t: _controlled(_rot(_Z, t))),
    "cu": (2, lambda t, phi, lam, g: _controlled(cmath.exp(1j * g) * _u(t, phi, lam))),
    "swap": (2, lambda: _SWAP),
    "iswap": (2, lambda: np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])),
    "ecr": (2, lambda: (np.kron(_I, _X) - np.kron(_X, _Y)) / math.sqrt(2)),
    "rxx": (2, lambda t: _rot(np.kron(_X, _X), t)),
    "ryy": (2, lambda t: _rot(np.kron(_Y, _Y), t)),
    "rzz": (2, lambda t: _rot(np.kron(_Z, _Z), t)),
    "rzx": (2, lambda t: _rot(np.kron(_Z, _X), t)),
    "ccx": (3, lambda: _controlled(_controlled(_X))),
    "ccz": (3, lambda: _controlled(_controlled(_Z))),
    "cswap": (3, lambda: _controlled(_SWAP)),
}

#: widest active register the oracle simulates (2**20 amplitudes per branch)
MAX_QUBITS = 20


@lru_cache(maxsize=4096)
def _matrix(name: str, params: tuple) -> np.ndarray:
    try:
        arity, build = _GATES[name]
    except KeyError:
        raise OracleError(f"oracle has no matrix for gate {name!r}") from None
    matrix = np.asarray(build(*params), dtype=complex)
    return matrix.reshape((2,) * (2 * arity))


def _apply(state: np.ndarray, matrix: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    k = len(axes)
    moved = np.tensordot(matrix, state, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(moved, list(range(k)), list(axes))


def _project(state: np.ndarray, axis: int, bit: int) -> tuple[np.ndarray, float]:
    """Collapse ``axis`` onto ``bit``; returns (renormalised state, probability)."""
    kept = np.zeros_like(state)
    index = [slice(None)] * state.ndim
    index[axis] = bit
    kept[tuple(index)] = state[tuple(index)]
    prob = float(np.vdot(kept, kept).real)
    if prob > 0:
        kept /= math.sqrt(prob)
    return kept, prob


def distribution(circuit) -> dict[int, float]:
    """Exact distribution over the circuit's clbits, keyed by the clbit integer.

    Clbit ``c`` is bit ``c`` of the key.  Probabilities below 1e-14 are dropped.
    """
    instructions = [inst for inst in circuit.instructions if inst.name != "barrier"]
    active = sorted({q for inst in instructions for q in inst.qubits})
    if len(active) > MAX_QUBITS:
        raise OracleError(f"{len(active)} active qubits exceed the oracle limit {MAX_QUBITS}")
    if any(c >= 62 for inst in instructions for c in inst.clbits):
        raise OracleError("the oracle keys outcomes by int64; clbit index too large")
    axis = {q: i for i, q in enumerate(active)}
    width = max(len(active), 1)

    # A measurement is terminal when nothing after it touches its qubit
    # (other measurements excepted); only non-terminal ones branch.
    # A terminal measurement that a later one overwrites has no effect.
    last_non_measure: dict[int, int] = {}
    last_write: dict[int, int] = {}
    for position, inst in enumerate(instructions):
        if inst.name != "measure":
            for q in inst.qubits:
                last_non_measure[q] = position
        for c in inst.clbits:
            last_write[c] = position

    state = np.zeros((2,) * width, dtype=complex)
    state[(0,) * width] = 1.0
    branches = [(state, 1.0, 0)]  # (state, probability, classical register)
    terminal: list[tuple[int, int]] = []  # (axis, clbit), in program order

    for position, inst in enumerate(instructions):
        name = inst.name
        axes = tuple(axis[q] for q in inst.qubits)
        if name == "measure":
            (q,), (c,) = inst.qubits, inst.clbits
            if last_non_measure.get(q, -1) < position:
                if last_write[c] == position:
                    terminal.append((axis[q], c))
                continue
            grown = []
            for st, weight, creg in branches:
                for bit in (0, 1):
                    collapsed, prob = _project(st, axis[q], bit)
                    if prob * weight > 1e-14:
                        value = (creg | (1 << c)) if bit else (creg & ~(1 << c))
                        grown.append((collapsed, weight * prob, value))
            branches = grown
        elif name == "reset":
            grown = []
            flip = _matrix("x", ())
            for st, weight, creg in branches:
                for bit in (0, 1):
                    collapsed, prob = _project(st, axes[0], bit)
                    if prob * weight > 1e-14:
                        if bit:
                            collapsed = _apply(collapsed, flip, axes)
                        grown.append((collapsed, weight * prob, creg))
            branches = grown
        else:
            matrix = _matrix(name, tuple(float(p) for p in inst.params))
            branches = [(_apply(st, matrix, axes), w, creg) for st, w, creg in branches]

    indices = np.arange(2**width)
    out: dict[int, float] = {}
    for st, weight, creg in branches:
        probs = (np.abs(st.reshape(-1)) ** 2) * weight
        keys = np.full(2**width, creg, dtype=np.int64)
        for ax, c in terminal:
            bits = (indices >> (width - 1 - ax)) & 1
            keys = np.where(bits == 1, keys | (1 << c), keys & ~(1 << c))
        for key, prob in zip(keys[probs > 1e-14], probs[probs > 1e-14]):
            out[int(key)] = out.get(int(key), 0.0) + float(prob)
    return out


def tv_distance(p: dict[int, float], q: dict[int, float]) -> float:
    """Total-variation distance between two distributions."""
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def check_equivalent(reference: dict[int, float], circuit) -> tuple[bool, float]:
    """(verdict, distance) of ``circuit`` against a reference distribution."""
    distance = tv_distance(reference, distribution(circuit))
    return distance <= TOLERANCE, distance
