"""462.libquantum — quantum register simulation (Shor's algorithm core).

The calibration kernel simulates a small quantum register for real:
Hadamard and controlled-NOT gates over a dense complex state vector, with
norm checked after every sweep.  The footprint is a textbook streaming
sweep over one large ``anonymous`` array — libquantum's signature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from repro.apps.spec.base import IterationProfile, SpecModel
from repro.errors import WorkloadError

SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class QuantumRegister:
    """Dense state vector over *qubits* qubits."""

    qubits: int
    amplitudes: list[complex]
    ops: int = 0

    @classmethod
    def zero_state(cls, qubits: int) -> "QuantumRegister":
        amps = [0j] * (1 << qubits)
        amps[0] = 1 + 0j
        return cls(qubits, amps)

    def hadamard(self, target: int) -> None:
        """Apply H to *target*."""
        bit = 1 << target
        for idx in range(len(self.amplitudes)):
            if idx & bit:
                continue
            a = self.amplitudes[idx]
            b = self.amplitudes[idx | bit]
            self.amplitudes[idx] = (a + b) * SQRT_HALF
            self.amplitudes[idx | bit] = (a - b) * SQRT_HALF
            self.ops += 4
    def cnot(self, control: int, target: int) -> None:
        """Apply CNOT(control -> target)."""
        cbit, tbit = 1 << control, 1 << target
        for idx in range(len(self.amplitudes)):
            if (idx & cbit) and not (idx & tbit):
                j = idx | tbit
                self.amplitudes[idx], self.amplitudes[j] = (
                    self.amplitudes[j],
                    self.amplitudes[idx],
                )
                self.ops += 2

    def norm(self) -> float:
        """L2 norm of the state (must stay 1)."""
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes))

    def probability(self, idx: int) -> float:
        """Measurement probability of basis state *idx*."""
        return abs(self.amplitudes[idx]) ** 2


def entangle_sweep(reg: QuantumRegister) -> None:
    """One algorithm step: H on every qubit then a CNOT chain."""
    for q in range(reg.qubits):
        reg.hadamard(q)
    for q in range(reg.qubits - 1):
        reg.cnot(q, q + 1)


class LibquantumModel(SpecModel):
    """462.libquantum."""

    name = "462.libquantum"
    input_files = ()
    binary_text_kb = 50
    binary_data_kb = 32
    heap_bytes = 96 * 1024
    anon_bytes = 32 * 1024 * 1024  # the big state vector
    insts_per_op = 12

    CAL_QUBITS = 10
    #: Sweeps per simulated iteration (the real register is 2^21 amplitudes).
    SWEEP_SCALE = 600

    def calibrate(self) -> IterationProfile:
        reg = QuantumRegister.zero_state(self.CAL_QUBITS)
        entangle_sweep(reg)
        norm = reg.norm()
        if abs(norm - 1.0) > 1e-9:
            raise WorkloadError(f"libquantum lost unitarity: norm={norm}")
        ops = reg.ops
        scale = self.SWEEP_SCALE
        return IterationProfile(
            insts=ops * self.insts_per_op * scale,
            heap_refs=ops * scale // 80,
            anon_refs=ops * scale,  # every op touches the state vector
            stack_refs=ops * scale // 160,
        )
