"""999.specrand — SPEC's random-number sanity benchmark.

The calibration kernel is the actual specrand generator: repeated draws
from a C ``rand()``-style LCG.  Nearly pure register/ALU work — the
flattest possible memory profile, which is exactly its role in the paper's
figures (app binary + OS kernel and almost nothing else).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.spec.base import IterationProfile, SpecModel
from repro.errors import WorkloadError

LCG_MULTIPLIER = 1103515245
LCG_INCREMENT = 12345
LCG_MODULUS = 1 << 31


@dataclass
class LcgState:
    """The generator state."""

    seed: int
    draws: int = 0

    def next_value(self) -> int:
        """One rand() draw."""
        self.seed = (self.seed * LCG_MULTIPLIER + LCG_INCREMENT) % LCG_MODULUS
        self.draws += 1
        return self.seed >> 16

    def sequence(self, n: int) -> list[int]:
        """The next *n* draws."""
        return [self.next_value() for _ in range(n)]


def mean_of_draws(values: list[int]) -> float:
    """Sample mean, used by tests to sanity-check uniformity."""
    return sum(values) / len(values) if values else 0.0


class SpecrandModel(SpecModel):
    """999.specrand."""

    name = "999.specrand"
    input_files = ()
    binary_text_kb = 20
    binary_data_kb = 16
    heap_bytes = 32 * 1024
    anon_bytes = 160 * 1024
    insts_per_op = 8

    CAL_DRAWS = 4_096
    DRAW_SCALE = 2_000

    def calibrate(self) -> IterationProfile:
        state = LcgState(seed=self.seed + 1)
        values = state.sequence(self.CAL_DRAWS)
        mean = mean_of_draws(values)
        # A uniform 15-bit generator must average near 2^14.
        if not (0.8 * 16_384 < mean < 1.2 * 16_384):
            raise WorkloadError(f"specrand LCG looks non-uniform: mean={mean}")
        ops = state.draws
        scale = self.DRAW_SCALE
        return IterationProfile(
            insts=ops * self.insts_per_op * scale,
            heap_refs=ops * scale // 400,
            anon_refs=ops * scale // 300,
            stack_refs=ops * scale // 150,
        )
