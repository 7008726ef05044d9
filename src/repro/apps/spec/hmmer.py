"""456.hmmer — profile HMM sequence search (Viterbi dynamic programming).

The calibration kernel is a real plan7-style Viterbi pass over a seeded
profile HMM and query sequence, counting DP cell updates.  Dense
regular-stride array sweeps dominate: moderate heap tables, large
``anonymous`` DP matrices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.apps.spec.base import IterationProfile, SpecModel
from repro.errors import WorkloadError

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"


@dataclass
class ProfileHMM:
    """Match/insert emission + transition log-probabilities."""

    length: int
    match_emit: list[dict[str, float]]
    insert_emit: list[dict[str, float]]
    # transitions: mm, mi, md, im, ii, dm, dd
    trans: list[dict[str, float]]


def random_hmm(length: int, seed: int) -> ProfileHMM:
    """A seeded, properly normalised profile HMM."""
    rng = random.Random(seed)

    def emission() -> dict[str, float]:
        weights = [rng.random() + 0.05 for _ in ALPHABET]
        total = sum(weights)
        return {a: math.log(w / total) for a, w in zip(ALPHABET, weights)}

    def transitions() -> dict[str, float]:
        raw = {k: rng.random() + 0.1 for k in ("mm", "mi", "md")}
        total = sum(raw.values())
        out = {k: math.log(v / total) for k, v in raw.items()}
        out["im"] = math.log(0.6)
        out["ii"] = math.log(0.4)
        out["dm"] = math.log(0.7)
        out["dd"] = math.log(0.3)
        return out

    return ProfileHMM(
        length=length,
        match_emit=[emission() for _ in range(length + 1)],
        insert_emit=[emission() for _ in range(length + 1)],
        trans=[transitions() for _ in range(length + 1)],
    )


def random_sequence(length: int, seed: int) -> str:
    """A seeded query sequence."""
    rng = random.Random(seed)
    return "".join(rng.choice(ALPHABET) for _ in range(length))


@dataclass
class ViterbiResult:
    """Best path score and the DP work performed."""

    score: float
    cell_updates: int
    matrix_cells: int


def viterbi(hmm: ProfileHMM, seq: str) -> ViterbiResult:
    """Plan7 Viterbi (match/insert/delete states), log-space."""
    neg_inf = float("-inf")
    L, M = len(seq), hmm.length
    vm = [[neg_inf] * (M + 1) for _ in range(L + 1)]
    vi = [[neg_inf] * (M + 1) for _ in range(L + 1)]
    vd = [[neg_inf] * (M + 1) for _ in range(L + 1)]
    vm[0][0] = 0.0
    updates = 0
    for i in range(1, L + 1):
        res = seq[i - 1]
        for j in range(1, M + 1):
            t = hmm.trans[j - 1]
            best_m = max(
                vm[i - 1][j - 1] + t["mm"],
                vi[i - 1][j - 1] + t["im"],
                vd[i - 1][j - 1] + t["dm"],
            )
            vm[i][j] = best_m + hmm.match_emit[j][res]
            best_i = max(vm[i - 1][j] + t["mi"], vi[i - 1][j] + t["ii"])
            vi[i][j] = best_i + hmm.insert_emit[j][res]
            best_d = max(vm[i][j - 1] + t["md"], vd[i][j - 1] + t["dd"])
            vd[i][j] = best_d
            updates += 3
    score = max(vm[L][j] for j in range(1, M + 1))
    return ViterbiResult(score, updates, (L + 1) * (M + 1) * 3)


class HmmerModel(SpecModel):
    """456.hmmer."""

    name = "456.hmmer"
    input_files = (("nph3.hmm", 1024 * 1024), ("swiss41.fa", 3 * 1024 * 1024))
    binary_text_kb = 220
    binary_data_kb = 128
    heap_bytes = 512 * 1024
    anon_bytes = 24 * 1024 * 1024
    insts_per_op = 9

    CAL_HMM_LEN = 40
    CAL_SEQ_LEN = 120
    #: One simulated iteration = this many calibration-sized sequences.
    SEQS_PER_ITERATION = 220

    def calibrate(self) -> IterationProfile:
        hmm = random_hmm(self.CAL_HMM_LEN, self.seed)
        seq = random_sequence(self.CAL_SEQ_LEN, self.seed + 1)
        result = viterbi(hmm, seq)
        if not math.isfinite(result.score):
            raise WorkloadError("hmmer calibration produced non-finite score")
        scale = self.SEQS_PER_ITERATION
        insts = result.cell_updates * self.insts_per_op * scale
        return IterationProfile(
            insts=insts,
            heap_refs=result.cell_updates * scale // 14,
            anon_refs=result.cell_updates * scale // 3,
            stack_refs=result.cell_updates * scale // 40,
        )
