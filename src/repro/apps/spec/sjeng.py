"""458.sjeng — game-tree search (alpha-beta).

The calibration kernel is a real negamax alpha-beta search over a small
deterministic board game ("pick-a-pile" Nim variant with positional
scoring) that exercises the shape of chess search: deep recursion,
move generation, evaluation at the leaves.  Every calibration checks the
alpha-beta result against an exhaustive, unpruned minimax that memoizes
repeated positions in a transposition table, so the check costs
milliseconds.  sjeng's footprint is stack-heavy (recursion) with
small-table heap traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.spec.base import IterationProfile, SpecModel
from repro.errors import WorkloadError


@dataclass
class SearchStats:
    """Node and operation counts from one search."""

    nodes: int = 0
    evals: int = 0
    cutoffs: int = 0
    moves_generated: int = 0


def legal_moves(piles: tuple[int, ...]) -> list[tuple[int, int]]:
    """(pile index, take count) pairs; up to 3 stones per move."""
    moves = []
    for i, n in enumerate(piles):
        for take in range(1, min(n, 3) + 1):
            moves.append((i, take))
    return moves


def apply_move(piles: tuple[int, ...], move: tuple[int, int]) -> tuple[int, ...]:
    """Board after *move*."""
    i, take = move
    return piles[:i] + (piles[i] - take,) + piles[i + 1 :]


def evaluate(piles: tuple[int, ...]) -> int:
    """Positional evaluation: xor-sum heuristic plus material."""
    xor = 0
    for n in piles:
        xor ^= n
    return (1 if xor else -1) * (1 + sum(piles) % 7)


def negamax(
    piles: tuple[int, ...],
    depth: int,
    alpha: int,
    beta: int,
    stats: SearchStats,
) -> int:
    """Alpha-beta negamax; terminal = no stones or depth exhausted."""
    stats.nodes += 1
    moves = legal_moves(piles)
    stats.moves_generated += len(moves)
    if not moves:
        return -100  # side to move has lost
    if depth == 0:
        stats.evals += 1
        return evaluate(piles)
    best = -(10**9)
    for move in moves:
        score = -negamax(apply_move(piles, move), depth - 1, -beta, -alpha, stats)
        if score > best:
            best = score
        if best > alpha:
            alpha = best
        if alpha >= beta:
            stats.cutoffs += 1
            break
    return best


def minimax_reference(piles: tuple[int, ...], depth: int) -> int:
    """Exhaustive minimax, the oracle alpha-beta is checked against.

    Every move is searched, with no pruning.  A position reached by
    different move orders has one value per remaining depth, so results
    are memoized per call in a transposition table keyed by
    ``(piles, depth)``.
    """
    table: dict[tuple[tuple[int, ...], int], int] = {}

    def search(piles: tuple[int, ...], depth: int) -> int:
        key = (piles, depth)
        value = table.get(key)
        if value is None:
            moves = legal_moves(piles)
            if not moves:
                value = -100
            elif depth == 0:
                value = evaluate(piles)
            else:
                value = max(-search(apply_move(piles, m), depth - 1) for m in moves)
            table[key] = value
        return value

    return search(piles, depth)


class SjengModel(SpecModel):
    """458.sjeng."""

    name = "458.sjeng"
    input_files = (("sjeng.depth", 150 * 1024),)
    binary_text_kb = 160
    binary_data_kb = 96
    heap_bytes = 2 * 1024 * 1024
    anon_bytes = 180 * 1024  # transposition table (just over the threshold)
    insts_per_op = 11

    CAL_POSITION = (5, 6, 4, 5)
    CAL_DEPTH = 6
    #: Positions searched per simulated iteration.
    POSITIONS_PER_ITERATION = 40

    def calibrate(self) -> IterationProfile:
        stats = SearchStats()
        score = negamax(self.CAL_POSITION, self.CAL_DEPTH, -(10**9), 10**9, stats)
        reference = minimax_reference(self.CAL_POSITION, self.CAL_DEPTH)
        if score != reference:
            raise WorkloadError(
                f"sjeng alpha-beta ({score}) disagrees with minimax ({reference})"
            )
        scale = self.POSITIONS_PER_ITERATION
        ops = stats.nodes * 4 + stats.moves_generated + stats.evals * 6
        return IterationProfile(
            insts=ops * self.insts_per_op * scale,
            heap_refs=stats.moves_generated * scale // 4,
            anon_refs=stats.nodes * scale // 3,  # transposition probes
            stack_refs=stats.nodes * scale,  # recursion frames
        )
