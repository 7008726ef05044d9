"""401.bzip2 — block compression.

The calibration kernel is a real (if simplified) block compressor in the
bzip2 family: run-length encoding, move-to-front transform, and a
first-order entropy model standing in for the Huffman stage.  It round-
trips (tests verify), and its counted operations drive the simulated
footprint: large block buffers in ``anonymous``, small tables on the
``heap``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.apps.spec.base import IterationProfile, SpecModel
from repro.errors import WorkloadError

CALIBRATION_BLOCK = 8 * 1024
#: Bytes of input each simulated iteration represents.
SIM_BLOCK = 900 * 1024


@dataclass
class OpCounter:
    """Operation counts gathered while the algorithm runs."""

    reads: int = 0
    writes: int = 0
    compares: int = 0


def make_test_block(size: int, seed: int = 0) -> bytes:
    """Semi-compressible data: runs + structured text + noise."""
    rng = random.Random(seed)
    out = bytearray()
    words = [b"the ", b"quick", b"brown ", b"fox", b"jumps "]
    while len(out) < size:
        choice = rng.random()
        if choice < 0.4:
            out += bytes([rng.randrange(256)]) * rng.randint(4, 40)
        elif choice < 0.8:
            out += rng.choice(words)
        else:
            out += bytes(rng.randrange(256) for _ in range(rng.randint(2, 10)))
    return bytes(out[:size])


def rle_encode(data: bytes, counter: OpCounter) -> list[tuple[int, int]]:
    """Run-length encode into (byte, run) pairs."""
    runs: list[tuple[int, int]] = []
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        run = 1
        counter.reads += 1
        while i + run < n and data[i + run] == byte and run < 255:
            counter.reads += 1
            counter.compares += 1
            run += 1
        runs.append((byte, run))
        counter.writes += 1
        i += run
    return runs


def rle_decode(runs: list[tuple[int, int]]) -> bytes:
    """Invert :func:`rle_encode`."""
    out = bytearray()
    for byte, run in runs:
        out += bytes([byte]) * run
    return bytes(out)


def mtf_encode(symbols: list[int], counter: OpCounter) -> list[int]:
    """Move-to-front transform over the RLE symbol stream."""
    table = list(range(256))
    out: list[int] = []
    for sym in symbols:
        idx = table.index(sym)
        counter.compares += idx + 1
        counter.reads += idx + 1
        out.append(idx)
        counter.writes += 1
        table.pop(idx)
        table.insert(0, sym)
    return out


def mtf_decode(indices: list[int]) -> list[int]:
    """Invert :func:`mtf_encode`."""
    table = list(range(256))
    out: list[int] = []
    for idx in indices:
        sym = table.pop(idx)
        out.append(sym)
        table.insert(0, sym)
    return out


def entropy_bits(indices: list[int], counter: OpCounter) -> float:
    """First-order entropy of the MTF output (the coding stage's size)."""
    if not indices:
        return 0.0
    freq: dict[int, int] = {}
    for idx in indices:
        freq[idx] = freq.get(idx, 0) + 1
        counter.writes += 1
    total = len(indices)
    bits = 0.0
    for count in freq.values():
        p = count / total
        bits -= count * math.log2(p)
        counter.reads += 1
    return bits


def compress(data: bytes, counter: OpCounter | None = None) -> dict:
    """Compress a block; returns the coded representation + stats."""
    counter = counter if counter is not None else OpCounter()
    runs = rle_encode(data, counter)
    symbols = [b for b, _ in runs]
    indices = mtf_encode(symbols, counter)
    bits = entropy_bits(indices, counter)
    return {
        "runs": [r for _, r in runs],
        "indices": indices,
        "coded_bits": bits,
        "original_size": len(data),
        "counter": counter,
    }


def decompress(coded: dict) -> bytes:
    """Invert :func:`compress` (entropy stage is size-only, not coded)."""
    symbols = mtf_decode(coded["indices"])
    runs = list(zip(symbols, coded["runs"]))
    return rle_decode(runs)


class Bzip2Model(SpecModel):
    """401.bzip2."""

    name = "401.bzip2"
    input_files = (("input.source", 5 * 1024 * 1024),)
    binary_text_kb = 140
    binary_data_kb = 96
    heap_bytes = 256 * 1024
    anon_bytes = 8 * 1024 * 1024
    insts_per_op = 7

    def calibrate(self) -> IterationProfile:
        block = make_test_block(CALIBRATION_BLOCK, seed=self.seed)
        coded = compress(block)
        if decompress(coded) != block:
            raise WorkloadError("bzip2 calibration kernel failed to round-trip")
        counter: OpCounter = coded["counter"]
        scale = SIM_BLOCK / CALIBRATION_BLOCK
        ops = counter.reads + counter.writes + counter.compares
        insts = int(ops * self.insts_per_op * scale)
        # Block buffers are the big anonymous arrays; MTF table is heap.
        return IterationProfile(
            insts=insts,
            heap_refs=int(counter.compares * scale / 18),
            anon_refs=int((counter.reads + counter.writes) * scale / 14),
            stack_refs=int(ops * scale / 220),
        )
