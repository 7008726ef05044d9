"""Failure injection: the stack must fail loudly, not silently."""

import pytest

from repro.errors import (
    AddressSpaceError,
    BinderError,
    LoaderError,
    ReproError,
    SegmentationFault,
    ServiceError,
    WorkloadError,
)


def test_error_hierarchy_is_catchable_at_root():
    for exc in (AddressSpaceError, SegmentationFault, LoaderError,
                BinderError, ServiceError, WorkloadError):
        assert issubclass(exc, ReproError)


def test_reference_to_unmapped_address_faults(system):
    """A workload bug (dangling address) must raise, not misattribute."""
    from repro.sim.ops import ExecBlock

    def buggy(task):
        yield ExecBlock(0x0100_0000, 10)  # nothing mapped there

    system.kernel.spawn_process("buggy", behavior=buggy)
    with pytest.raises(SegmentationFault):
        system.run_for(1_000_000)


def test_data_reference_to_freed_buffer_faults(system):
    from repro.libs import bionic
    from repro.sim.ops import ExecBlock
    from repro.kernel.syscalls import kernel_text_addr

    proc = system.kernel.spawn_process("uaf")
    addr = bionic.alloc_buffer(proc, 1 << 20)  # anonymous mapping
    vma = proc.mm.find_vma(addr)
    proc.mm.munmap(vma)

    def use_after_free(task):
        yield ExecBlock(kernel_text_addr("x"), 10, ((addr, 1),))

    system.kernel.set_main_behavior(proc, use_after_free)
    with pytest.raises(SegmentationFault):
        system.run_for(1_000_000)


def test_unknown_benchmark_rejected():
    from repro.core import SuiteRunner

    with pytest.raises(WorkloadError):
        SuiteRunner().run("no.such.benchmark")


def test_transact_to_unregistered_service():
    from repro.android.binder import ServiceRegistry

    with pytest.raises(BinderError):
        ServiceRegistry().lookup("ghost.service")


def test_binder_thread_without_handler_raises(system):
    from repro.android.binder import BinderHost, Transaction
    from repro.libs.registry import resolve

    server = system.kernel.spawn_process("srv")
    system.kernel.loader.map_many(
        server, resolve(("linker", "libc.so", "libbinder.so", "libutils.so"))
    )
    host = BinderHost(system.kernel, server, nthreads=1)
    host.queue.append(
        Transaction("nothandled", "x", 8, server, None, oneway=True)
    )
    host.waitq.wake_all()
    with pytest.raises(BinderError):
        system.run_for(10_000_000)


def test_address_space_exhaustion_raises():
    from repro.kernel.addrspace import AddressSpace

    mm = AddressSpace("greedy")
    with pytest.raises(AddressSpaceError):
        # A single mapping larger than the whole mmap window.
        mm.mmap(0xF000_0000, "too-big")


def test_workload_missing_file_is_workload_error():
    from repro.apps.music import MusicMp3Model

    model = MusicMp3Model(seed=1)
    with pytest.raises(WorkloadError):
        model.file("album-track.mp3")


def test_spec_calibration_guards_fire(monkeypatch):
    """Calibration sanity checks raise a named error when the algorithm
    is broken, so the CLI reports ``error: ...`` instead of a traceback."""
    import repro.apps.spec.bzip2 as bz
    import repro.apps.spec.sjeng as sj

    # Sabotage: decompress must round-trip or calibrate() raises.
    monkeypatch.setattr(bz, "decompress", lambda coded: b"corrupted")
    with pytest.raises(WorkloadError, match="round-trip"):
        bz.Bzip2Model(seed=0).calibrate()

    # Sabotage: an alpha-beta that cuts off one point early prunes a
    # sibling that would have raised the score; the self-check against
    # exhaustive minimax must catch it.
    def early_cutoff(piles, depth, alpha, beta, stats):
        stats.nodes += 1
        moves = sj.legal_moves(piles)
        stats.moves_generated += len(moves)
        if not moves:
            return -100
        if depth == 0:
            stats.evals += 1
            return sj.evaluate(piles)
        best = -(10**9)
        for move in moves:
            score = -early_cutoff(sj.apply_move(piles, move), depth - 1,
                                  -beta, -alpha, stats)
            best = max(best, score)
            alpha = max(alpha, best)
            if alpha >= beta - 1:
                break
        return best

    monkeypatch.setattr(sj, "negamax", early_cutoff)
    with pytest.raises(WorkloadError, match="disagrees with minimax"):
        sj.SjengModel(seed=0).calibrate()


def test_broken_spec_kernel_exits_cleanly(monkeypatch, capsys):
    """A failed calibration self-check ends the CLI in ``error: ...`` and
    exit 2, not a traceback."""
    import repro.apps.spec.bzip2 as bz
    from repro.__main__ import main
    from repro.apps.spec.base import SpecModel

    monkeypatch.setattr(SpecModel, "_profiles", {})  # force a recalibration
    monkeypatch.setattr(bz, "decompress", lambda coded: b"corrupted")
    assert main(["--duration", "0.05", "--settle-ms", "10",
                 "run", "401.bzip2"]) == 2
    assert "error: bzip2 calibration kernel failed" in capsys.readouterr().err
