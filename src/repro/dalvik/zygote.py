"""Zygote: the Dalvik process factory.

Zygote boots once, preloads the framework (classes + resources) and then
serves fork requests.  Children inherit its mapped libraries and VM arenas
via address-space clone; they start life under the comm ``app_process``
(the zygote binary) and only take their package name after specialisation
— which is why the paper's process figures show an ``app_process`` slice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.dalvik.dex import DexFile, map_dex
from repro.dalvik.heap import gc_thread, heap_worker_thread, idle_vm_thread
from repro.dalvik.jit import compiler_thread
from repro.dalvik.vm import DalvikContext
from repro.libs import regions
from repro.libs.object import SharedObject
from repro.libs.registry import (
    APP_COMMON_LIBS,
    DALVIK_RUNTIME_LIBS,
    GRAPHICS_LIBS,
    MEDIA_CLIENT_LIBS,
    resolve,
    run_ctors,
)
from repro.libs.skia import decode_image
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import seconds

if TYPE_CHECKING:
    from repro.kernel.task import Process, Task
    from repro.sim.system import System

#: Libraries preloaded into zygote (inherited by every app).
ZYGOTE_LIBS: tuple[str, ...] = (
    DALVIK_RUNTIME_LIBS + GRAPHICS_LIBS + MEDIA_CLIENT_LIBS + APP_COMMON_LIBS
)

#: Framework classes resolved during preload.
PRELOAD_CLASSES = 1_800


class _Specialised:
    """Post-fork specialisation prologue + the app's main behaviour."""

    def __init__(
        self,
        child: "Process",
        ctx: DalvikContext,
        extra_libs: tuple[str, ...],
        full_name: str,
        main_behavior: Callable[["Task"], Iterator[Op]],
    ) -> None:
        self.child = child
        self.ctx = ctx
        self.extra_libs = extra_libs
        self.full_name = full_name
        self.main_behavior = main_behavior

    def __call__(self, task: "Task") -> Iterator[Op]:
        # Post-fork specialisation, charged to app_process: the
        # app_process main() shim runs first, then class binding.
        child = self.child
        shim = child.libmap["app_process"]
        yield shim.call("main_shim")  # type: ignore[union-attr]
        yield self.ctx.resolve_classes(140)
        if self.extra_libs:
            yield from run_ctors(child, self.extra_libs)
        child.set_comm(self.full_name)
        yield from self.main_behavior(task)


class Zygote:
    """The app_process factory."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.proc: "Process | None" = None
        self.ctx: DalvikContext | None = None
        self.forks = 0

    # ------------------------------------------------------------------

    def boot(self) -> "Process":
        """Create the zygote process and schedule its preload work."""
        kernel = self.system.kernel
        proc = kernel.spawn_process("zygote", behavior=self._main)
        # The zygote executable itself: /system/bin/app_process.  Every
        # forked child inherits this "app binary" mapping and runs its
        # main() shim during specialisation.
        self._binary = SharedObject(
            "app_process", 12 * 1024, 8 * 1024, (("main_shim", 3_500),),
            label="app binary",
        )
        kernel.loader.map_binary(proc, self._binary)
        kernel.loader.map_many(proc, resolve(ZYGOTE_LIBS))
        regions.ensure_property_space(proc)
        regions.ensure_binder_mapping(proc)
        regions.ensure_mspace(proc)
        for font, size in regions.FONT_ASSETS:
            regions.map_asset(proc, font, size)
        regions.map_asset(proc, *regions.FRAMEWORK_RES)
        self.ctx = DalvikContext(proc, kernel.new_waitq, jit_enabled=False)
        self.proc = proc
        return proc

    def _main(self, task: "Task") -> Iterator[Op]:
        proc = task.process
        assert self.ctx is not None
        yield from run_ctors(proc, ZYGOTE_LIBS)
        yield self.ctx.resolve_classes(PRELOAD_CLASSES)
        # Preloaded drawables decoded into the zygote heap.
        yield decode_image(proc, 380_000, self.ctx.heap_addr(1))
        while True:
            yield Sleep(seconds(10))

    # ------------------------------------------------------------------

    def fork_dalvik(
        self,
        full_name: str,
        main_behavior: Callable[["Task"], Iterator[Op]],
        primary_dex: DexFile | None = None,
        extra_libs: tuple[str, ...] = (),
        jit_enabled: bool = True,
        nice_threads: bool = True,
    ) -> tuple["Process", DalvikContext]:
        """Fork a Dalvik-hosted process.

        The child's main behaviour runs *after* specialisation work that is
        attributed to ``app_process`` (the pre-rename comm); ``full_name``
        is applied mid-behaviour, exactly as ActivityThread does.
        """
        if self.proc is None:
            raise RuntimeError("zygote not booted")
        kernel = self.system.kernel
        child = kernel.fork(self.proc, "app_process")
        self.forks += 1
        if primary_dex is not None:
            map_dex(child, primary_dex)
        if extra_libs:
            kernel.loader.map_many(child, resolve(extra_libs))
        ctx = DalvikContext(
            child, kernel.new_waitq, jit_enabled=jit_enabled, primary_dex=primary_dex
        )

        kernel.attach_forked_main(
            child, _Specialised(child, ctx, extra_libs, full_name, main_behavior)
        )
        kernel.spawn_thread(child, "GC", gc_thread(ctx))
        if jit_enabled:
            kernel.spawn_thread(child, "Compiler", compiler_thread(ctx))
        if nice_threads:
            kernel.spawn_thread(child, "HeapWorker", heap_worker_thread(ctx))
            kernel.spawn_thread(child, "Signal Catcher", idle_vm_thread("sigcatch"))
            kernel.spawn_thread(child, "JDWP", idle_vm_thread("jdwp"))
        return child, ctx
