"""system_server: the framework service host.

Forked from zygote, it hosts ActivityManager, WindowManager,
PackageManager and the smaller services on a Binder thread pool, runs the
SurfaceFlinger thread (Gingerbread placement), and keeps the
InputReader/InputDispatcher/watchdog threads ticking — the reason
``system_server`` ranks second in the paper's process figures even for
apps that barely touch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.android.binder import BinderHost, ServiceRegistry, Transaction
from repro.android.installer import Installer, InstallRequest
from repro.android.surfaceflinger import SurfaceFlinger
from repro.dalvik.method import MethodTable
from repro.dalvik.vm import DalvikContext
from repro.dalvik.zygote import Zygote
from repro.errors import ServiceError
from repro.kernel.syscalls import kernel_exec
from repro.libs.registry import SYSTEM_SERVER_LIBS, framework_veneer, mapped_object
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.kernel.task import Process, Task
    from repro.sim.system import System


@dataclass
class SystemServerHandle:
    """Handles into the running system_server."""

    proc: "Process"
    ctx: DalvikContext
    host: BinderHost
    sf: SurfaceFlinger
    methods: MethodTable
    installer: Installer | None = None
    activities_started: int = field(default=0)


class _ServerMain:
    """ActivityManager's home thread loop.

    ``handle`` is attached after construction (the handle needs the
    forked process, which needs this behaviour first).
    """

    def __init__(self) -> None:
        self.handle: SystemServerHandle | None = None

    def __call__(self, task: "Task") -> Iterator[Op]:
        # ActivityManager's home thread: android.server.ServerThread.
        task.set_name("android.server.ServerThread")
        handle = self.handle
        assert handle is not None
        while True:
            yield Sleep(millis(500))
            # Battery stats, alarms, activity timeouts.
            for method in handle.methods.pick_batch(5):
                yield handle.ctx.interpret(method, reps=8, task=task)
            yield from framework_veneer(handle.proc, nlibs=5, insts_each=130)


def boot_system_server(
    system: "System", registry: ServiceRegistry, zygote: Zygote,
    jit_enabled: bool = True,
) -> SystemServerHandle:
    """Fork and populate system_server."""
    kernel = system.kernel
    methods = MethodTable.generate_cached(
        seed=system.seed ^ 0x5E41, prefix="android.server", count=140,
        avg_bytecodes=360,
    )
    main = _ServerMain()
    proc, ctx = zygote.fork_dalvik(
        "system_server",
        main,
        extra_libs=SYSTEM_SERVER_LIBS,
        jit_enabled=jit_enabled,
    )
    sf = SurfaceFlinger(system, proc)
    # Vendor BSPs pin the composition thread onto the big cluster (and
    # run it above nice 0); on a symmetric machine big_cpu() is None and
    # placement is untouched.
    kernel.spawn_thread(
        proc, "SurfaceFlinger", sf.thread_behavior,
        affinity=system.big_cpu(0), nice=-8,
    )
    host = BinderHost(kernel, proc, nthreads=8)
    handle = SystemServerHandle(proc, ctx, host, sf, methods)
    main.handle = handle

    services = _ServiceImpls(system, handle, zygote)
    registry.add("activity", host, services.handle_activity)
    registry.add("window", host, services.handle_window)
    registry.add("package", host, services.handle_package)
    for name in ("power", "alarm", "audio.policy", "sensorservice", "connectivity"):
        registry.add(name, host, services.make_small_service(name))

    _spawn_framework_threads(system, handle)
    return handle


class _ServiceImpls:
    """Binder handlers bound to one system_server instance."""

    def __init__(
        self, system: "System", handle: SystemServerHandle, zygote: Zygote
    ) -> None:
        self.system = system
        self.handle = handle
        self.zygote = zygote

    # -- ActivityManager -------------------------------------------------

    def handle_activity(self, txn: Transaction) -> Iterator[Op]:
        handle = self.handle
        if txn.code == "start_activity":
            # Resolve intent, create the activity record, request the fork.
            yield handle.ctx.resolve_classes(40)
            for method in handle.methods.pick_batch(30):
                yield handle.ctx.interpret(method)
            on_start: Callable[[], None] | None = txn.args.get("on_start")
            if on_start is not None:
                on_start()
            handle.activities_started += 1
        elif txn.code == "activity_idle":
            for method in handle.methods.pick_batch(4):
                yield handle.ctx.interpret(method)
        elif txn.code == "start_service":
            yield handle.ctx.resolve_classes(16)
            for method in handle.methods.pick_batch(14):
                yield handle.ctx.interpret(method)
            on_start = txn.args.get("on_start")
            if on_start is not None:
                on_start()
        else:
            raise ServiceError(f"activity: unknown code {txn.code!r}")

    # -- WindowManager ---------------------------------------------------

    def handle_window(self, txn: Transaction) -> Iterator[Op]:
        handle = self.handle
        if txn.code == "add_window":
            for method in handle.methods.pick_batch(18):
                yield handle.ctx.interpret(method)
            width = txn.args.get("width", 800)
            height = txn.args.get("height", 480)
            name = txn.args.get("name", f"win:{txn.sender.comm}")
            z = txn.args.get("z", 1)
            surface = handle.sf.create_surface(txn.sender, name, width, height, z)
            txn.reply["surface"] = surface
        elif txn.code == "relayout":
            for method in handle.methods.pick_batch(8):
                yield handle.ctx.interpret(method)
        elif txn.code == "remove_window":
            surface = txn.args["surface"]
            handle.sf.remove_surface(surface)
            for method in handle.methods.pick_batch(6):
                yield handle.ctx.interpret(method)
        else:
            raise ServiceError(f"window: unknown code {txn.code!r}")

    # -- PackageManager ----------------------------------------------------

    def handle_package(self, txn: Transaction) -> Iterator[Op]:
        handle = self.handle
        if txn.code == "query":
            libsqlite = mapped_object(handle.proc, "libsqlite.so")
            yield libsqlite.call("sql_prepare")
            yield libsqlite.call("sql_step", reps=12, insts=1_700 * 12)
            for method in handle.methods.pick_batch(6):
                yield handle.ctx.interpret(method)
        elif txn.code == "install":
            installer = handle.installer
            if installer is None:
                raise ServiceError("package: installer not wired")
            request: InstallRequest = txn.args["request"]
            # Verification inside PMS before the pipeline.
            for method in handle.methods.pick_batch(20):
                yield handle.ctx.interpret(method)
            yield from installer.install_flow(request)
            # Settings write-back (packages.xml).
            settings = self.system.fs.get("packages.xml")
            yield from self.system.fs.write(
                self.handle.host.threads[0], settings, 96 * 1024, handle.ctx.heap_addr(2)
            )
            txn.reply["installed"] = request.package
        else:
            raise ServiceError(f"package: unknown code {txn.code!r}")

    # -- Small services ----------------------------------------------------

    def make_small_service(self, name: str) -> "_SmallService":
        return _SmallService(self.handle)


class _SmallService:
    """A tiny registry-backed service handler."""

    def __init__(self, handle: SystemServerHandle) -> None:
        self.handle = handle

    def __call__(self, txn: Transaction) -> Iterator[Op]:
        handle = self.handle
        for method in handle.methods.pick_batch(3):
            yield handle.ctx.interpret(method)


class _InputThread:
    """InputReader/InputDispatcher: a 50Hz libinput poll loop."""

    def __init__(self, proc: "Process", insts: int) -> None:
        self.proc = proc
        self.insts = insts

    def __call__(self, task: "Task") -> Iterator[Op]:
        libinput = mapped_object(self.proc, "libinput.so")
        while True:
            yield Sleep(millis(20))
            yield libinput.call("dispatch_event", insts=self.insts)


class _Watchdog:
    """system_server's watchdog: periodic liveness checks."""

    def __init__(self, handle: SystemServerHandle) -> None:
        self.handle = handle

    def __call__(self, task: "Task") -> Iterator[Op]:
        handle = self.handle
        while True:
            yield Sleep(millis(4_000))
            yield kernel_exec("watchdog_check", 900, 80)
            for method in handle.methods.pick_batch(2):
                yield handle.ctx.interpret(method)


def _spawn_framework_threads(system: "System", handle: SystemServerHandle) -> None:
    """InputReader / InputDispatcher / watchdog / PowerManagerService."""
    kernel = system.kernel
    proc = handle.proc
    kernel.spawn_thread(proc, "InputReader", _InputThread(proc, 180))
    kernel.spawn_thread(proc, "InputDispatcher", _InputThread(proc, 140))
    kernel.spawn_thread(proc, "watchdog", _Watchdog(handle))
