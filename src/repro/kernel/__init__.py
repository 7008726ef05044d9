"""Linux 2.6.35-style kernel model: memory, tasks, scheduling, I/O.

Exported names resolve on first access (see :mod:`repro._lazy`), so a
leaf such as :mod:`repro.kernel.layout` imports alone.  That keeps the
package out of an import cycle: the library catalog needs the layout
constants, while the loader (under :class:`Kernel`) maps libraries.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "repro.kernel.addrspace": ("AddressSpace",),
    "repro.kernel.layout": (
        "KERNEL_BASE",
        "MMAP_THRESHOLD",
        "PAGE_SIZE",
        "truncate_comm",
    ),
    "repro.kernel.pagecache": ("File", "Filesystem"),
    "repro.kernel.proc": ("Kernel",),
    "repro.kernel.sched": ("Scheduler", "TimerQueue"),
    "repro.kernel.task": ("Process", "Task", "TaskState"),
    "repro.kernel.vma": ("VMA", "Permissions", "VMAKind"),
    "repro.kernel.waitq": ("WaitQueue",),
})
