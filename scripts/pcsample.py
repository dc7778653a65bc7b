#!/usr/bin/env python3
"""A PC sampler for machines without `perf`: where does one thread wait?

    scripts/pcsample.py <interval_ms> <samples> <warmup_s> -- <cmd...>

Starts <cmd>, lets it run <warmup_s> seconds, then stops its main thread
every <interval_ms> ms (PTRACE_SEIZE / PTRACE_INTERRUPT), reads the program
counter (PTRACE_GETREGS) and lets it go, <samples> times. Prints the top
functions and the top PCs as `function+offset`, symbols from `nm -C` on the
binary and `nm -D` on the shared objects it maps, then rolls the samples up
by crate and by `crate::module` as shares of the *active* samples: those
not parked in a blocking call (`read`, `nanosleep`, `poll`, a futex wait),
which a thread waiting on a pipe or a child would otherwise dominate.
x86-64 Linux, standard library only. One thread is sampled, so pin the
command to one (`taskset -c 0 <bin> ...`: taskset execs, the pid stays the
command's). OBSERVABILITY.md says how to read the output.
"""
import bisect
import collections
import ctypes
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS = 7, 12
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
RIP = 16  # index of `rip` in x86-64's user_regs_struct (27 unsigned longs)

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, data=None):
    if libc.ptrace(request, pid, None, data) < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request:#x}): {os.strerror(err)}")


def executable_maps(pid):
    """[(start, end, load_base, path)] for the file-backed executable maps."""
    maps, base = [], {}
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5]
            base.setdefault(path, start - int(parts[2], 16))
            if "x" in parts[1]:
                maps.append((start, end, base[path], path))
    return maps


def symbols(path, dynamic):
    """Sorted [(address, name)] of the text symbols `nm` finds in `path`."""
    cmd = ["nm", "-C", "--defined-only"] + (["-D"] if dynamic else []) + [path]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), parts[2]))
    syms.sort()
    return syms


# A shared-object function a thread sits in while it waits, not works.
IDLE = re.compile(r"(^|_)(read|nanosleep|poll|epoll_wait|select|wait\w*|futex\w*)(_nocancel)?(64)?$")


def module_of(fn, lib):
    """`crate::module` of a demangled Rust function, or the library name."""
    if lib is not None:
        return lib
    path = fn.lstrip("<&*").replace("dyn ", "")
    if path[:1] in "[(" and " as " in path:  # a slice or tuple: the trait's
        path = path.split(" as ", 1)[1]
    path = path.split(" as ")[0]
    parts = re.split(r"::|<|>", path)
    parts = [p for p in parts if p and not p.startswith("{{")]
    return "::".join(parts[:2]) if parts else fn


def main():
    if len(sys.argv) < 6 or sys.argv[4] != "--":
        sys.exit(__doc__)
    interval = float(sys.argv[1]) / 1e3
    samples, warmup, cmd = int(sys.argv[2]), float(sys.argv[3]), sys.argv[5:]
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    pid = child.pid
    time.sleep(warmup)
    ptrace(PTRACE_SEIZE, pid)
    regs = (ctypes.c_ulong * 27)()
    pcs = []
    try:
        for _ in range(samples):
            time.sleep(interval)
            ptrace(PTRACE_INTERRUPT, pid)
            _, status = os.waitpid(pid, 0x40000000)  # __WALL
            if not os.WIFSTOPPED(status):
                break  # the command finished first
            ptrace(PTRACE_GETREGS, pid, regs)
            pcs.append(regs[RIP])
            ptrace(PTRACE_CONT, pid)
        maps = executable_maps(pid)
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
        child.wait()

    exe = os.path.realpath(maps[0][3]) if maps else ""
    tables = {}
    by_fn, by_pc = collections.Counter(), collections.Counter()
    by_crate, by_module = collections.Counter(), collections.Counter()
    idle = 0
    for pc in pcs:
        where, lib = f"{pc:#x}", "[no map]"
        for start, end, base, path in maps:
            if start <= pc < end:
                shared = os.path.realpath(path) != exe
                if path not in tables:
                    tables[path] = symbols(path, shared)
                syms, addr = tables[path], pc - base
                i = bisect.bisect_right(syms, (addr, "\U0010ffff")) - 1
                name, at = syms[i][::-1] if i >= 0 else (os.path.basename(path), 0)
                fn, where = name, f"{name}+{addr - at:#x}  [{addr:#x}]"
                lib = os.path.basename(path) if shared else None
                break
        else:
            fn = "[no map]"
        by_fn[fn] += 1
        by_pc[where] += 1
        if lib is not None and IDLE.search(fn.split("@")[0]):
            idle += 1
            continue
        module = module_of(fn, lib)
        by_module[module] += 1
        by_crate[module.split("::")[0]] += 1
    n = max(len(pcs), 1)
    print(f"{len(pcs)} samples, {interval * 1e3:g} ms apart, of: {' '.join(cmd)}")
    print("\ntop functions")
    for name, c in by_fn.most_common(25):
        print(f"{100 * c / n:6.1f} %  {name}")
    print("\ntop PCs (a stalled load shows on the instruction after it)")
    for where, c in by_pc.most_common(30):
        print(f"{100 * c / n:6.1f} %  {where}")
    active = max(n - idle, 1)
    print(f"\nby crate, share of {n - idle} active samples ({100 * idle / n:.1f} % idle)")
    for name, c in by_crate.most_common(15):
        print(f"{100 * c / active:6.1f} %  {name}")
    print("\nby crate::module, share of active samples")
    for name, c in by_module.most_common(25):
        print(f"{100 * c / active:6.1f} %  {name}")


if __name__ == "__main__":
    main()
