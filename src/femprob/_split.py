"""The package's one two-way split of independent work.

Two mechanisms split a list of independent items in two.  `_each_block`
runs the quadrature blocks of one `fem` call on the calling thread and
one helper thread; `_each_point` runs the points of a CLI command (grid
sizes, orders, element counts) in the CLI process and one forked worker.
Both split by `_half`, the one split rule: one side runs items 0, 2, 4,
..., the other items 1, 3, 5, ..., each in order up to its first failing
item, and the caller then raises the exception of the first failing item
in item order, the one a serial loop raises.  Each item writes or returns
only its own results, so nothing a caller sees depends on the split, nor
on whether the second side runs at all.

`_WORKERS` is the number of sides: 2 when the process may use two CPUs or
more, else 1, and then neither mechanism starts a thread or a process.
Only this module reads or writes it.  There is one level of parallelism:
while `_each_point`'s halves run, `_WORKERS` is 1 in both processes, so
each runs its blocks inline, and the two processes use the two CPUs.

Only the CLI calls `_each_point`: a library call that forked would fork
whatever program imported it, while the CLI's process is its own.  Python
3.12 and later warn of a fork in a process that holds other OS threads
once the before-fork hooks have run; numpy's OpenBLAS starts a thread
pool at import, but its fork handler parks the pool, so the CLI process
is one thread at each fork.  A BLAS that kept its threads across `fork()`
would draw the warning.
"""

import os
import sys
import threading

# numpy's ufuncs and BLAS calls release the GIL, and np.sin over a block ran
# 1.95x faster on two threads of a 2-vCPU host; no other count was measured,
# so a split has two sides, and more would need a measurement on a machine
# with more CPUs
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _half(run, items: list, first: int, results: dict, failures: dict) -> None:
    """Run `run` of items `first`, `first + 2`, ... in order: one half of a split.

    Each result goes into `results` under its item's index.  The first item
    that raises ends the half, its exception going into `failures` under its
    index, so ``failures[min(failures)]`` over both halves is the exception
    a serial loop raises.
    """
    for index in range(first, len(items), 2):
        try:
            results[index] = run(items[index])
        except Exception as error:  # raised by the caller of both halves, in item order
            failures[index] = error
            return


def _each_block(body, blocks: list) -> None:
    """Call `body(block)` once for each block, the odd blocks on a helper thread.

    With one block, or with `_WORKERS` at 1, every block runs inline, with
    no thread.  The bodies must write disjoint results.  The exception of
    the first failing block in block order is raised once the helper has
    ended.
    """
    if _WORKERS < 2 or len(blocks) < 2:
        for block in blocks:
            body(block)
        return
    failures = {}  # block index -> its exception; each half stops at its first
    helper = threading.Thread(target=_half, args=(body, blocks, 1, {}, failures))
    try:
        helper.start()
        _half(body, blocks, 0, {}, failures)
    finally:
        if helper.ident is not None:  # started: a failed start raises above
            helper.join()
    if failures:
        raise failures[min(failures)]


def _each_point(run, items: list) -> list:
    """`[run(item) for item in items]`, the odd items run by one forked worker.

    On Linux, with `_WORKERS` at 2 and two items or more, one `os.fork()`ed
    worker runs the odd items and this process the even ones; the worker
    pickles its results and its failure back through a pipe.  `_WORKERS` is
    1 in both processes while the halves run, and is restored afterwards,
    also on failure.  The exception raised is that of the first failing
    item in item order; a worker that ends without sending its half
    (killed, say) counts as failing at its first item, with a
    `ChildProcessError`.  The worker is always reaped; if this process
    leaves early (an interrupt, an exit), it kills the worker first, and
    the kernel kills the worker if this process dies.
    """
    global _WORKERS
    if sys.platform != "linux" or _WORKERS < 2 or len(items) < 2:
        return [run(item) for item in items]
    import ctypes
    import pickle
    import signal

    results, failures = {}, {}  # item index -> its result, or its exception
    parent = os.getpid()
    workers, _WORKERS = _WORKERS, 1
    try:
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:  # the worker: it never returns, and leaves by os._exit only
            status = 1
            try:
                os.close(reader)
                libc = ctypes.CDLL(None, use_errno=True)
                libc.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
                libc.prctl.restype = ctypes.c_int
                if libc.prctl(1, signal.SIGKILL) != 0:  # PR_SET_PDEATHSIG
                    raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
                if os.getppid() == parent:  # else the parent died before prctl
                    with open(writer, "wb") as half:
                        _half(run, items, 1, results, failures)
                        pickle.dump((results, failures), half)
                    status = 0
            finally:
                os._exit(status)
        os.close(writer)
        with open(reader, "rb") as half:
            try:
                _half(run, items, 0, results, failures)
                sent = half.read()
            except BaseException:  # an interrupt or exit: stop the worker, then leave
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        _WORKERS = workers
    odd_results, odd_failures = pickle.loads(sent) if status == 0 else ({}, {1: ChildProcessError(
        f"the worker process of {len(items) // 2} points ended with status {status}"
        " before it sent their results")})
    results.update(odd_results)
    failures.update(odd_failures)
    if failures:
        raise failures[min(failures)]
    return [results[index] for index in range(len(items))]
