"""Fresh-process measurements: wall time, peak RSS and import times.

Run as a script, this module is the launcher of `spawn_measured`:

    python perfbench/procs.py <scratch dir> <python arguments...>
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0
KILL_GRACE_S = 10.0


@dataclass(frozen=True)
class Child:
    wall_s: float
    maxrss_kib: int
    returncode: int
    stdout: str
    stderr: str


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def spawn(args: list[str], work_dir: Path, env: dict[str, str] | None = None) -> Child:
    """Run ``python <args>`` to the end; time it and read its own peak RSS."""
    out_path, err_path = work_dir / "stdout.txt", work_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=ROOT,
            env=child_env() if env is None else env,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.terminate()  # a launcher then stops its own child
                if not select.select([pidfd], [], [], KILL_GRACE_S)[0]:
                    proc.kill()
            # wait4, not Popen.wait: it returns this child's own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.terminate()  # a launcher then stops its own child
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall, usage.ru_maxrss, proc.returncode, out_path.read_text(), err_path.read_text()
    )


def spawn_measured(args: list[str], work_dir: Path) -> Child:
    """`spawn` through a small launcher process, for a true peak RSS.

    Linux keeps in a child's ``ru_maxrss`` the high-water mark of the process
    that started it, across exec. Started from this process, which runs the
    workloads itself, every child would report at least this process's peak.
    The launcher is a fresh interpreter of about 10 MB that times the child
    and reads its resource usage itself.
    """
    inner = work_dir / "launched"
    inner.mkdir(exist_ok=True)
    launcher = spawn([__file__, str(inner), *args], work_dir)
    if launcher.returncode != 0:
        return launcher
    report = json.loads(launcher.stdout)
    return Child(
        report["wall_s"],
        report["maxrss_kib"],
        report["returncode"],
        (inner / "stdout.txt").read_text(),
        (inner / "stderr.txt").read_text(),
    )


def _import_entries(report: str):
    """(depth, module, self s, cumulative s) per line of an importtime report."""
    for line in report.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            own, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            yield depth, name.strip(), int(own) * 1e-6, int(cumulative) * 1e-6


def import_seconds(report: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Import time per package from a ``python -X importtime`` report.

    A package's time is the cumulative time of its outermost imports, those
    not nested in another import of the same package: the cost of loading it
    and whatever it pulled in that was not loaded yet.
    """
    totals = dict.fromkeys(packages, 0.0)
    ancestors: list[str] = []
    # parents are printed after their children, so walk the report backwards
    for depth, module, _, cumulative in reversed(list(_import_entries(report))):
        del ancestors[depth:]
        package = module.split(".")[0]
        if package in totals and not any(a.split(".")[0] == package for a in ancestors):
            totals[package] += cumulative
        ancestors.append(module)
    return totals


def import_self_seconds(report: str, package: str) -> float:
    """Summed self time of the modules of one package in an importtime report."""
    return sum(
        own for _, module, own, _ in _import_entries(report) if module.split(".")[0] == package
    )


def terminate_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that `spawn` stops its child first."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


if __name__ == "__main__":
    terminate_on_sigterm()
    done = spawn(sys.argv[2:], Path(sys.argv[1]), env=dict(os.environ))
    report = {"wall_s": done.wall_s, "maxrss_kib": done.maxrss_kib, "returncode": done.returncode}
    print(json.dumps(report))
