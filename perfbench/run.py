"""Benchmark entry point.

    python3 perfbench/run.py --workload fixture_job|digest_job|finish \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A failed correctness check prints ``correct: false`` and
the reason on standard error.  Every run, interrupted or not, shuts Ray
down, waits for the processes it started and removes its work directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: logical CPUs of the Ray session: the fewest at which run_extraction's
#: pool formula leaves one CPU free for the read and write tasks
RAY_CPUS = 2
#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
#: <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 66


def _seconds_since_start() -> float:
    """Wall time since this process started (kernel start time, 10 ms
    resolution), so interpreter start-up counts towards set-up."""
    start = int(_stat("self")[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def _stat(pid: "int | str") -> "list[str] | None":
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _descendants(pid: int) -> dict[int, str]:
    """pid -> start time of every live descendant of ``pid``."""
    children: dict[int, list[int]] = {}
    start: dict[int, str] = {}
    for entry in os.listdir("/proc"):
        fields = _stat(entry) if entry.isdigit() else None
        if fields:
            children.setdefault(int(fields[1]), []).append(int(entry))
            start[int(entry)] = fields[19]
    out, todo = {}, list(children.get(pid, []))
    while todo:
        p = todo.pop()
        out[p] = start[p]
        todo.extend(children.get(p, []))
    return out


def _alive(pids: dict[int, str]) -> dict[int, str]:
    """The processes of ``pids`` still running (same start time, not a
    zombie)."""
    live = {}
    for p, st in pids.items():
        fields = _stat(p)
        if fields and fields[19] == st and fields[0] != "Z":
            live[p] = st
    return live


def _stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    started = _descendants(os.getpid())
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + 20
    while _alive(started) and time.monotonic() < deadline:
        time.sleep(0.2)
    for p in _alive(started):
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while _alive(started) and time.monotonic() < deadline:
        time.sleep(0.1)


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGHUP, _on_signal)

    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

    from perfbench.workloads import WORKLOADS, Ctx

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    # the engine first: a checkout without it fails here, before Ray starts
    import indu_doc_transformer_ray.pipelines.runner  # noqa: F401

    work_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(work_dir)
    ray_tmp = os.path.join(work_dir, "ray")
    try:
        import ray
        from ray.data import DataContext

        t0 = time.perf_counter()
        ray.init(
            address="local", num_cpus=RAY_CPUS, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=256 * 2**20,
            _temp_dir=(
                ray_tmp if len(ray_tmp) + _RAY_SOCKET_SUFFIX <= 107 else None
            ),
        )
        ray_init_s = time.perf_counter() - t0
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        setup_s = _seconds_since_start()

        ctx = Ctx(work_dir=work_dir, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace))
        from perfbench.checks import CheckError

        try:
            metrics, attempted, failed = WORKLOADS[args.workload](ctx)
            correct = True
        except CheckError as e:
            print(f"check failed: {e}", file=sys.stderr)
            metrics, attempted, failed, correct = {}, max(ctx.rounds, 1), 0, False
        if args.trace:
            metrics["ray.init_s"] = (ray_init_s, "s")
        else:
            metrics["setup_s"] = (setup_s, "s")
    finally:
        print(f"[perfbench {time.monotonic():.2f}] stopping Ray", file=sys.stderr)
        _stop_ray()
        print(f"[perfbench {time.monotonic():.2f}] stopped", file=sys.stderr)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
