"""Server launcher: one ``LoginServer`` process for the serving workload.

Usage (started by ``run.py``, not by hand)::

    python3 loadbench/server.py --workload login_tcp --seed 1 [--cpu 0]
        [--trace 1 --spans PATH]

It pins itself to ``--cpu``, enrolls the workload's accounts in one
``enroll_many`` call, starts a ``LoginServer`` on an ephemeral port and
prints one JSON line ``{"port": ..., "enroll_s": ..., ...}`` on stdout.
It then obeys one-word commands on stdin, answering each with one JSON
line: ``mark`` opens the measured window (spans recorded so far are
dropped), ``report`` returns the per-layer totals recorded since the mark.
End of stdin stops the server, closes the store and, in a traced run,
writes the spans to ``--spans``.

With ``--trace 1`` the launcher wraps these public callables before it
serves, one span per call:

=====================  ===============================================
span                   callable
=====================  ===============================================
``server.parse_points``  ``repro.serving.server.parse_points``
``service.submit``       ``AsyncVerificationService.submit``
``decide.flush``         ``VerificationService.flush``
``kernel.locate``        ``locate`` of the scheme's batch-kernel class
``store.commit``         ``PasswordStore.persist_throttles``
=====================  ===============================================
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from checks import TOLERANCE_PX  # noqa: E402
from tracing import SpanRecorder  # noqa: E402


def build_store(workload: str, seed: int):
    """The workload's in-memory store, enrolled, with lockout off.

    Returns ``(store, enroll_seconds, accounts)``; the warm-up accounts are
    enrolled in the same ``enroll_many`` call as the measured ones.
    """
    from repro.core.centered import CenteredDiscretization
    from repro.geometry.point import Point
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.policy import LockoutPolicy
    from repro.passwords.storage import backend_from_uri
    from repro.passwords.store import PasswordStore
    from repro.study.image import cars_image

    system = PassPointsSystem(
        image=cars_image(),
        scheme=CenteredDiscretization.for_pixel_tolerance(2, TOLERANCE_PX),
    )
    population = inputs.login_population(seed)
    store = PasswordStore(
        system=system,
        policy=LockoutPolicy(max_failures=None),
        backend=backend_from_uri("memory:"),
    )
    warm = inputs.warm_population(workload, seed)
    accounts = [
        (name, [Point.xy(x, y) for x, y in clicks])
        for name, clicks in population.as_accounts() + warm.as_accounts()
    ]
    started = time.perf_counter()
    store.enroll_many(accounts)
    return store, time.perf_counter() - started, len(accounts)


class ServingProbe:
    """Span wrappers plus the per-call counts the spans alone do not give."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.submit_times: list = []
        self.queue_waits_ns: list = []
        self.batches: list = []
        self.commit_rows: list = []
        self.located_rows = 0

    def install(self, kernel_class) -> None:
        """Wrap the serving path's layer boundaries."""
        import repro.serving.server as server_module
        from repro.passwords.service import VerificationService
        from repro.passwords.store import PasswordStore
        from repro.serving.service import AsyncVerificationService

        clock = time.perf_counter_ns

        def on_submit(service, username, points):
            self.submit_times.append(clock())

        def on_flush(service):
            now = clock()
            self.batches.append(service.pending_count)
            self.queue_waits_ns.extend(now - t for t in self.submit_times)
            self.submit_times.clear()

        def on_commit(store, usernames):
            self.commit_rows.append(len(usernames))

        def on_locate(kernel, points, public):
            self.located_rows += len(points)

        patch = self.recorder.patch
        patch(server_module, "parse_points", "server.parse_points")
        patch(AsyncVerificationService, "submit", "service.submit", on_submit)
        patch(VerificationService, "flush", "decide.flush", on_flush)
        patch(kernel_class, "locate", "kernel.locate", on_locate)
        patch(PasswordStore, "persist_throttles", "store.commit", on_commit)

    def mark(self) -> None:
        """Start the measured window."""
        self.recorder.reset()
        self.submit_times.clear()
        self.queue_waits_ns.clear()
        self.batches.clear()
        self.commit_rows.clear()
        self.located_rows = 0

    def report(self) -> dict:
        """Totals since :meth:`mark`, in nanoseconds and counts."""
        waits = np.array(self.queue_waits_ns, dtype=np.float64)
        return {
            "layers": self.recorder.layer_totals(),
            "flushes": len(self.batches),
            "batched": int(sum(self.batches)),
            "queue_wait_p50_ns": float(np.percentile(waits, 50)) if waits.size else 0.0,
            "queue_wait_p99_ns": float(np.percentile(waits, 99)) if waits.size else 0.0,
            "commits": len(self.commit_rows),
            "commit_rows": int(sum(self.commit_rows)),
            "located_rows": self.located_rows,
        }


async def serve(args) -> None:
    from repro.serving.server import LoginServer

    store, enroll_seconds, accounts = build_store(args.workload, args.seed)
    probe = None
    if args.trace:
        probe = ServingProbe()
        probe.install(type(store.system.scheme.batch(xp=np)))
    server = LoginServer(store)
    await server.start()
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()
    pending = bytearray()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    def on_stdin() -> None:
        chunk = os.read(sys.stdin.fileno(), 4096)
        if not chunk:
            loop.remove_reader(sys.stdin.fileno())
            stopped.set()
            return
        pending.extend(chunk)
        while b"\n" in pending:
            line, _, rest = bytes(pending).partition(b"\n")
            pending[:] = rest
            command = line.decode().strip()
            if command == "mark":
                if probe is not None:
                    probe.mark()
                reply({"marked": True})
            elif command == "report":
                reply(probe.report() if probe is not None else {})
            else:
                reply({"error": f"unknown command {command!r}"})

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    reply(
        {
            "port": server.address[1],
            "enroll_s": enroll_seconds,
            "accounts": accounts,
        }
    )
    await stopped.wait()
    await server.aclose()
    store.backend.close()
    if probe is not None and args.spans:
        probe.recorder.write(args.spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("login_tcp",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
