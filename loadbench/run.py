"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 loadbench/run.py --workload login_tcp --seed 1 --seconds 10 --trace 0

Workloads (see ``loadbench/README.md`` for their make-up):

``login_tcp``
    Legitimate logins over the JSON-lines TCP protocol against an
    in-memory store with lockout off.
``grind_stolen``
    An offline dictionary grind of a stolen password file through the
    parallel attack runner at 2 workers.

For the serving workload the server runs in its own process
(``server.py``), pinned to one CPU, and this process is the load
generator, pinned to another, with 2 connections.  With ``--trace 0`` the
result carries the end-to-end metrics; with ``--trace 1`` the launcher and
the attack runner are wrapped at their layer boundaries and the result
carries the per-layer metrics instead.  Every program output is checked
by the predicates in ``checks.py``; an answer that disagrees counts as a
failed operation.  Host context goes to stdout before the result, which
is always the last line.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".loadbench")

sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostinfo  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("login_tcp", "grind_stolen")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds to wait for a server launcher to come up or go down.
LAUNCH_TIMEOUT_S = 60

#: Length of the windows a serving run's timed phase is cut into; the
#: throughput, latency and CPU figures are medians over the windows.
WINDOW_S = 0.5


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- serving: launcher control -----------------------------------------------


class Launcher:
    """One ``server.py`` process and its stdin/stdout control channel."""

    def __init__(self, workload: str, seed: int, cpu: Optional[int], trace: int, spans: str):
        command = [
            sys.executable,
            os.path.join(HERE, "server.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--spans", spans,
        ]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self.ready = self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, word: str) -> dict:
        self.proc.stdin.write(word.encode() + b"\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Close stdin and wait for the launcher to exit."""
        try:
            self.proc.stdin.close()
            code = self.proc.wait(timeout=LAUNCH_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server launcher exited with code {code}")


# -- serving: load generator -------------------------------------------------


def encode_requests(names: List[str], stream: inputs.Stream) -> List[bytes]:
    """One pre-encoded login line per attempt; the id is the stream index."""
    return [
        b'{"op":"login","id":%d,"user":"%s","points":%s}\n'
        % (index, names[account].encode(), json.dumps(points.tolist(), separators=(",", ":")).encode())
        for index, (account, points) in enumerate(zip(stream.account.tolist(), stream.points))
    ]


def make_bursts(lines: List[bytes], stream: inputs.Stream) -> List[List[Tuple[bytes, np.ndarray]]]:
    """Per connection, its attempts in order, cut into bursts of ``BURST``."""
    per_connection = []
    for connection in range(inputs.CONNECTIONS):
        indices = np.flatnonzero(stream.connection == connection)
        bursts = []
        for start in range(0, len(indices), inputs.BURST):
            part = indices[start : start + inputs.BURST]
            bursts.append((b"".join(lines[i] for i in part), part))
        per_connection.append(bursts)
    return per_connection


class Connection:
    """One client connection driving closed-loop bursts.

    Responses are not parsed while the clock runs: each read chunk is
    kept as bytes, and every response line it completes is given the
    chunk's arrival time.  ``marks`` holds ``(begin, end, stop)`` per
    burst: its write time, the arrival of its last answer, and the end of
    its slice of ``latencies``.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.sent: List[int] = []  # burst indices, in send order
        self.chunks: List[bytes] = []
        self.latencies: List[float] = []
        self.marks: List[Tuple[float, float, int]] = []

    async def run(self, bursts, deadline: Optional[float], cycle: bool) -> None:
        perf = time.perf_counter
        read = self.reader.read
        chunks = self.chunks
        latencies = self.latencies
        index = 0
        while True:
            if index == len(bursts):
                if not cycle:
                    return
                index = 0
            if deadline is not None and perf() >= deadline:
                return
            data, ids = bursts[index]
            begin = perf()
            self.writer.write(data)
            await self.writer.drain()
            expected = len(ids)
            while expected:
                chunk = await read(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed the connection mid-burst")
                arrived = perf()
                lines = chunk.count(b"\n")
                expected -= lines
                chunks.append(chunk)
                latencies.extend([arrived - begin] * lines)
            self.sent.append(index)
            self.marks.append((begin, arrived, len(latencies)))
            index += 1

    def answers(self, bursts) -> List[Tuple[np.ndarray, List[dict]]]:
        """Each sent burst's request ids paired with its parsed responses."""
        lines = b"".join(self.chunks).split(b"\n")
        pairs = []
        offset = 0
        for index in self.sent:
            ids = bursts[index][1]
            pairs.append((ids, [json.loads(line) for line in lines[offset : offset + len(ids)]]))
            offset += len(ids)
        self.chunks.clear()
        return pairs

    async def request(self, payload: dict) -> dict:
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def observed_statuses(pairs, count: int) -> Tuple[List[List[Optional[str]]], int]:
    """Statuses per stream index (one entry per time it was answered).

    Returns the per-index answer lists and the number of answers that
    were not a well-formed ``ok`` login response or that answered an id
    the burst did not carry.
    """
    observed: List[List[Optional[str]]] = [[] for _ in range(count)]
    malformed = 0
    for ids, responses in pairs:
        by_id = {}
        for response in responses:
            if response.get("ok") is True and response.get("id") not in by_id:
                by_id[response.get("id")] = response.get("status")
            else:
                malformed += 1
        for request_id in ids.tolist():
            observed[request_id].append(by_id.pop(request_id, None))
        malformed += len(by_id)
    return observed, malformed


async def drive(port: int, warm_bursts, bursts, seconds: float, launcher: Launcher):
    """Warm up, run the timed phase, scrape the program's metrics."""
    connections = [Connection(*await asyncio.open_connection("127.0.0.1", port)) for _ in range(inputs.CONNECTIONS)]
    await asyncio.gather(*(c.run(b, None, False) for c, b in zip(connections, warm_bursts)))
    for connection, part in zip(connections, warm_bursts):
        _, malformed = observed_statuses(connection.answers(part), inputs.WARM_ATTEMPTS)
        if malformed:
            raise RuntimeError(f"{malformed} malformed answers during warm-up")
        connection.sent.clear()
        connection.latencies.clear()
        connection.marks.clear()
    launcher.command("mark")
    pid = launcher.proc.pid
    server_cpu = hostinfo.cpu_ns(pid)
    client_cpu = time.process_time()
    begin = time.perf_counter()
    cpu_samples: List[int] = []
    sampler = asyncio.ensure_future(sample_cpu(pid, begin, cpu_samples))
    await asyncio.gather(*(c.run(b, begin + seconds, True) for c, b in zip(connections, bursts)))
    elapsed = time.perf_counter() - begin
    sampler.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await sampler
    window = {
        "begin": begin,
        "cpu_samples": cpu_samples,
        "elapsed": elapsed,
        "client_cpu_s": time.process_time() - client_cpu,
        "server_cpu_ns": hostinfo.cpu_ns(pid) - server_cpu,
        "server_rss_mb": hostinfo.peak_rss_mb(pid),
    }
    window["report"] = launcher.command("report")
    scrape = await connections[0].request({"op": "metrics", "id": "scrape"})
    for connection in connections:
        await connection.close()
    return connections, window, scrape


async def sample_cpu(pid: int, begin: float, samples: List[int]) -> None:
    """Record the server's CPU nanoseconds at every window boundary."""
    boundary = begin
    while True:
        samples.append(hostinfo.cpu_ns(pid))
        boundary += WINDOW_S
        await asyncio.sleep(max(0.0, boundary - time.perf_counter()))


def windowed(connections: List[Connection], begin: float, cpu_samples: List[int]) -> Dict[str, float]:
    """Medians over the timed phase's whole windows.

    A burst's latencies belong to the window it was written in, its
    answers to the window its last answer arrived in.  Each window gives a
    throughput, a median latency and a server CPU time per answer;
    the median over windows is robust to a second in which the shared
    host stalled the run, where a whole-phase total is not.

    No tail percentile is a metric: the 32 answers of one burst share one
    latency, and on a shared 2-vCPU host a run's p95 and p99 flip between
    a one-burst and a two-burst mode, so they moved by a third to a half
    of their median from run to run.  Both are printed for diagnosis.
    """
    count = len(cpu_samples) - 1
    latencies: List[List[float]] = [[] for _ in range(count)]
    answered = [0] * count
    for connection in connections:
        start = 0
        for sent, arrived, stop in connection.marks:
            first = int((sent - begin) // WINDOW_S)
            last = int((arrived - begin) // WINDOW_S)
            if first < count:
                latencies[first].extend(connection.latencies[start:stop])
            if last < count:
                answered[last] += stop - start
            start = stop
    if count < 3:
        raise RuntimeError(f"timed phase too short for windowed figures: {answered}")
    cpu = np.diff(cpu_samples[: count + 1])
    # A window in which the host stalled the run can hold no answer or no
    # burst start: it counts as zero throughput and adds no latency or
    # CPU-per-answer figure.
    lat = [np.array(window) * 1e3 for window in latencies if window]
    print(f"# per-window answers/s: {[n / WINDOW_S for n in answered]}")
    print(f"# tail, not metrics: window-median p95 "
          f"{median([float(np.percentile(window, 95)) for window in lat]):.3f} ms, "
          f"whole-phase p99 {np.percentile(np.concatenate(lat), 99):.3f} ms")
    return {
        "windows": count,
        "ops_per_s": median([n / WINDOW_S for n in answered]),
        "p50_ms": median([float(np.percentile(window, 50)) for window in lat]),
        "cpu_us_per_op": median([c / 1e3 / n for c, n in zip(cpu.tolist(), answered) if n]),
    }


def scrape_summary(scrape: dict) -> dict:
    """Batching figures from the program's own registry (diagnosis only)."""
    metrics = scrape.get("metrics") or {}
    histograms = metrics.get("histograms") or {}
    batch = histograms.get("serving_batch_size") or {}
    wait = histograms.get("serving_queue_wait_seconds") or {}
    count = batch.get("count") or 0
    return {
        "flushes": count,
        "mean_batch": (batch.get("sum") or 0) / count if count else 0.0,
        "queue_wait_p50_ms": (wait.get("p50") or 0.0) * 1e3,
        "queue_wait_p99_ms": (wait.get("p99") or 0.0) * 1e3,
    }


def run_serving(args, affinity: Tuple[Optional[int], Optional[int]]) -> dict:
    workload, seed = args.workload, args.seed
    server_cpu, _ = affinity
    population = inputs.login_population(seed)
    stream = inputs.login_round(seed, population)
    expected = checks.expected_logins(population.points[stream.account], stream.points)
    bursts = make_bursts(encode_requests(population.names, stream), stream)
    warm = inputs.warm_population(workload, seed)
    warm_stream = inputs.warm_stream(warm)
    warm_bursts = make_bursts(encode_requests(warm.names, warm_stream), warm_stream)

    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl") if args.trace else ""
    setup_times: List[float] = []
    enroll_times: List[float] = []
    for attempt in range(SETUPS):
        begin = time.perf_counter()
        launcher = Launcher(workload, seed, server_cpu, args.trace, spans)
        setup_times.append(time.perf_counter() - begin)
        enroll_times.append(launcher.ready["enroll_s"] / launcher.ready["accounts"])
        if attempt < SETUPS - 1:
            launcher.stop()
    print(f"# server: {json.dumps(launcher.ready)}")
    reference_before = hostinfo.reference_loop_s()
    try:
        connections, window, scrape = asyncio.run(
            drive(launcher.ready["port"], warm_bursts, bursts, args.seconds, launcher)
        )
    finally:
        launcher.stop()
    reference_after = hostinfo.reference_loop_s()
    print(f"# reference loop: {reference_before:.4f}s before, {reference_after:.4f}s after")

    # -- checks --------------------------------------------------------------
    count = len(stream.account)
    observed: List[List[Optional[str]]] = [[] for _ in range(count)]
    malformed = 0
    for connection, part in zip(connections, bursts):
        answers, bad = observed_statuses(connection.answers(part), count)
        malformed += bad
        for index, statuses in enumerate(answers):
            observed[index].extend(statuses)
    attempted = sum(len(statuses) for statuses in observed)
    failed = malformed + sum(
        1 for index, statuses in enumerate(observed) for status in statuses if status != expected[index]
    )
    print(f"# stream: {count} attempts per round, {max(map(len, observed))} rounds begun")
    print(f"# program registry after the timed phase: {json.dumps(scrape_summary(scrape))}")

    figures = windowed(connections, window["begin"], window["cpu_samples"])
    if not args.trace:
        print(f"# {figures['windows']} windows of {WINDOW_S}s; whole phase: "
              f"{attempted / window['elapsed']:.1f} ops/s, "
              f"{window['server_cpu_ns'] / 1e3 / attempted:.2f} us server CPU per op")
        metrics = {
            "setup_s": metric(median(setup_times), "s"),
            "ops_per_s": metric(figures["ops_per_s"], "1/s"),
            "p50_ms": metric(figures["p50_ms"], "ms"),
            "cpu_us_per_op": metric(figures["cpu_us_per_op"], "us"),
            "peak_rss_mb": metric(window["server_rss_mb"], "MB"),
        }
    else:
        metrics = serving_layers(window, attempted, median(enroll_times), figures["ops_per_s"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def serving_layers(window: dict, logins: int, enroll_s_per_account: float, ops_per_s: float) -> dict:
    """Per-layer metrics of a traced serving run."""
    report = window["report"]
    layers = report["layers"]

    def layer(name: str, field: str) -> float:
        return float(layers.get(name, {}).get(field, 0))

    def us_per_login(ns: float) -> float:
        return ns / 1e3 / logins

    server_cpu = window["server_cpu_ns"]
    attributed = sum(entry["self_cpu_ns"] for entry in layers.values())
    located = report["located_rows"] / inputs.CLICKS
    commits = report["commits"]
    values = {
        "server.cpu_us_per_login": metric(us_per_login(server_cpu), "us"),
        "server.parse_points_us_per_login": metric(us_per_login(layer("server.parse_points", "self_cpu_ns")), "us"),
        "server.unattributed_us_per_login": metric(us_per_login(server_cpu - attributed), "us"),
        "service.submit_us_per_login": metric(us_per_login(layer("service.submit", "self_cpu_ns")), "us"),
        "service.batch_size_mean": metric(report["batched"] / max(1, report["flushes"]), "count"),
        "service.queue_wait_p50_ms": metric(report["queue_wait_p50_ns"] / 1e6, "ms"),
        "service.queue_wait_p99_ms": metric(report["queue_wait_p99_ns"] / 1e6, "ms"),
        "service.flushes": metric(report["flushes"], "count"),
        "decide.flush_us_per_login": metric(us_per_login(layer("decide.flush", "cpu_ns")), "us"),
        "decide.hash_us_per_login": metric(us_per_login(layer("decide.flush", "self_cpu_ns")), "us"),
        "kernel.locate_us_per_login": metric(us_per_login(layer("kernel.locate", "cpu_ns")), "us"),
        "kernel.locate_ns_per_guess": metric(layer("kernel.locate", "wall_ns") / max(1.0, located), "ns"),
        "store.commit_us_per_login": metric(us_per_login(layer("store.commit", "cpu_ns")), "us"),
        "store.commits": metric(commits, "count"),
        "store.rows_per_commit": metric(report["commit_rows"] / max(1, commits), "count"),
        "store.enroll_us_per_account": metric(enroll_s_per_account * 1e6, "us"),
        "client.cpu_us_per_login": metric(window["client_cpu_s"] * 1e6 / logins, "us"),
        "traced.ops_per_s": metric(ops_per_s, "1/s"),
    }
    return with_all_layers(values)


# -- grind ---------------------------------------------------------------------


class LocateTally:
    """Wall time and rows of every kernel ``locate`` call, across processes.

    Installed on the kernel class before the attack pool starts, so the
    forked workers inherit the wrapper; the counters live in shared
    memory and the parent reads them after each measured round.
    """

    def __init__(self, kernel_class) -> None:
        self.values = multiprocessing.RawArray("q", 3)  # ns, calls, rows
        self.lock = multiprocessing.Lock()
        original = kernel_class.locate
        values, lock, clock = self.values, self.lock, time.perf_counter_ns

        def locate(kernel, points, public):
            begin = clock()
            try:
                return original(kernel, points, public)
            finally:
                spent = clock() - begin
                with lock:
                    values[0] += spent
                    values[1] += 1
                    values[2] += len(points)

        kernel_class.locate = locate

    def reset(self) -> None:
        with self.lock:
            for index in range(3):
                self.values[index] = 0

    def read(self) -> Tuple[int, int, int]:
        with self.lock:
            return tuple(self.values)


def wait_for_children() -> None:
    """Join every worker process this process started."""
    for child in multiprocessing.active_children():
        child.join(LAUNCH_TIMEOUT_S)


def run_grind(args) -> dict:
    from repro.attacks.offline import prepare_guess_batch
    from repro.attacks.parallel import ShardedAttackRunner
    from repro.core.centered import CenteredDiscretization
    from repro.experiments.common import default_dataset, default_dictionary
    from repro.geometry.point import Point
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.store import PasswordStore
    from repro.study.image import cars_image
    from tracing import SpanRecorder

    budget = inputs.GRIND_BUDGET
    scheme = CenteredDiscretization.for_pixel_tolerance(2, checks.TOLERANCE_PX)
    dictionary = default_dictionary("cars")
    begin = time.perf_counter()
    batch = prepare_guess_batch(dictionary, budget, scheme.dim)
    guess_prep_s = time.perf_counter() - begin
    guesses = np.array([[[int(p.x), int(p.y)] for p in entry] for entry in batch.entries], dtype=np.int64)
    accounts = [
        (f"user{sample.password_id}", [[int(p.x), int(p.y)] for p in sample.points])
        for sample in default_dataset().passwords_on("cars")
    ]
    accounts += [(f"victim{rank:04d}", guesses[rank].tolist()) for rank in inputs.grind_victim_ranks(args.seed)]
    accounts.sort()
    enrolled = np.array([clicks for _, clicks in accounts], dtype=np.int64)
    expected = checks.expected_grind(checks.first_crack_ranks(enrolled, guesses), budget)
    enroll_list = [(name, [Point.xy(x, y) for x, y in clicks]) for name, clicks in accounts]
    warm_names = {name for name, _ in accounts[: 4 * inputs.GRIND_WORKERS]}

    recorder = tally = None
    if args.trace:
        import repro.attacks.parallel as parallel_module

        recorder = SpanRecorder()
        tally = LocateTally(type(scheme.batch(xp=np)))
        recorder.patch(PasswordStore, "dump_records", "attack.dump")
        recorder.patch(parallel_module, "parse_password_file", "attack.parse")
        recorder.patch(ShardedAttackRunner, "run_stolen_file", "attack.run_stolen_file")

    setup_times: List[float] = []
    pool_starts: List[float] = []
    runner = store = None
    for attempt in range(SETUPS):
        if runner is not None:
            runner.close()
            wait_for_children()
        begin = time.perf_counter()
        store = PasswordStore(system=PassPointsSystem(image=cars_image(), scheme=scheme))
        store.enroll_many(enroll_list)
        runner = ShardedAttackRunner(workers=inputs.GRIND_WORKERS)
        warm = {name: record for name, record in ((n, store.record_for(n)) for n in warm_names)}
        pool_begin = time.perf_counter()
        runner.run_stolen_file(scheme, warm, dictionary, guess_budget=budget)
        pool_starts.append(time.perf_counter() - pool_begin)
        setup_times.append(time.perf_counter() - begin)

    try:
        if recorder is not None:
            recorder.reset()
            tally.reset()
        reference_before = hostinfo.reference_loop_s()
        workers = [child.pid for child in multiprocessing.active_children()]

        def cpu_now() -> int:
            return int(time.process_time() * 1e9) + hostinfo.cpu_ns_all(workers)

        rounds = []
        begin = time.perf_counter()
        while True:
            round_begin, cpu_begin = time.perf_counter(), cpu_now()
            result = runner.run_stolen_file(scheme, store.dump_records(), dictionary, guess_budget=budget)
            wall = time.perf_counter() - round_begin
            rounds.append((result, runner.last_stats, wall, cpu_now() - cpu_begin))
            if time.perf_counter() - begin >= args.seconds:
                break
        rss = hostinfo.peak_rss_mb(os.getpid()) + sum(hostinfo.peak_rss_mb(pid) for pid in workers)
        located = tally.read() if tally is not None else None
    finally:
        runner.close()
        wait_for_children()
    reference_after = hostinfo.reference_loop_s()
    print(f"# reference loop: {reference_before:.4f}s before, {reference_after:.4f}s after")
    print(f"# grind rounds: {len(rounds)}, cracked per round {rounds[0][0].cracked}, workers {workers}")
    print(f"# round wall times, ms: {[round(wall * 1e3, 1) for _, _, wall, _ in rounds]}")

    attempted = failed = 0
    for result, _, _, _ in rounds:
        observed = [(outcome.cracked, outcome.guesses_hashed) for outcome in result.outcomes]
        if [outcome.username for outcome in result.outcomes] != [name for name, _ in accounts]:
            failed += len(accounts)
        else:
            failed += checks.count_grind_mismatches(expected, observed)
        attempted += len(accounts)
    hashed = sum(result.hash_operations for result, _, _, _ in rounds)
    round_ms = [wall * 1e3 for _, _, wall, _ in rounds]

    if not args.trace:
        # One stolen-file grind is the unit a user of the attack waits
        # for, so its latency is the round's wall time, and throughput and
        # CPU are medians over rounds like the serving windows.
        metrics = {
            "setup_s": metric(median(setup_times), "s"),
            "ops_per_s": metric(median([r.hash_operations / wall for r, _, wall, _ in rounds]), "1/s"),
            "p50_ms": metric(np.percentile(round_ms, 50), "ms"),
            "cpu_us_per_op": metric(median([cpu / 1e3 / r.hash_operations for r, _, _, cpu in rounds]), "us"),
            "peak_rss_mb": metric(rss, "MB"),
        }
    else:
        recorder.write(os.path.join(OUT, f"spans-grind_stolen-{args.seed}.jsonl"))
        locate_ns, _, rows = located
        busy = sum(sum(stats.worker_busy.values()) for _, stats, _, _ in rounds)
        run_wall = recorder.layer_totals()["attack.run_stolen_file"]["wall_ns"] / 1e9
        cracked = sum(result.cracked for result, _, _, _ in rounds)
        metrics = with_all_layers(
            {
                "kernel.locate_ns_per_guess": metric(locate_ns / max(1, rows / inputs.CLICKS), "ns"),
                "attack.hash_ns_per_guess": metric((busy * 1e9 - locate_ns) / hashed, "ns"),
                "attack.guess_prep_s": metric(guess_prep_s, "s"),
                "attack.hashes_per_crack": metric(hashed / max(1, cracked), "count"),
                "attack.pool_start_s": metric(median(pool_starts), "s"),
                "attack.tasks": metric(median([s.tasks for _, s, _, _ in rounds]), "count"),
                "attack.waves": metric(median([s.waves for _, s, _, _ in rounds]), "count"),
                "attack.straggler_ratio": metric(median([s.straggler_ratio for _, s, _, _ in rounds]), "ratio"),
                "attack.worker_busy_share": metric(busy / (inputs.GRIND_WORKERS * run_wall), "ratio"),
                "traced.ops_per_s": metric(median([r.hash_operations / wall for r, _, wall, _ in rounds]), "1/s"),
            }
        )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- shared --------------------------------------------------------------------

def with_all_layers(values: Dict[str, dict]) -> Dict[str, dict]:
    """Every per-layer metric declared in ``BENCHMARK.json``, in its order.

    A workload that bypasses a layer reports that layer's metrics as 0:
    the layer did no work in the run.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {spec["name"]: spec["unit"] for spec in json.load(handle)["per_layer"]}
    wrong = sorted(name for name in values if values[name]["unit"] != declared.get(name))
    if wrong:
        raise KeyError(f"per-layer metrics undeclared or in another unit: {wrong}")
    return {name: values.get(name, metric(0.0, unit)) for name, unit in declared.items()}


def pin_cpus(workload: str) -> Tuple[Tuple[Optional[int], Optional[int]], str]:
    """Pin this process (the load generator) away from the server's CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if workload == "grind_stolen" or len(cpus) < 2:
        return (None, None), f"none (cpus {cpus})"
    server_cpu, client_cpu = cpus[0], cpus[1]
    os.sched_setaffinity(0, {client_cpu})
    return (server_cpu, client_cpu), f"server cpu {server_cpu}, load generator cpu {client_cpu}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"loadbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    host = hostinfo.header(ROOT, OUT)
    affinity, host["affinity"] = pin_cpus(args.workload)
    print(f"# host: {json.dumps(host)}")
    print(f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.workload == "grind_stolen":
        result = run_grind(args)
    else:
        result = run_serving(args, affinity)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
