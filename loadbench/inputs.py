"""Seeded inputs for every workload.

The same ``(workload, seed)`` always yields the same populations, attempt
streams and planted victims; both the load generator and the server
launcher build them from here, so no input file travels between them.
The program only ever sees the generated coordinates.

Coordinates are integer pixels on the 451×331 *cars* image, kept
``MARGIN`` pixels from the border so that every jitter and every
attacker shift below stays inside the image (an out-of-image click would
be a domain error, not a decision).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

IMAGE_WIDTH, IMAGE_HEIGHT = 451, 331
CLICKS = 5
MARGIN = 40

#: Connections the load generator opens; accounts are split across them
#: by index parity so each account's attempts travel in order on one.
CONNECTIONS = 2

#: Requests one connection writes before reading their answers.
BURST = 32

# -- login_tcp ---------------------------------------------------------------

LOGIN_ACCOUNTS = 2048
LOGIN_ATTEMPTS_PER_ACCOUNT = 10
#: One account in this many also gets two boundary probes per round: one
#: click moved to exactly ±9 px on one axis (the last pixel inside the
#: tolerance square) and to exactly ±10 px (the first pixel outside).
LOGIN_PROBE_EVERY = 16

# -- warm-up -----------------------------------------------------------------

#: Accounts used only by the warm-up, disjoint from every measured one.
WARM_ACCOUNTS = 64
WARM_ATTEMPTS = 2048

# -- grind_stolen ------------------------------------------------------------

GRIND_BUDGET = 8192
GRIND_VICTIMS = 16
GRIND_WORKERS = 2


def _rng(workload: str, seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (workload, seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(f"{workload}/{stream}".encode())])


def random_passwords(rng: np.random.Generator, count: int) -> np.ndarray:
    """``(count, CLICKS, 2)`` int64 click-points away from the border."""
    xs = rng.integers(MARGIN, IMAGE_WIDTH - MARGIN, size=(count, CLICKS))
    ys = rng.integers(MARGIN, IMAGE_HEIGHT - MARGIN, size=(count, CLICKS))
    return np.stack([xs, ys], axis=2).astype(np.int64)


@dataclass
class Population:
    """Usernames and their enrolled click-points (``(N, CLICKS, 2)``)."""

    names: List[str]
    points: np.ndarray

    def as_accounts(self) -> List[Tuple[str, List[List[int]]]]:
        """``(username, [[x, y], ...])`` pairs for enrollment."""
        return [(name, pts.tolist()) for name, pts in zip(self.names, self.points)]


@dataclass
class Stream:
    """Attempts in send order, split per connection.

    ``account[i]`` indexes into the measured population, ``points[i]`` is
    the attempt's ``(CLICKS, 2)`` coordinates and ``connection[i]`` the
    connection that carries it.
    """

    account: np.ndarray
    points: np.ndarray
    connection: np.ndarray


def warm_population(workload: str, seed: int) -> Population:
    """Warm-up accounts, never touched by a measured attempt."""
    rng = _rng(workload, seed, "warm")
    return Population(
        [f"warm{i:03d}" for i in range(WARM_ACCOUNTS)],
        random_passwords(rng, WARM_ACCOUNTS),
    )


def warm_stream(population: Population) -> Stream:
    """Exact re-entries on the warm-up accounts (always accepted)."""
    account = np.arange(WARM_ATTEMPTS) % len(population.names)
    return Stream(account, population.points[account], account % CONNECTIONS)


def login_population(seed: int) -> Population:
    """The ``login_tcp`` accounts."""
    rng = _rng("login_tcp", seed, "population")
    return Population(
        [f"u{i:05d}" for i in range(LOGIN_ACCOUNTS)],
        random_passwords(rng, LOGIN_ACCOUNTS),
    )


def login_round(seed: int, population: Population) -> Stream:
    """One round of the ``login_tcp`` stream, plus boundary probes.

    The round is the program's own flood mix,
    :func:`repro.serving.flood.mixed_stream` at its defaults (a quarter of
    the attempts shift every click by (−25, +25), the rest alternate exact
    re-entry and ±3 px jitter), over every account
    ``LOGIN_ATTEMPTS_PER_ACCOUNT`` times, read back as coordinates.  The
    mix never comes near the edge of the tolerance square, so one account
    in ``LOGIN_PROBE_EVERY`` also gets a ±9 px and a ±10 px probe, spread
    evenly through the round.  The round is replayed back to back for the
    whole timed phase; with lockout off each attempt's decision depends
    only on its own clicks, so a replay is decided like the first pass.
    """
    from repro.geometry.point import Point
    from repro.serving.flood import mixed_stream

    index = {name: i for i, name in enumerate(population.names)}
    accounts = {
        name: [Point.xy(int(x), int(y)) for x, y in clicks]
        for name, clicks in zip(population.names, population.points.tolist())
    }
    mixed = mixed_stream(
        accounts,
        LOGIN_ACCOUNTS * LOGIN_ATTEMPTS_PER_ACCOUNT,
        seed=seed,
        bounds=(IMAGE_WIDTH, IMAGE_HEIGHT),
    )
    account = np.array([index[name] for name, _ in mixed], dtype=np.int64)
    points = np.array(
        [[[int(p.x), int(p.y)] for p in clicks] for _, clicks in mixed], dtype=np.int64
    )

    rng = _rng("login_tcp", seed, "probes")
    probed = np.arange(0, len(population.names), LOGIN_PROBE_EVERY)
    probe_account = np.repeat(probed, 2)
    probe_points = population.points[probe_account].copy()
    click = rng.integers(0, CLICKS, size=len(probed))
    axis = rng.integers(0, 2, size=len(probed))
    sign = rng.choice([-1, 1], size=len(probed))
    rows = np.arange(len(probed)) * 2
    probe_points[rows, click, axis] += 9 * sign
    probe_points[rows + 1, click, axis] += 10 * sign

    # Each probe goes in at a fixed spacing through the round (stable sort).
    keys = np.concatenate(
        [
            np.arange(len(account), dtype=np.float64),
            (np.arange(len(probe_account)) + 0.5) * len(account) / len(probe_account),
        ]
    )
    order = np.argsort(keys, kind="stable")
    account = np.concatenate([account, probe_account])[order]
    points = np.concatenate([points, probe_points])[order]
    return Stream(account, points, account % CONNECTIONS)


def grind_victim_ranks(seed: int) -> np.ndarray:
    """Sorted dictionary ranks at which the grind's victims are planted."""
    rng = _rng("grind_stolen", seed, "victims")
    return np.sort(rng.choice(GRIND_BUDGET, size=GRIND_VICTIMS, replace=False))
