"""Self-test of the correctness checkers in ``checks.py``.

Usage, from the root of a checkout::

    python3 loadbench/selftest.py

Each checker is first run against real program output on a small input —
in-process, no sockets — and must find no disagreement.  It is then fed
that output with one decision flipped or one crack rank shifted, and
must flag exactly that one.  Exits 0 when
every check behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

FAILURES = []


def expect(label: str, got, want) -> None:
    status = "ok" if got == want else "FAILED"
    if got != want:
        FAILURES.append(label)
    print(f"{status:6s} {label}: got {got!r}, want {want!r}")


def new_store():
    from repro.core.centered import CenteredDiscretization
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.policy import LockoutPolicy
    from repro.passwords.storage import backend_from_uri
    from repro.passwords.store import PasswordStore
    from repro.study.image import cars_image

    system = PassPointsSystem(
        image=cars_image(),
        scheme=CenteredDiscretization.for_pixel_tolerance(2, checks.TOLERANCE_PX),
    )
    return PasswordStore(
        system=system,
        policy=LockoutPolicy(max_failures=None),
        backend=backend_from_uri("memory:"),
    )


def as_points(clicks):
    from repro.geometry.point import Point

    return [Point.xy(int(x), int(y)) for x, y in clicks]


def program_statuses(store, names, stream) -> list:
    from repro.passwords.service import VerificationService

    service = VerificationService(store)
    attempts = [
        (names[account], as_points(points))
        for account, points in zip(stream.account.tolist(), stream.points)
    ]
    return [outcome.status for outcome in service.login_many(attempts)]


def check_logins() -> None:
    population = inputs.login_population(7)
    population.names = population.names[:256]
    population.points = population.points[:256]
    stream = inputs.login_round(7, population)
    store = new_store()
    store.enroll_many([(n, as_points(p)) for n, p in zip(population.names, population.points)])
    observed = program_statuses(store, population.names, stream)
    expected = checks.expected_logins(population.points[stream.account], stream.points)
    expect("logins: program agrees with the tolerance predicate",
           checks.count_status_mismatches(expected, observed), 0)
    expect("logins: stream holds accepts and rejects",
           sorted(set(observed)), ["accept", "reject"])
    offset = np.abs(stream.points - population.points[stream.account]).max(axis=(1, 2))
    expect("logins: ±9 px probes accepted, ±10 px probes rejected",
           [sorted({observed[i] for i in np.flatnonzero(offset == px)}) for px in (9, 10)],
           [["accept"], ["reject"]])
    flipped = list(observed)
    flipped[17] = "reject" if flipped[17] == "accept" else "accept"
    expect("logins: one flipped decision is caught",
           checks.count_status_mismatches(expected, flipped), 1)


def check_grind() -> None:
    from repro.attacks.offline import offline_attack_stolen_file, prepare_guess_batch
    from repro.experiments.common import default_dataset, default_dictionary

    budget = 512
    store = new_store()
    dictionary = default_dictionary("cars")
    batch = prepare_guess_batch(dictionary, budget, 2)
    guesses = np.array([[[int(p.x), int(p.y)] for p in e] for e in batch.entries], dtype=np.int64)
    accounts = [
        (f"user{s.password_id}", [[int(p.x), int(p.y)] for p in s.points])
        for s in default_dataset().passwords_on("cars")[:20]
    ]
    accounts += [(f"victim{rank:04d}", guesses[rank].tolist()) for rank in (3, 40, 200, 511)]
    accounts.sort()
    store.enroll_many([(name, as_points(clicks)) for name, clicks in accounts])
    result = offline_attack_stolen_file(
        store.system.scheme, store.dump_records(), dictionary, guess_budget=budget
    )
    observed = [(o.cracked, o.guesses_hashed) for o in result.outcomes]
    enrolled = np.array([clicks for _, clicks in accounts], dtype=np.int64)
    expected = checks.expected_grind(checks.first_crack_ranks(enrolled, guesses), budget)
    expect("grind: program agrees with the first in-tolerance rank",
           checks.count_grind_mismatches(expected, observed), 0)
    expect("grind: victims cracked", result.cracked >= 4, True)
    cracked = next(i for i, (hit, _) in enumerate(observed) if hit)
    shifted = list(observed)
    shifted[cracked] = (True, observed[cracked][1] + 1)
    expect("grind: one shifted rank is caught",
           checks.count_grind_mismatches(expected, shifted), 1)


def main() -> int:
    check_logins()
    check_grind()
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
