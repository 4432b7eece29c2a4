"""Independent correctness predicates for the load benchmark.

Nothing here imports the program under test.  Each predicate recomputes
an expected outcome from the raw click coordinates alone, so a run is
checked against the paper's acceptance rule rather than against a stored
copy of some earlier output:

* a login is accepted exactly when every click lies within ±``TOLERANCE_PX``
  pixels (``|dx| <= r`` and ``|dy| <= r``) of its enrolled click, in order
  — the centered tolerance square;
* a stolen-file grind cracks an account at its first in-tolerance
  dictionary rank, having hashed ``rank + 1`` guesses, or hashes the whole
  budget and cracks nothing.

``selftest.py`` feeds each checker one deliberately wrong program output
and requires the checker to flag it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Pixel tolerance of the deployment under test (13×13 would be r = 6).
TOLERANCE_PX = 9


def within_tolerance(enrolled: np.ndarray, attempts: np.ndarray) -> np.ndarray:
    """Boolean acceptance of each attempt against its enrolled password.

    *enrolled* and *attempts* are ``(N, clicks, 2)`` integer arrays, row
    ``i`` of one pairing with row ``i`` of the other.
    """
    return np.all(np.abs(attempts - enrolled) <= TOLERANCE_PX, axis=(1, 2))


def expected_logins(enrolled: np.ndarray, attempts: np.ndarray) -> List[str]:
    """Expected status of each attempt with lockout off."""
    return ["accept" if ok else "reject" for ok in within_tolerance(enrolled, attempts)]


def count_status_mismatches(
    expected: Sequence[str], observed: Sequence[Optional[str]]
) -> int:
    """Attempts whose observed status (``None`` = no answer) differs."""
    if len(expected) != len(observed):
        raise ValueError(f"{len(expected)} expectations, {len(observed)} answers")
    return sum(1 for want, got in zip(expected, observed) if want != got)


def first_crack_ranks(enrolled: np.ndarray, guesses: np.ndarray) -> np.ndarray:
    """First in-tolerance guess rank per account, ``-1`` when none.

    *enrolled* is ``(A, clicks, 2)``, *guesses* ``(G, clicks, 2)`` in
    dictionary rank order.  Accounts are processed in blocks to bound the
    ``A × G × clicks × 2`` comparison.
    """
    ranks = np.full(len(enrolled), -1, dtype=np.int64)
    block = max(1, 4_000_000 // max(1, guesses.size))
    for start in range(0, len(enrolled), block):
        part = enrolled[start : start + block]
        hit = np.all(
            np.abs(guesses[None, :, :, :] - part[:, None, :, :]) <= TOLERANCE_PX,
            axis=(2, 3),
        )
        found = hit.any(axis=1)
        ranks[start : start + block] = np.where(found, hit.argmax(axis=1), -1)
    return ranks


def expected_grind(ranks: np.ndarray, budget: int) -> List[Tuple[bool, int]]:
    """Expected ``(cracked, guesses_hashed)`` per account."""
    return [
        (True, int(rank) + 1) if 0 <= rank < budget else (False, budget)
        for rank in ranks
    ]


def count_grind_mismatches(
    expected: Sequence[Tuple[bool, int]], observed: Sequence[Tuple[bool, int]]
) -> int:
    """Accounts whose ``(cracked, guesses_hashed)`` differs."""
    if len(expected) != len(observed):
        raise ValueError(f"{len(expected)} expectations, {len(observed)} outcomes")
    return sum(1 for want, got in zip(expected, observed) if tuple(want) != tuple(got))
