"""A fixed stand-in for a psirh command, timed to gauge the host's speed.

    python3 perfbench/reference.py

It runs no psirh code.  A fresh interpreter imports numpy, runs a pure-Python
loop and a numpy sieve, checks both results and exits: start-up, interpreted
arithmetic and array work, the three kinds of work a psirh command does.  A
change to psirh cannot move its time; a slower or faster host moves it as it
moves the commands.  It exits non-zero if a result is wrong.
"""

from __future__ import annotations

import math

import numpy as np

LOOP_N = 750_000
SIEVE_N = 3 * 10**7
PRIMES_BELOW_SIEVE_N = 1857859


def main() -> None:
    total = 0
    for i in range(LOOP_N):
        total += i * i
    if total != (LOOP_N - 1) * LOOP_N * (2 * LOOP_N - 1) // 6:
        raise SystemExit(f"reference loop sum is {total}")
    sieve = np.ones(SIEVE_N, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(SIEVE_N) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    count = int(np.count_nonzero(sieve))
    if count != PRIMES_BELOW_SIEVE_N:
        raise SystemExit(f"reference sieve found {count} primes")


if __name__ == "__main__":
    main()
