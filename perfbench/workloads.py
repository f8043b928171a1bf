"""The three benchmark workloads and the output check of every operation.

Each workload is one pass of psirh commands, run the way a user runs them:
every command in a fresh interpreter through ``psirh.cli.main``.  A pass
returns nothing; the ``Pass`` object it is given times and checks each
operation.  The expected values come from the paper and from the package's
acceptance gate, never from psirh itself.

Why these three: ``primorial-tables`` is almost all ``prime_engine`` and
``primorial`` (the ordered double-double pass, the theta cache), with
``criteria`` and ``arith`` idle; ``range-scans`` is almost all the
``criteria`` float prefilter, with only base-prime sieving and no primorial
pass; ``exact-path`` uses ``arith`` both as bulk tables and as pointwise
trial division, plus the ``champions`` record scans.  So an optimisation of
one layer shows on one workload and should leave another unchanged.
"""

from __future__ import annotations

import math

SET_B = (2, 3, 4, 5, 6, 8, 10, 12, 18, 30)
SET_A = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84,
         120, 180, 240, 360, 720, 840, 2520, 5040)
# OEIS A004394, every term up to 10^6.
SUPERABUNDANT = (1, 2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720,
                 840, 1260, 1680, 2520, 5040, 10080, 15120, 25200, 27720,
                 55440, 110880, 166320, 277200, 332640, 554400, 665280,
                 720720)
# Table 1 of the paper as printed: n -> (theta ratio, ftilde successor ratio,
# k ratio), each as (printed value, decimals).
TABLE1 = {
    10: (("0.779", 3), ("0.987", 3), ("0.938", 3)),
    10**3: (("0.986", 3), ("0.9999980", 7), ("1.00378", 5)),
    10**5: (("0.99905", 5), ("0.99999999921", 11), ("1.000447", 6)),
    10**7: (("0.999958", 6), ("0.99999999999975", 14), ("1.0000423", 7)),
}
FTILDE_1E7 = (0.99999999999975, 5e-14)
# Table 2 of the paper: f(N_n) to two decimals.
TABLE2 = {3: 0.22, 10: -1.67, 100: -4.24, 1000: -6.23, 10**4: -8.06,
          10**5: -9.83}
TABLE2_TOLERANCE = 0.01
SIGMA_BOUND_WITNESS = 12
# First primorial index with p_n >= 20000, where the primorial bounds start.
FIRST_BOUND_INDEX = 2263

PRIMORIAL_HI = 10**7 + 1
SCAN_HI = 10**7
WINDOW = 5 * 10**6
WINDOW_START = (10**7, 95 * 10**6)
QUERIES = 1000
QUERY_RANGE = (10**11, 10**12)
# Warm table1 and table2 take a quarter second, mostly interpreter start-up,
# so one sample per pass is too noisy; their means pool these repeats.
SHORT_REPEATS = 4


class CheckFailed(Exception):
    """An operation's output disagrees with the expected result."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def parse_csv(text: str) -> tuple[list[dict], dict]:
    """The rows and the footer of a psirh CSV report."""
    rows, footer = [], {}
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            if header is not None:
                key, _, value = line[2:].partition("=")
                footer[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    expect(header is not None, "no CSV header in the report")
    return rows, footer


def report_body(text: str) -> str:
    """The report without its runtime footer line, the only field that may
    differ between two runs of the same command."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# runtime_s="))


# ---------------------------------------------------------------------------
# checks

def check_table1(text: str) -> None:
    rows, _ = parse_csv(text)
    got = {int(r["n"]): r for r in rows}
    expect(sorted(got) == sorted(TABLE1), f"table1 rows {sorted(got)}")
    for n, targets in TABLE1.items():
        values = (got[n]["theta_ratio"], got[n]["ftilde_ratio"],
                  got[n]["k_ratio"])
        for (printed, decimals), value in zip(targets, values):
            expect(abs(float(value) - float(printed)) <= 10.0**-decimals,
                   f"table1 n={n}: {value} vs printed {printed}")
    ftilde = float(got[10**7]["ftilde_ratio"])
    expect(abs(ftilde - FTILDE_1E7[0]) <= FTILDE_1E7[1],
           f"ftilde(10^7) = {ftilde!r}")


def check_same_body(cold: str):
    def check(text: str) -> None:
        expect(report_body(text) == report_body(cold),
               "warm table1 body differs from the cold one")
    return check


def check_table2(text: str) -> None:
    rows, _ = parse_csv(text)
    got = {int(r["n"]): float(r["f_value"]) for r in rows}
    expect(sorted(got) == sorted(TABLE2), f"table2 rows {sorted(got)}")
    for n, target in TABLE2.items():
        expect(abs(got[n] - target) <= TABLE2_TOLERANCE,
               f"f(N_{n}) = {got[n]} vs {target}")


def check_mertens(text: str) -> None:
    """exp(R_n)/log p_n approaches e^gamma/zeta(2) monotonically."""
    rows, _ = parse_csv(text)
    dev = [float(r["deviation"]) for r in rows]
    expect(len(dev) == 5, f"mertens has {len(dev)} rows")
    expect(all(a > b for a, b in zip(dev, dev[1:])),
           f"mertens deviations not decreasing: {dev}")
    expect(dev[-1] < 1e-4, f"mertens deviation at 10^5 is {dev[-1]}")


def check_bounds(first: int, last: int, sigma_last: int):
    def check(text: str) -> None:
        rows, _ = parse_csv(text)
        got = {r["bound"]: r for r in rows}
        expect(sorted(got) == ["f_primorial_upper", "loglogN_lower",
                               "sigma_upper"], f"bounds rows {sorted(got)}")
        for name in ("loglogN_lower", "f_primorial_upper"):
            row = got[name]
            expect(row["passed"] == "true", f"{name} failed: {row}")
            expect((int(row["first"]), int(row["last"])) == (first, last),
                   f"{name} covers [{row['first']}, {row['last']}]")
        sig = got["sigma_upper"]
        expect(sig["passed"] == "true", f"sigma bound failed: {sig}")
        expect(int(sig["witness"]) == SIGMA_BOUND_WITNESS,
               f"sigma bound witness {sig['witness']}")
        expect(int(sig["last"]) == sigma_last, f"sigma bound last {sig['last']}")
    return check


def check_exceptions(expected: tuple[int, ...]):
    def check(text: str) -> None:
        rows, footer = parse_csv(text)
        got = tuple(int(r["n"]) for r in rows)
        expect(got == expected, f"exceptions {got}")
        expect(int(footer["exceptions"]) == len(expected),
               f"footer exceptions={footer['exceptions']}")
    return check


def check_superabundant(text: str) -> None:
    rows, _ = parse_csv(text)
    got = tuple(int(r["n"]) for r in rows)
    expect(got == SUPERABUNDANT, f"superabundant list {got[:12]}...")


def check_props(text: str) -> None:
    rows, _ = parse_csv(text)
    got = {r["proposition"]: r for r in rows}
    expect(sorted(got) == ["prop1", "prop2", "psi_multiple_identity"],
           f"props rows {sorted(got)}")
    for name, row in got.items():
        expect(int(row["failures"]) == 0, f"{name}: {row['failures']} failures")
        expect(int(row["cases_checked"]) > 0, f"{name}: no cases checked")


_SMALL_PRIMES = tuple(p for p in range(2, 10**4 + 1)
                      if all(p % q for q in range(2, math.isqrt(p) + 1)))


def _is_squarefree(n: int) -> bool:
    """Independent oracle for n <= 10^12: divide out the primes up to 10^4;
    what remains has at most two prime factors, so it is squarefree unless
    it is a perfect square."""
    m = n
    for p in _SMALL_PRIMES:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
    return m == 1 or math.isqrt(m) ** 2 != m


def check_query(row: list) -> None:
    """f(n) < 0 and g(n) < 0, psi(n) <= sigma(n), and psi(n) = sigma(n)
    exactly when n is squarefree.  Equal integers psi(n), sigma(n) give
    equal float ratios psi(n)/n, sigma(n)/n; unequal ones differ by at
    least 1/n, far more than a rounding of a ratio below 7 at n <= 10^12."""
    n, _, f_ratio, f_value, g_ratio, g_value = row
    expect(f_value < 0 and g_value < 0, f"n={n}: f={f_value} g={g_value}")
    expect(f_ratio <= g_ratio, f"n={n}: psi/n={f_ratio} > sigma/n={g_ratio}")
    expect((f_ratio == g_ratio) == _is_squarefree(n),
           f"n={n}: psi = sigma disagrees with squarefreeness")


# ---------------------------------------------------------------------------
# workloads

def primorial_tables(p, rng) -> None:
    """Fixed paper checkpoints; the seed changes nothing here."""
    cache = p.path("theta.cache")
    cold = p.cli("table1_cold_s", ["table1", "--cache", cache], check_table1)
    for _ in range(SHORT_REPEATS):
        p.cli("table1_warm_s", ["table1", "--cache", cache],
              check_same_body(cold))
        p.cli("table2_s", ["table2"], check_table2)
    p.cli("mertens_s", ["mertens"], check_mertens)
    p.cli("bounds_s", ["bounds", "--hi", str(PRIMORIAL_HI),
                       "--sigma-hi", "1000"],
          check_bounds(FIRST_BOUND_INDEX, PRIMORIAL_HI, 999))


def range_scans(p, rng) -> None:
    a = rng.randint(*WINDOW_START)
    p.cli("scan_f_s", ["scan", "--criterion", "f", "--hi", str(SCAN_HI)],
          check_exceptions(SET_B))
    p.cli("scan_g_s", ["scan", "--criterion", "g", "--hi", str(SCAN_HI)],
          check_exceptions(SET_A))
    p.cli("scan_window_s", ["scan", "--criterion", "g", "--lo", str(a),
                            "--hi", str(a + WINDOW)],
          check_exceptions(()))
    p.cli("sigma_bound_s", ["bounds", "--lo", str(FIRST_BOUND_INDEX),
                            "--hi", str(FIRST_BOUND_INDEX),
                            "--sigma-hi", str(SCAN_HI)],
          check_bounds(FIRST_BOUND_INDEX, FIRST_BOUND_INDEX, SCAN_HI - 1))


def exact_path(p, rng) -> None:
    p.cli("superabundant_s", ["superabundant", "--limit", str(10**6)],
          check_superabundant)
    p.cli("props_s", ["props", "--limit", str(10**8),
                      "--prop2-limit", str(10**6)], check_props)
    p.queries([rng.randint(*QUERY_RANGE) for _ in range(QUERIES)], check_query)


# name -> (pass function, its four step metrics in BENCHMARK.json order)
WORKLOADS = {
    "primorial-tables": (primorial_tables, ("table1_cold_s", "table1_warm_s",
                                            "bounds_s", "table2_s")),
    "range-scans": (range_scans, ("scan_f_s", "scan_g_s", "scan_window_s",
                                  "sigma_bound_s")),
    "exact-path": (exact_path, ("superabundant_s", "props_s",
                                "query_p50_ms", "query_p99_ms")),
}
