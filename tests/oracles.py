"""Brute-force oracles shared by the test modules."""


def record_reference(table, start, keep_ties):
    """The whole-table exact record loop: every n >= start whose table[n]/n
    beats (or, when keep_ties, equals) the best ratio at start <= m < n, by
    exact cross-multiplication.  With a psi table, start 2 and ties kept,
    these are the psi-champions S; with a sigma table, start 1 and no ties,
    the superabundant numbers."""
    values = table.tolist()
    best_num, best_den = 0, 1
    out = []
    for n in range(start, len(values)):
        lhs = values[n] * best_den
        rhs = best_num * n
        if lhs > rhs:
            best_num, best_den = values[n], n
            out.append(n)
        elif keep_ties and lhs == rhs:
            out.append(n)
    return out
