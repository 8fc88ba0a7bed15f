"""Independent oracles for the benchmark's outputs.

Nothing here imports hilbprod: every check is either a direct formula, a
recurrence that shares no code with the engine, or a value pinned when the
benchmark was defined.
"""

from __future__ import annotations

from math import comb

# Violation counts of verify_lemma_inequalities, keyed by (mode, n_max, p_max),
# pinned from the exhaustive scan when the benchmark was defined.
LEMMA_VIOLATIONS = {
    ("diff_length", 16, 6): 39934,
    ("same_length", 16, 6): 3472,
}

# sha256 of the sorted (surface, a, b, outcome, witness) lines of the whole
# decide sweep; see decide_line.  Rule statements are left out on purpose.
DECIDE_DIGEST = "f01bb80d046be05c39fffce06a98bdc5535830d1a5e414f2124d1fc4c2ab34fc"


def colored_table(k: int, n_max: int) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^-k up to q^n_max.

    Uses the log-derivative recurrence n a_n = k * sum_j sigma(j) a_{n-j},
    where sigma is the divisor sum; the division by n is exact.
    """
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            sigma[m] += d
    table = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = k * sum(sigma[j] * table[n - j] for j in range(1, n + 1))
        if total % n:
            raise ArithmeticError(f"inexact division at n = {n}, k = {k}")
        table[n] = total // n
    return table


def _multiset(h: int, j: int) -> int:
    """Coefficient of u^j in (1 - u)^-h."""
    return 1 if j == 0 else comb(h + j - 1, j)


def hodge_p0(h10: int, h20: int, n: int, p: int) -> int:
    """Coefficient of x^p t^n in (1+xt)^h10 / ((1-t)(1-x^2 t)^h20)."""
    total = 0
    for c in range(min(h10, p) + 1):
        if (p - c) % 2:
            continue
        j = (p - c) // 2
        if c + j <= n:
            total += comb(h10, c) * _multiset(h20, j)
    return total


def partitions_by_length_count(n: int) -> list[int]:
    """counts[k] = number of partitions of n into exactly k parts."""
    # p(m, k) = p(m - 1, k - 1) + p(m - k, k)
    p = [[0] * (n + 1) for _ in range(n + 1)]
    p[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            p[m][k] = p[m - 1][k - 1] + p[m - k][k]
    return p[n]


def pair_counts(n: int) -> tuple[int, int]:
    """(same-length, different-length) unordered pairs of distinct partitions of n."""
    counts = partitions_by_length_count(n)
    same = sum(comb(c, 2) for c in counts)
    return same, comb(sum(counts), 2) - same


def scan_pairs(mode: str, n_max: int) -> list[int]:
    """Closed-form pair count per n = 1..n_max for a scan of the given mode."""
    index = 1 if mode == "diff_length" else 0
    return [pair_counts(n)[index] for n in range(1, n_max + 1)]


def lemma_values(a: tuple[int, ...], b: tuple[int, ...], p: int, form: str) -> tuple[int, int]:
    """Both sides of one lemma-scan comparison, recomputed from the parts."""
    def prod(values):
        out = 1
        for v in values:
            out *= v
        return out

    if form == "unit-shift-product":
        return prod(x + 1 for x in a), prod(x + 1 for x in b)
    if form == "shift-ratio-cross-multiplied":
        return prod(x + p for x in a) * p ** len(b), prod(x + p for x in b) * p ** len(a)
    if form == "binomial-product":
        return prod(comb(x + p, p) for x in a), prod(comb(x + p, p) for x in b)
    raise ValueError(f"unknown lemma form {form!r}")


def decide_line(surface: str, a, b, outcome: str, witness) -> str:
    """One canonical line of the decide digest (rule text excluded)."""
    w = "-" if witness is None else (
        f"{witness.invariant}:{witness.index}:{witness.value_a}:{witness.value_b}"
    )
    return f"{surface}|{','.join(map(str, a))}|{','.join(map(str, b))}|{outcome}|{w}"
