"""The Fraction Fourier-Motzkin kernel, kept as the oracle for the integer one.

Rows are (coeffs, rhs, strict) over the rationals, eliminated exactly with
``Fraction`` arithmetic and swept with ceil/floor of rational bounds.
``latticebound.geometry.integer_points`` must agree with ``integer_points``
here.
"""

from fractions import Fraction
from math import ceil, floor

from latticebound import EnumerationError


def _eliminate_last(rows, nvars):
    zero, pos, neg = [], [], []
    for a, b, strict in rows:
        c = a[nvars - 1]
        if c == 0:
            zero.append((a[: nvars - 1], b, strict))
        elif c > 0:
            pos.append((a, b, strict))
        else:
            neg.append((a, b, strict))
    out = zero
    for ap, bp, sp in pos:
        cp = ap[nvars - 1]
        for an, bn, sn in neg:
            cn = -an[nvars - 1]
            coeffs = tuple(
                ap[i] / cp + an[i] / cn for i in range(nvars - 1)
            )
            out.append((coeffs, bp / cp + bn / cn, sp or sn))
    return out


def _lower_int(bound, strict):
    # smallest integer x with x > bound (strict) or x >= bound
    if bound.denominator == 1:
        return bound.numerator + 1 if strict else bound.numerator
    return ceil(bound)


def _upper_int(bound, strict):
    if bound.denominator == 1:
        return bound.numerator - 1 if strict else bound.numerator
    return floor(bound)


def integer_points(rows, nvars, limit=None):
    """All integer solutions of the system, in lexicographic order.

    ``limit``: stop as soon as more than ``limit`` points were found and
    return the truncated list (used for early-exit counting).
    """
    rows = [
        (tuple(Fraction(c) for c in a), Fraction(b), strict)
        for a, b, strict in rows
    ]
    if nvars == 0:
        holds = all(0 < b if strict else 0 <= b for _, b, strict in rows)
        return [()] if holds else []
    systems = [None] * (nvars + 1)
    systems[nvars] = rows
    for v in range(nvars, 1, -1):
        systems[v - 1] = _eliminate_last(systems[v], v)

    results = []

    def sweep(prefix, v):
        lo, lo_strict = None, False
        hi, hi_strict = None, False
        for a, b, strict in systems[v + 1]:
            c = a[v]
            rest = b - sum(a[i] * prefix[i] for i in range(v))
            if c == 0:
                if rest < 0 or (rest == 0 and strict):
                    return False
            elif c > 0:
                bound = rest / c
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
            else:
                bound = rest / c
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
        if lo is None or hi is None:
            raise EnumerationError("region is unbounded")
        for x in range(_lower_int(lo, lo_strict), _upper_int(hi, hi_strict) + 1):
            if v + 1 == nvars:
                results.append(prefix + (x,))
                if limit is not None and len(results) > limit:
                    return True
            else:
                if sweep(prefix + (x,), v + 1):
                    return True
        return False

    sweep((), 0)
    return results

