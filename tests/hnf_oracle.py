"""Hermite normal form by plain Euclid steps, kept as the oracle for
``latticebound.exact.hnf``.

Column by column, the two rows with the smallest nonzero entries in the
column are reduced against each other until one nonzero entry is left:
no extended gcd, no closed-form tail.  ``latticebound.exact.hnf`` must
agree with ``hnf`` here.
"""


def hnf(m):
    """Hermite normal form of an integer matrix with at least as many rows
    as columns, or None when its columns are linearly dependent."""
    h = [list(row) for row in m]
    for col in range(len(h[0])):
        while True:
            nz = [i for i in range(col, len(h)) if h[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(h[i][col]))
            small, other = nz[0], nz[1]
            q = h[other][col] // h[small][col]
            h[other] = [a - q * b for a, b in zip(h[other], h[small])]
        if not nz:
            return None
        h[col], h[nz[0]] = h[nz[0]], h[col]
        if h[col][col] < 0:
            h[col] = [-x for x in h[col]]
        for i in range(col):
            q = h[i][col] // h[col][col]
            h[i] = [a - q * b for a, b in zip(h[i], h[col])]
    return h
