"""The complex Chebyshev recurrence of fock_space.propagate, kept as its reference.

fock_space.propagate runs real blocks on real columns in real
arithmetic; this is the same series summed in complex arithmetic on
every input, from the same bounds, term count and coefficients.  The
two must agree bit for bit on every nonzero (a zero may change sign).
"""

import math

import numpy as np
import scipy.sparse as sp

from lvphoton import fock_space as fs


def propagate(b, columns, t):
    """exp(-i t b) @ columns (2-D), the complex recurrence on every input."""
    b = sp.csr_matrix(b, dtype=complex, copy=True)
    b.sum_duplicates()
    n = b.shape[0]
    diag = b.diagonal()
    rows = np.repeat(np.arange(n), np.diff(b.indptr))
    off = np.where(rows == b.indices, 0.0, np.abs(b.data))
    rad = 0.5 * (np.bincount(rows, off, minlength=n) + np.bincount(b.indices, off, minlength=n))
    lo = float(np.min(diag.real - rad))
    hi = float(np.max(diag.real + rad))
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    prev = np.array(columns, dtype=complex, order="C")
    if t == 0 or r == 0:
        return np.exp(-1j * t * diag)[:, None] * prev
    q2 = (float(np.max(np.abs(diag.imag) + rad)) / r) ** 2
    s = math.sqrt(0.5 * (q2 + math.sqrt(q2 * q2 + 4.0 * q2)))
    rho = s + math.sqrt(1.0 + s * s)
    bessel = fs._chebyshev_bessel(abs(t) * r, rho)
    orders = np.arange(bessel.size)
    coefs = np.where(orders, 2.0, 1.0) * (-1j * np.sign(t)) ** orders * bessel

    twice = (b - c * sp.identity(n, format="csr")) * (2.0 / r)
    real, imag = (
        sp.csr_matrix((data, twice.indices, twice.indptr), shape=twice.shape, copy=True)
        for data in (twice.data.real, twice.data.imag)
    )
    real.eliminate_zeros()
    imag.eliminate_zeros()

    def times_twice(x):  # 2 b~ x, each part on the float64 view of x
        view = x.view(np.float64)
        out = (real @ view).view(complex) if real.nnz else np.zeros_like(x)
        if imag.nnz:
            out += 1j * (imag @ view).view(complex)
        return out

    total = coefs[0] * prev
    if coefs.size > 1:
        cur = 0.5 * times_twice(prev)
        total += coefs[1] * cur
        for coef in coefs[2:]:
            nxt = times_twice(cur)
            nxt -= prev
            total += coef * nxt
            prev, cur = cur, nxt
    total *= np.exp(-1j * t * c)
    return total
