"""Reference construction of the valid rank-4 tensors, by constraint nullspace.

This was the library's path before kf_from_kappas and project_kf were
built in closed form.  It writes every structural invariant as a row of a
1025 x 256 constraint matrix, takes the orthonormal nullspace N from its
thin SVD, asserts that it has dimension 19, and maps nullspace
coordinates to the canonical 19-vector through the read-off of
kappas_from_kf.  The closed form is checked against it.
"""

import functools

import numpy as np

from lvphoton import kappa_tensor as kt


@functools.cache
def nullspace_basis():
    """(N, fwd): the 256 x 19 nullspace and the 19 x 19 read-off map."""
    idx = np.arange(256).reshape(4, 4, 4, 4)
    sign = np.array([1.0, -1.0, -1.0, -1.0])
    rows = []

    def add(pairs):
        row = np.zeros(256)
        for coeff, (a, b, c, d) in pairs:
            row[idx[a, b, c, d]] += coeff
        rows.append(row)

    rng4 = range(4)
    for a in rng4:
        for b in rng4:
            for c in rng4:
                for d in rng4:
                    add([(1.0, (a, b, c, d)), (1.0, (b, a, c, d))])
                    add([(1.0, (a, b, c, d)), (1.0, (a, b, d, c))])
                    add([(1.0, (a, b, c, d)), (-1.0, (c, d, a, b))])
                    add([(1.0, (a, b, c, d)), (1.0, (a, d, b, c)), (1.0, (a, c, d, b))])
    add([(float(sign[a] * sign[b]), (a, b, a, b)) for a in rng4 for b in rng4])

    _, s, vt = np.linalg.svd(np.array(rows), full_matrices=False)
    basis = vt[s < 1e-10].T
    assert basis.shape == (256, 19)
    fwd = np.column_stack(
        [kt._flatten_kappas(kt.kappas_from_kf(basis[:, j].reshape(4, 4, 4, 4))) for j in range(19)]
    )
    return basis, fwd


def kf_from_kappas(k):
    """Components of the valid tensor with parameters k, by a 19 x 19 solve."""
    basis, fwd = nullspace_basis()
    return (basis @ np.linalg.solve(fwd, kt._flatten_kappas(k))).reshape(4, 4, 4, 4)


def project(components):
    """Orthogonal projection of raw components onto the nullspace."""
    basis, _ = nullspace_basis()
    flat = np.asarray(components, dtype=float).reshape(256)
    return (basis @ (basis.T @ flat)).reshape(4, 4, 4, 4)
