"""The frame bilinears as the double loop that dispersion.frame_bilinears replaced.

One parameter set and one frame per call, each entry a vector-matrix
product and a dot product of its own.  The kernel is checked against it
bit for bit, and the reference Hamiltonian builders of
test_hamiltonian.py take their coefficients from it, so that the
grouped cross-check does not read the kernel it checks.
"""

import numpy as np


def kappa_bilinears(kappas, frame):
    """Frame bilinears E_rs = eps_r.(e_minus + I tr).eps_s, O_rs = eps_r.o_plus.eps_s.

    Rows/columns 1..3 are the transverse/longitudinal frame vectors; the
    scalar row 0 is zero (the kappa matrices are purely spatial).
    """
    emt = kappas.e_minus + np.eye(3) * kappas.tr
    vecs = [None, frame.eps1, frame.eps2, frame.khat]
    E = np.zeros((4, 4))
    O = np.zeros((4, 4))
    for r in range(1, 4):
        for s in range(1, 4):
            E[r, s] = vecs[r] @ emt @ vecs[s]
            O[r, s] = vecs[r] @ kappas.o_plus @ vecs[s]
    return E, O


def mixing_deltas(E):
    """The coefficients (E11 - E22) / 4 and E12 / 2 of Xi1 and Xi2, from a loop E."""
    return 0.25 * (E[1, 1] - E[2, 2]), 0.5 * E[1, 2]
