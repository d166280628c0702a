"""Transverse potentials and the birefringent current coupling.

The similarity transform that diagonalizes the transverse sector of the
Hamiltonian acts on the transverse potential operators as a small
anisotropic mixing: each polarization is rescaled by 1 -+ delta1 and
rotated into the other by -delta2, where delta1 and delta2 are frame
bilinears of the parity-even kappa matrix,

    delta1 = (E11 - E22) / 4,    delta2 = E12 / 2,
    E_rs = eps_r . (e_minus + I tr) . eps_s  (dispersion.mixing_deltas).

Substituted into the covariant coupling to a charged current, the mixing
makes the photon-charge interaction strength depend on which transverse
polarization the wave carries, even though the vacuum dispersion of the
two polarizations is identical: the coupling is birefringent while the
propagation is not.  The two diagonal coefficients differ by exactly
2 delta1 at this order; modes.exact_couplings gives the table to all
orders, exp(-D) with D = [[delta1, delta2], [delta2, -delta1]], and
this first-order table is I - D from the same builder,
modes.coupling_table.

Every `space` here is the four-mode transverse factor
(hamiltonian.transverse_space), and the potentials are summed on it by
fock_space.monomial_sum from the 8-mode ladder factors.  The potentials
touch no scalar or longitudinal mode, so on the 8-mode space each of
them is the identity on the ghost modes times its factor operator; the
Frobenius ratios of extract_couplings gain the same ghost dimension
above and below, so the factor's table is the 8-mode table exactly.

No matter sector is modeled; the current components j1, j2 stay opaque
multipliers.  Every table here is an array of shape lead + (2, 2) whose
row r, [j1_polr, j2_polr], holds the coefficients that multiply them
against the polarization-r potential (and, with conjugated currents,
against the bar-adjoint potentials, which share the same real
coefficients); the birefringent asymmetry is t[..., 0, 0] - t[..., 1, 1].
"""

import math

import numpy as np

from . import fock_space as fs
from . import hamiltonian as hm
from . import modes as md
from .dispersion import Z_AXIS, mixing_deltas, polarization_frame


def transverse_potential(space, polarization):
    """The transverse potential operator (a_r(+k) + abar_r(-k)) / sqrt(2).

    Natural units (the common prefactor sqrt(hbar c^2 / 2 omega) is one);
    polarization is 1 or 2 against the +k frame vectors.  `space` is a
    transverse_space.
    """
    hm.check_transverse(space)
    if polarization not in (1, 2):
        raise ValueError("transverse polarization must be 1 or 2")
    S, _, _, Tb = md._mode_factors()
    return fs.monomial_sum(space, [(1 / math.sqrt(2), S[polarization] + Tb[polarization])])


def first_order_potentials(space, kappas, frame):
    """The leading-order mixed potentials A'_r = t[r, 0] A_1 + t[r, 1] A_2, as sparse matrices.

    t = I - D is the table of vint_coefficients in this frame:

        A'_1 = (1 - delta1) A_1 - delta2 A_2
        A'_2 = (1 + delta1) A_2 - delta2 A_1
    """
    table = md.coupling_table(1.0, 1.0, *mixing_deltas(kappas, frame))
    a_1 = transverse_potential(space, 1)
    a_2 = transverse_potential(space, 2)
    return tuple((row[0] * a_1 + row[1] * a_2).tocsr() for row in table)


def extract_couplings(space, a1_prime, a2_prime):
    """Project a pair of mixed sparse potentials back onto the bare pair.

    The bare potentials act on disjoint modes and are orthogonal in the
    Frobenius product, so the projection recovers the mixing
    coefficients exactly, and those are the coefficients the current
    components acquire in the interaction term.  Returns the complex
    (2, 2) table whose entry [i, j] is the share of bare potential j in
    mixed potential i.
    """
    bare = [transverse_potential(space, r).toarray() for r in (1, 2)]
    weights = [np.vdot(a, a) for a in bare]
    primes = [a1_prime.toarray(), a2_prime.toarray()]
    return np.array(
        [[np.vdot(a, p) / w for a, w in zip(bare, weights)] for p in primes], dtype=complex
    )


def vint_coefficients(kappas, khat=None):
    """The first-order current-coupling table I - D for a wave along khat.

    modes.coupling_table at c = s = 1: row r is [j1_polr, j2_polr], the
    entries 1 -+ delta1 and -delta2.  For khat = +z with polarizations
    along x and y they are the closed combinations

        t[0, 0] = (4 - e_minus_xx + e_minus_yy) / 4
        t[0, 1] = t[1, 0] = -e_minus_xy / 2
        t[1, 1] = (4 + e_minus_xx - e_minus_yy) / 4;

    any other direction conjugates the kappa matrices into that wave's
    polarization frame through the same bilinears.  Takes leading axes
    and refuses sets as dispersion.mixing_deltas does; returns an array
    of shape lead + (2, 2).
    """
    if khat is None:
        khat = Z_AXIS
    frame = polarization_frame(np.asarray(khat, dtype=float))
    return md.coupling_table(1.0, 1.0, *mixing_deltas(kappas, frame))
