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
orders, exp(-D) with D = [[delta1, delta2], [delta2, -delta1]].

Every `space` here is the four-mode transverse factor
(hamiltonian.transverse_space), and the potentials are summed on it by
fock_space.monomial_sum from the 8-mode ladder factors.  The potentials
touch no scalar or longitudinal mode, so on the 8-mode space each of
them is the identity on the ghost modes times its factor operator; the
Frobenius ratios of extract_couplings gain the same ghost dimension
above and below, so the factor's table is the 8-mode table exactly.

No matter sector is modeled; the current components j1, j2 stay opaque
multipliers.  CouplingTable carries the four coefficient combinations
that multiply them against the two transverse potentials (and, with
conjugated currents, against the bar-adjoint potentials, which share the
same real coefficients).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock_space as fs
from . import hamiltonian as hm
from . import modes as md
from .dispersion import Z_AXIS, mixing_deltas, polarization_frame


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """Coefficients pairing the current components with the potentials.

    j1_pol1 multiplies j1 in the bracket coupling to the polarization-1
    potential, j2_pol1 the cross term in the same bracket, and likewise
    for polarization 2.  At kappa = 0 the table is the identity coupling
    (diagonal 1, cross 0).  Fields are arrays for stacked inputs.
    """

    j1_pol1: complex
    j2_pol1: complex
    j1_pol2: complex
    j2_pol2: complex

    @property
    def polarization_asymmetry(self):
        """Difference of the diagonal coefficients, 2 delta1.

        The observable birefringence of the coupling: zero exactly when
        the parity-even kappa matrix looks isotropic in the transverse
        plane of this wave vector.
        """
        return self.j1_pol1 - self.j2_pol2


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
    """The leading-order mixed potentials, as sparse matrices:

        A'_1 = (1 - delta1) A_1 - delta2 A_2
        A'_2 = (1 + delta1) A_2 - delta2 A_1
    """
    delta1, delta2 = mixing_deltas(kappas, frame)
    a_1 = transverse_potential(space, 1)
    a_2 = transverse_potential(space, 2)
    return (
        ((1.0 - delta1) * a_1 - delta2 * a_2).tocsr(),
        ((1.0 + delta1) * a_2 - delta2 * a_1).tocsr(),
    )


def extract_couplings(space, a1_prime, a2_prime):
    """Project a pair of mixed sparse potentials back onto the bare pair.

    The bare potentials act on disjoint modes and are orthogonal in the
    Frobenius product, so the projection recovers the mixing
    coefficients exactly, and those are the coefficients the current
    components acquire in the interaction term.
    """
    a_1 = transverse_potential(space, 1).toarray()
    a_2 = transverse_potential(space, 2).toarray()
    a1_prime = a1_prime.toarray()
    a2_prime = a2_prime.toarray()
    weight_1 = np.vdot(a_1, a_1)
    weight_2 = np.vdot(a_2, a_2)
    return CouplingTable(
        j1_pol1=complex(np.vdot(a_1, a1_prime) / weight_1),
        j2_pol1=complex(np.vdot(a_2, a1_prime) / weight_2),
        j1_pol2=complex(np.vdot(a_1, a2_prime) / weight_1),
        j2_pol2=complex(np.vdot(a_2, a2_prime) / weight_2),
    )


def vint_coefficients(kappas, khat=None):
    """The interaction-term coefficient table for a wave along khat.

    For khat = +z with polarizations along x and y the four entries are
    the closed combinations

        j1_pol1 = (4 - e_minus_xx + e_minus_yy) / 4
        j2_pol1 = j1_pol2 = -e_minus_xy / 2
        j2_pol2 = (4 + e_minus_xx - e_minus_yy) / 4;

    any other direction conjugates the kappa matrices into that wave's
    polarization frame through the same bilinears.  Takes leading axes
    and refuses sets as dispersion.mixing_deltas does.
    """
    if khat is None:
        khat = Z_AXIS
    frame = polarization_frame(np.asarray(khat, dtype=float))
    delta1, delta2 = mixing_deltas(kappas, frame)
    return CouplingTable(
        j1_pol1=1.0 - delta1,
        j2_pol1=-delta2,
        j1_pol2=-delta2,
        j2_pol2=1.0 + delta1,
    )
