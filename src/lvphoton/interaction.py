"""Transformed transverse potentials and the birefringent current coupling.

The similarity transform that diagonalizes the transverse sector of the
Hamiltonian acts on the transverse potential operators as a small
anisotropic mixing: each polarization is rescaled by 1 -+ delta1 and
rotated into the other by -delta2, where delta1 and delta2 are frame
bilinears of the parity-even kappa matrix,

    delta1 = (E11 - E22) / 4,    delta2 = E12 / 2,
    E_rs = eps_r . (e_minus + I tr) . eps_s.

Substituted into the covariant coupling to a charged current, the mixing
makes the photon-charge interaction strength depend on which transverse
polarization the wave carries, even though the vacuum dispersion of the
two polarizations is identical: the coupling is birefringent while the
propagation is not.  The two diagonal coefficients differ by exactly
2 delta1.

No matter sector is modeled; the current components j1, j2 stay opaque
multipliers.  CouplingTable carries the four coefficient combinations
that multiply them against the two transverse potentials (and, with
conjugated currents, against the bar-adjoint potentials, which share the
same real coefficients).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fock_space as fs
from . import hamiltonian as hm
from .dispersion import polarization_frame
from .kappa_tensor import PERTURBATIVE_LIMIT

Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class CouplingTable:
    """Coefficients pairing the current components with the potentials.

    j1_pol1 multiplies j1 in the bracket coupling to the polarization-1
    potential, j2_pol1 the cross term in the same bracket, and likewise
    for polarization 2.  At kappa = 0 the table is the identity coupling
    (diagonal 1, cross 0).
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

    def as_matrix(self):
        """The table as a 2x2 array, rows = potentials, columns = currents."""
        return np.array(
            [[self.j1_pol1, self.j2_pol1], [self.j1_pol2, self.j2_pol2]]
        )


def _check_perturbative(kappas):
    if kappas.is_birefringent:
        raise ValueError("potential mixing assumes e_plus = o_minus = 0")
    if kappas.magnitude > PERTURBATIVE_LIMIT:
        raise ValueError("kappa parameters outside the perturbative regime")


def transverse_potential(space, polarization):
    """The transverse potential operator (a_r(+k) + abar_r(-k)) / sqrt(2).

    Natural units (the common prefactor sqrt(hbar c^2 / 2 omega) is one);
    polarization is 1 or 2 against the +k frame vectors.
    """
    if polarization not in (1, 2):
        raise ValueError("transverse polarization must be 1 or 2")
    a_plus = fs.annihilator(space, fs.ModeId(fs.PLUS_K, polarization))
    a_minus = fs.annihilator(space, fs.ModeId(fs.MINUS_K, polarization))
    return ((a_plus + fs.bar_adjoint(space, a_minus)) / math.sqrt(2)).tocsr()


def mixing_deltas(kappas, frame):
    """The two mixing parameters (delta1, delta2) for this frame.

    The isotropic tr part cancels in delta1's diagonal difference and in
    delta2's off-diagonal bilinear (the frame vectors are orthogonal),
    but both are computed from the full e_minus + I tr bilinear rather
    than simplified by hand.
    """
    e_bilinear, _ = hm.kappa_bilinears(kappas, frame)
    delta1 = 0.25 * (e_bilinear[1, 1] - e_bilinear[2, 2])
    delta2 = 0.5 * e_bilinear[1, 2]
    return delta1, delta2


def transformed_potentials(space, kappas, frame):
    """Exact conjugation exp(Xi) A_r exp(-Xi) of both transverse potentials.

    Returns the pair of dense transformed matrices.  To leading order in
    kappa they equal the mixed combinations

        A'_1 = (1 - delta1) A_1 - delta2 A_2
        A'_2 = (1 + delta1) A_2 - delta2 A_1

    (see first_order_potentials); the difference is O(kappa^2) on
    columns with transverse headroom.  On transverse-saturated columns
    the finite cutoff clips the operator products inside the
    conjugation at O(kappa), so comparisons against the mixed
    combinations must mask to transverse_interior columns.
    """
    _check_perturbative(kappas)
    xi = hm.xi_generators(space, kappas, frame)
    return (
        hm.similarity_transform(transverse_potential(space, 1), xi),
        hm.similarity_transform(transverse_potential(space, 2), xi),
    )


def transverse_interior(space):
    """Mask of basis states whose transverse occupations leave headroom.

    Ladder identities used by the conjugation hold exactly on these
    columns; truncation clipping is confined to states with some
    transverse occupation at the cutoff.
    """
    mask = np.ones(space.dim, dtype=bool)
    for direction in (fs.PLUS_K, fs.MINUS_K):
        for pol in (1, 2):
            number = fs.number_operator(space, fs.ModeId(direction, pol))
            mask &= number.diagonal().real < space.cutoff
    return mask


def first_order_potentials(space, kappas, frame):
    """The leading-order mixed potentials, as written above."""
    _check_perturbative(kappas)
    delta1, delta2 = mixing_deltas(kappas, frame)
    a_1 = transverse_potential(space, 1)
    a_2 = transverse_potential(space, 2)
    return (
        ((1.0 - delta1) * a_1 - delta2 * a_2).tocsr(),
        ((1.0 + delta1) * a_2 - delta2 * a_1).tocsr(),
    )


def _as_dense(operator):
    return operator.toarray() if sp.issparse(operator) else np.asarray(operator)


def extract_couplings(space, a1_prime, a2_prime, columns=None):
    """Project a pair of mixed potentials back onto the bare pair.

    The bare potentials act on disjoint modes and are orthogonal in the
    Frobenius product, so the projection recovers the mixing
    coefficients exactly, and those are the coefficients the current
    components acquire in the interaction term.  Pass a boolean column
    mask (typically transverse_interior) to keep truncation clipping
    out of the projection when the input is an exact conjugation.
    """
    a_1 = transverse_potential(space, 1).toarray()
    a_2 = transverse_potential(space, 2).toarray()
    a1_prime = _as_dense(a1_prime)
    a2_prime = _as_dense(a2_prime)
    if columns is not None:
        a_1 = a_1[:, columns]
        a_2 = a_2[:, columns]
        a1_prime = a1_prime[:, columns]
        a2_prime = a2_prime[:, columns]
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
    polarization frame through the same bilinears.
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
