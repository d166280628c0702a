"""H, Xi and the transformed potentials on a truncated transverse factor.

This is the Fock-space path that the exact transverse values took
before they went to closed form (modes.spectrum_values and
modes.exact_couplings): H and Xi summed on
hamiltonian.transverse_space(cutoff), the potentials conjugated by
exp(Xi) over the factor's basis, and the conjugated pair projected back
onto the bare pair on a chosen set of columns.  Truncation at the
cutoff clips the operator products inside the conjugation, so it equals
the closed forms only on columns with headroom below the cutoff.
"""

import numpy as np
import scipy.sparse as sp

from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import interaction as ia
from lvphoton import modes as md

#: <ghost vacuum| h_ls0 + h_lslv |ghost vacuum>.  The +k terms of h_ls0,
#: a_r bar(a_r), give zeta_r on the vacuum since [a_r, bar(a_r)] = zeta_r,
#: and its -k terms are normal ordered.  Every h_lslv term annihilates
#: the ghost vacuum or changes its occupations (a_g commutes with the
#: physical dagger of a_d), so h_lslv adds nothing.
GHOST_VACUUM_ENERGY = md.ZETA[3] - md.ZETA[0]


def build_transverse(space, kappas, frame):
    """H and Xi on the transverse factor, for states with empty ghost modes.

    Xi, h_t and h_pm_t act only on the transverse modes.  Between
    states whose scalar and longitudinal modes are empty, h_p_tls and
    h_m_tls vanish (each term moves one ghost quantum) and h_ls0 +
    h_lslv is the constant GHOST_VACUUM_ENERGY.  On those states the
    8-mode H and Xi are therefore the ghost vacuum times the returned
    h = h_t + h_pm_t + c I and xi, with the same entries: both are the
    same mode_terms summed on the factor.  `space` is a
    transverse_space; returns (h, xi).
    """
    hm.check_transverse(space)
    terms = md.mode_terms(kappas, frame)
    h = fs.monomial_sum(space, terms["h_t"] + terms["h_pm_t"])
    h = h + GHOST_VACUUM_ENERGY * sp.identity(space.dim, format="csr")
    return h.tocsr(), fs.monomial_sum(space, terms["xi"])


def transformed_potentials(space, kappas, frame):
    """Exact conjugation exp(Xi) A_r exp(-Xi) of both transverse potentials.

    Xi is the factor generator of build_transverse.  On the factor the
    metric is +1 and Xi-dagger = -Xi exactly, so with Phi = exp(-Xi),
    evolved once over the factor's basis by
    hamiltonian.transformed_matrices (one block of Xi at a time) and
    shared by both potentials, Phi^dagger A_r Phi is the conjugation;
    it needs no dense exponential and no dimension cap.  Returns the
    pair of dense transformed matrices.  To leading order in kappa they
    equal the mixed combinations of interaction.first_order_potentials;
    the difference is O(kappa^2) on columns with transverse headroom.
    On transverse-saturated columns the finite cutoff clips the
    operator products inside the conjugation at O(kappa), so
    comparisons must mask to fock_space.interior_mask columns.
    """
    _, xi = build_transverse(space, kappas, frame)
    basis = sp.identity(space.dim, dtype=complex, format="csc")
    potentials = [ia.transverse_potential(space, r) for r in (1, 2)]
    return hm.transformed_matrices(space, potentials, xi, basis)


def _as_dense(operator):
    return operator.toarray() if sp.issparse(operator) else np.asarray(operator)


def masked_couplings(space, a1_prime, a2_prime, columns):
    """interaction.extract_couplings on the boolean column mask `columns` only.

    The potentials may be dense or sparse.  Masking to columns with
    headroom (typically fock_space.interior_mask) keeps truncation
    clipping out of the projection when the input is an exact
    conjugation.  Returns the complex (2, 2) table in extract_couplings'
    layout: row r is [j1_polr, j2_polr].
    """
    bare = [ia.transverse_potential(space, r).toarray()[:, columns] for r in (1, 2)]
    weights = [np.vdot(a, a) for a in bare]
    primes = [_as_dense(p)[:, columns] for p in (a1_prime, a2_prime)]
    return np.array(
        [[np.vdot(a, p) / w for a, w in zip(bare, weights)] for p in primes], dtype=complex
    )
