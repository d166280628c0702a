"""The `spectrum` values by the two paths the stacked kernel replaced: its references.

modes.spectrum_values evaluates the values for stacked sets and frames
from literal cell tables.  Two earlier paths stay here, one set and one
frame at a time:

- closed_form_values, the per-set closed form that `spectrum` used
  before the kernel was stacked: it builds the term vectors of h_t +
  h_pm_t with modes.factor_vector and B with transverse_bogoliubov from
  modes.quadratic_form, and contracts them in Python over the terms.
  The stacked kernel agrees with it to 2e-15 absolute, and matches its
  delta_* and cross_before columns bit for bit.
- transverse_values, the Fock-space path that `spectrum` took before
  its rows went to closed form: the six states (the vacuum, the four
  transverse one-photon states and the +-k pair) are evolved by
  exp(-Xi) on hamiltonian.transverse_space(cutoff), and H of
  transverse_reference.build_transverse is taken between them.
  Truncation at the cutoff clips the evolved states, so it equals the
  exact values only as the cutoff grows: to about 1e-4 in the gaps at
  cutoff 2 and scale 1e-2, and to roundoff from cutoff 6.
"""

import math

import numpy as np

from lvphoton import dispersion as dp
from lvphoton import hamiltonian as hm
from lvphoton import modes as md

import transverse_reference  # tests/transverse_reference.py


def photon_index(space, *modes):
    """Index of the state with one quantum in each listed mode."""
    occ = [0] * space.modes
    for mode in modes:
        occ[space.position(mode.slot)] += 1
    return space.index_of(occ)


def transverse_values(space, frame, kappas):
    """Transformed gaps and the pair-vacuum cross terms on one transverse factor."""
    h, xi = transverse_reference.build_transverse(space, kappas, frame)
    pair = photon_index(space, md.ModeId(md.PLUS_K, 1), md.ModeId(md.MINUS_K, 1))
    # vacuum, the four transverse one-photon states (+k then -k), the pair
    indices = [photon_index(space)]
    for direction in (md.PLUS_K, md.MINUS_K):
        indices += [photon_index(space, md.ModeId(direction, pol)) for pol in (1, 2)]
    indices.append(pair)
    states = np.zeros((len(indices), space.dim), dtype=complex)
    states[np.arange(len(indices)), indices] = 1.0
    (g,) = hm.transformed_matrices(space, [h], xi, states)
    energies = g.diagonal().real
    values = {}
    for name, first in (("plus", 1), ("minus", 3)):
        gap = 0.0
        for energy in energies[first : first + 2]:
            gap = max(gap, float(abs(energy - energies[0])))
        values[f"gap_{name}"] = gap
    # h_pm_t is the only part of h that joins the pair to the vacuum
    values["cross_before"] = float(abs(h[pair, indices[0]]))
    values["cross_after"] = float(abs(g[-1, 0]))
    return values


def transverse_bogoliubov(xi_terms):
    """B = expm(A_Xi) on the transverse modes, in closed form.

    On the four transverse modes Xi is two two-mode squeezes with the
    symmetric mixing matrix D = [[delta1, delta2], [delta2, -delta1]]
    (dispersion.mixing_deltas), and A_Xi squared is r^2 I with
    r^2 = delta1^2 + delta2^2.  So the exponential series sums to
    B = cosh r I + (sinh r / r) A_Xi, which is I at r = 0.  Since D is
    symmetric, so are A_Xi and B.
    """
    form = md.quadratic_form(xi_terms, md.TRANSVERSE_SLOTS)
    r = math.sqrt(np.trace(form @ form).real / len(form))
    return math.cosh(r) * np.eye(len(form)) + (math.sinh(r) / r if r else 1.0) * form


def closed_form_values(kappas, frame):
    """One `spectrum` row, without its scale, by the per-set closed form.

    Each term c F G of h_t + h_pm_t becomes c (B f).v (B g).v with B of
    transverse_bogoliubov, and its elements follow from
    [a_i, a_j-dagger] = delta_ij:

        gap of mode j    sum c (f_j g_{n+j} + f_{n+j} g_j)
        pair <- vacuum   sum c (f_{n+i} g_{n+j} + f_{n+j} g_{n+i})

    with the values as modes.spectrum_values names them.
    """
    terms = md.mode_terms(kappas, frame)
    h = terms["h_t"] + terms["h_pm_t"]
    n = len(md.TRANSVERSE_SLOTS)
    coefs = np.array([coef for coef, _, _ in h])
    f, g = (
        np.array([md.factor_vector(term[k], md.TRANSVERSE_SLOTS) for term in h]) for k in (1, 2)
    )
    b = transverse_bogoliubov(terms["xi"])
    f_after, g_after = f @ b.T, g @ b.T  # row m is B f_m
    i, j = (md.TRANSVERSE_SLOTS.index(md.ModeId(d, 1).slot) for d in (md.PLUS_K, md.MINUS_K))

    def pair(f, g):  # the a1(+k)-dagger a1(-k)-dagger element
        return abs(coefs @ (f[:, n + i] * g[:, n + j] + f[:, n + j] * g[:, n + i]))

    gaps = coefs @ (f_after[:, :n] * g_after[:, n:] + f_after[:, n:] * g_after[:, :n])
    values = {}
    # TRANSVERSE_SLOTS holds the two +k modes, then the two -k modes
    for name, gap, khat in (("plus", gaps[:2], frame.khat), ("minus", gaps[2:], -frame.khat)):
        want = 1.0 + dp.delta_nonbiref(kappas, khat)
        values[f"gap_{name}"] = float(np.max(np.abs(gap.real)))
        values[f"delta_{name}"] = want - 1.0
        values[f"gap_residual_{name}"] = abs(values[f"gap_{name}"] - want)
    values["cross_before"] = float(pair(f, g))
    values["cross_after"] = float(pair(f_after, g_after))
    return values
