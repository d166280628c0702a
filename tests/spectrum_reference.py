"""The `spectrum` values on a truncated transverse factor, the exact rows' reference.

This is the Fock-space path that `spectrum` took before its rows went
to closed form (modes.spectrum_values): the six states (the vacuum, the
four transverse one-photon states and the +-k pair) are evolved by
exp(-Xi) on hamiltonian.transverse_space(cutoff), and H of
transverse_reference.build_transverse is taken between them.  Truncation at the cutoff clips the evolved states, so it
equals the exact rows only as the cutoff grows: to about 1e-4 in the
gaps at cutoff 2 and scale 1e-2, and to roundoff from cutoff 6.
"""

import numpy as np

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
