"""Metamorphic tests: report columns under joint rotations and k-hat -> -k-hat.

The physics does not change when the parameters and the direction turn
together, so a column that changes under a joint rotation (kappa,
k-hat) -> (R kappa, R k-hat) reads the polarization-frame convention of
dispersion.polarization_frame, not the physics.  Each `spectrum` column
is either invariant, to 1e-12 relative or to the stated absolute floor,
or frame-bound, as the README lists it.  Reversing the direction swaps
the +k and -k columns.  Each case is one stacked spectrum_values call
over all draws.
"""

import numpy as np
import pytest

from lvphoton import checks
from lvphoton import dispersion as dp
from lvphoton import kappa_tensor as kt
from lvphoton import modes as md

#: Absolute floor of the invariant columns: roundoff of the O(1) gaps.
FLOOR = 4.0 * np.finfo(float).eps

#: Columns that read eps1 of the frame: the pair element of polarization 1.
FRAME_BOUND = ("cross_before", "cross_after")


@pytest.fixture(scope="module")
def moved():
    """The spectrum values of 200 draws at (kappa, k), (R kappa, R k) and (kappa, -k)."""
    rng = np.random.default_rng(13)
    count = 200
    normals = rng.normal(size=(count, kt.DRAW_WIDTH[False]))
    normals *= 10.0 ** rng.uniform(-3.0, 0.0, size=(count, 1))  # magnitudes ~1e-5 to 3e-2
    kappas = kt.kappa_draws(normals)
    khats = dp.random_directions(rng, count)
    rots = checks._rotations(rng.normal(size=(count, 9)))
    turned = (rots @ khats[:, :, None])[:, :, 0]
    return {
        "base": md.spectrum_values(kappas, dp.polarization_frame(khats)),
        "rotated": md.spectrum_values(kappas.rotated(rots), dp.polarization_frame(turned)),
        "reversed": md.spectrum_values(kappas, dp.polarization_frame(-khats)),
    }


def _mirror(key):
    """The column of the other direction: plus <-> minus."""
    return key.replace("plus", "@").replace("minus", "plus").replace("@", "minus")


def test_every_column_is_invariant_or_frame_bound(moved):
    base, rotated = moved["base"], moved["rotated"]
    for key, value in base.items():
        change = np.abs(rotated[key] - value)
        if key in FRAME_BOUND:
            # the frame-bound columns really move: by a median 41% of their
            # larger value on these draws, and by up to 99%
            relative = change / np.maximum(value, rotated[key])
            assert np.median(relative) > 0.1, key
        else:
            assert np.all(change <= np.maximum(1e-12 * np.abs(value), FLOOR)), key


def test_reversing_the_direction_swaps_plus_and_minus(moved):
    base, flipped = moved["base"], moved["reversed"]
    for key, value in base.items():
        if key not in FRAME_BOUND:
            change = np.abs(flipped[_mirror(key)] - value)
            assert np.all(change <= np.maximum(1e-12 * np.abs(value), FLOOR)), key
