"""Metamorphic tests: report columns under joint rotations and k-hat -> -k-hat.

The physics does not change when the parameters and the direction turn
together, so a column that changes under a joint rotation (kappa,
k-hat) -> (R kappa, R k-hat) reads the polarization-frame convention of
dispersion.polarization_frame, not the physics.  Each `spectrum` and
`dispersion` column is either invariant, to 1e-12 relative or to the
stated absolute floor, or frame-bound, as the README lists it.
Reversing the direction swaps the +k and -k columns of `spectrum`.
Each `spectrum` case is one stacked spectrum_values call over all
draws; each `dispersion` case is one dispersion_table call per
parameter set, on a grid that spans three solver blocks.
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
    """The spectrum values of 200 draws at (kappa, k), (R kappa, R k) and (kappa, -k).

    "frozen" and "frozen_rotated" hold the first two evaluated in the
    frame of polarization_frame(Z_AXIS) whatever the direction: a
    frame that does not turn with the draw.
    """
    rng = np.random.default_rng(13)
    count = 200
    normals = rng.normal(size=(count, kt.DRAW_WIDTH[False]))
    normals *= 10.0 ** rng.uniform(-3.0, 0.0, size=(count, 1))  # magnitudes ~1e-5 to 3e-2
    kappas = kt.kappa_draws(normals)
    khats = dp.random_directions(rng, count)
    rots = checks._rotations(rng.normal(size=(count, 9)))
    turned = (rots @ khats[:, :, None])[:, :, 0]
    frozen = dp.polarization_frame(dp.Z_AXIS)
    return {
        "base": md.spectrum_values(kappas, dp.polarization_frame(khats)),
        "rotated": md.spectrum_values(kappas.rotated(rots), dp.polarization_frame(turned)),
        "reversed": md.spectrum_values(kappas, dp.polarization_frame(-khats)),
        "frozen": md.spectrum_values(kappas, frozen),
        "frozen_rotated": md.spectrum_values(kappas.rotated(rots), frozen),
    }


def _beyond(value, moved):
    """Where moved differs from value by more than 1e-12 relative and FLOOR."""
    return np.abs(moved - value) > np.maximum(1e-12 * np.abs(value), FLOOR)


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
            assert not np.any(_beyond(value, rotated[key])), key


def test_a_frame_that_does_not_turn_fails_the_comparison(moved):
    # the pair block and every other column read in the frame of Z_AXIS,
    # whatever the direction: each column then moves on every draw
    base, rotated = moved["frozen"], moved["frozen_rotated"]
    for key, value in base.items():
        assert np.all(_beyond(value, rotated[key])), key


def test_reversing_the_direction_swaps_plus_and_minus(moved):
    base, flipped = moved["base"], moved["reversed"]
    for key, value in base.items():
        if key not in FRAME_BOUND:
            assert not np.any(_beyond(value, flipped[_mirror(key)])), key


# ------------------------------------------------------------ dispersion

EPS = np.finfo(float).eps

#: Magnitudes of the sets of each sector.
MAGNITUDES = (1e-5, 1e-3, 1e-2, 3e-2)

#: Columns of a dispersion row that are the direction's components.
DISPERSION_FRAME_BOUND = ("kx", "ky", "kz")


def _dispersion_floors(magnitude, norms):
    """Absolute floors of the invariant dispersion columns of one set, per row.

    rho and delta are O(kappa) contractions, off by a few eps times the
    magnitude (14 eps at most, measured).  sigma is the root of a
    difference whose roundoff is of order eps |ktilde|^2, so where sigma
    is near 0 (every direction of a non-birefringent set) it is noise of
    order sqrt(eps) times the magnitude (3.3 sqrt(eps) at most).  The
    closed-form frequencies carry both times |k|, the numeric roots a
    few eps |k|, and the residuals |root - closed form|, O(kappa^2)
    differences, carry both.
    """
    shift = 64.0 * EPS * magnitude
    sigma = 8.0 * np.sqrt(EPS) * magnitude
    closed = (shift + sigma) * norms
    root = 16.0 * EPS * norms
    floors = {"delta": shift, "rho": shift, "sigma": sigma}
    for side in ("minus", "plus"):
        floors[f"omega_{side}"] = closed
        floors[f"omega_{side}_root"] = root
        floors[f"residual_{side}"] = closed + root
    return floors


def _parity(k):
    """The set seen in the mirror: o_plus and o_minus are parity-odd."""
    return kt.KappaSet(
        e_minus=k.e_minus, o_plus=-k.o_plus, tr=k.tr, e_plus=k.e_plus, o_minus=-k.o_minus
    )


@pytest.fixture(scope="module")
def dispersion_moved():
    """Per set of either sector: its floors and its dispersion columns at
    (kappa, k), (R kappa, R k), (P kappa, -k) and (kappa, -k), over 2 B + 3
    wavevectors."""
    rng = np.random.default_rng(17)
    count = 2 * dp.BLOCK_ROWS + 3
    rots = checks._rotations(rng.normal(size=(2 * len(MAGNITUDES), 9)))
    cases = []
    for n, (birefringent, magnitude) in enumerate(
        (b, m) for b in (False, True) for m in MAGNITUDES
    ):
        k = kt.random_kappas(rng, 1.0, birefringent)
        k = k.scaled(magnitude / k.magnitude)
        kvecs = dp.random_directions(rng, count) * rng.uniform(0.2, 5.0, size=(count, 1))
        cases.append({
            "birefringent": birefringent,
            "floors": _dispersion_floors(magnitude, np.linalg.norm(kvecs, axis=1)),
            "base": dp.dispersion_table(k, kvecs),
            "rotated": dp.dispersion_table(k.rotated(rots[n]), kvecs @ rots[n].T),
            "reversed": dp.dispersion_table(_parity(k), -kvecs),
            "flipped": dp.dispersion_table(k, -kvecs),
        })
    return cases


def _invariant(case, moved):
    """The invariant columns that moved beyond 1e-12 relative and their floor."""
    failed = []
    for key, value in case["base"].items():
        if key in DISPERSION_FRAME_BOUND or value is None:
            continue
        change = np.abs(case[moved][key] - value)
        if np.any(change > np.maximum(1e-12 * np.abs(value), case["floors"][key])):
            failed.append(key)
    return failed


def test_every_dispersion_column_is_invariant_or_frame_bound(dispersion_moved):
    assert {case["birefringent"] for case in dispersion_moved} == {False, True}
    for case in dispersion_moved:
        base, rotated = case["base"], case["rotated"]
        assert len(base["kx"]) > 2 * dp.BLOCK_ROWS  # three blocks of the solver
        assert (base["delta"] is None) == (rotated["delta"] is None) == case["birefringent"]
        assert _invariant(case, "rotated") == []
        # the components turn with the direction
        for key in DISPERSION_FRAME_BOUND:
            assert np.median(np.abs(rotated[key] - base[key])) > 0.1, key


def test_reversed_direction_with_mirrored_parameters_keeps_every_dispersion_column(
    dispersion_moved,
):
    # k-hat -> -k-hat alone moves rho by the parity-odd o_plus and
    # o_minus; with those blocks negated too, the rows are the same
    for case in dispersion_moved:
        assert _invariant(case, "reversed") == []
        assert "rho" in _invariant(case, "flipped")
        for key in DISPERSION_FRAME_BOUND:
            assert np.array_equal(case["reversed"][key], -case["base"][key])
