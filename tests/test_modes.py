"""The term table's quadratic form and the closed-form `spectrum` values.

quadratic_form is checked against commutators of sparse Fock-space
matrices on states where truncation cannot act.  The stacked kernel
spectrum_values is checked four ways: its literal cell tables against
the forms of mode_terms and quadratic_form, its stacked rows against
its one-set calls bit for bit, its values against the per-set closed
form of tests/spectrum_reference.py, and against that file's
Fock-factor evolution at a cutoff deep enough that its truncation is
below roundoff.  The closed-form B is checked against scipy's dense
expm, and the exact coupling table against the projection of B onto
the potentials' factors.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt
from lvphoton import modes as md

import spectrum_reference  # tests/spectrum_reference.py


def _draws(seed, count, top=2e-2):
    """(kappas, frame) pairs: random shapes at magnitudes from 1e-4 to `top`, random directions."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = kt.random_kappas(rng, 1e-2)
        k = k.scaled(10.0 ** rng.uniform(-4.0, np.log10(top)) / k.magnitude)
        yield k, dp.polarization_frame(dp.random_directions(rng))


def _commutators(n):
    """[v_i, v_j] for v = (a, a-dagger) of n modes, written out."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)  # [a_i, a_j-dagger] = delta_ij
    j[n:, :n] = -np.eye(n)
    return j


# ------------------------------------------------------- quadratic form


def _commutator_gap(space, terms, form=None):
    """max |[H, v_j] - sum_i A_ij v_i - (linear part)| over states with every occupation <= 1.

    H is monomial_sum of `terms` on `space`, and A their quadratic_form
    unless `form` is given.  A one-factor term c F adds c (f J)_j times
    the identity to [H, v_j].  No term of mode_terms raises one mode
    twice, so from those states neither product of a commutator leaves
    a cutoff-3 space, and the truncated matrices act as the untruncated
    operators there.
    """
    labels = space.labels
    n = len(labels)
    if form is None:
        form = md.quadratic_form(terms, labels)
    j = _commutators(n)
    constant = np.zeros(2 * n, dtype=complex)
    for coef, *factors in terms:
        if len(factors) == 1:
            constant += coef * (md.factor_vector(factors[0], labels) @ j)
    h = fs.monomial_sum(space, terms).tocsc()
    cols = np.flatnonzero(np.all(space.occupations <= 1, axis=1))
    ladders = [
        fs.monomial_sum(space, [(1.0, md.ladder(label, raising=up))]).tocsc()
        for up in (False, True) for label in labels
    ]
    on_cols = [v[:, cols] for v in ladders]
    identity = sp.identity(space.dim, dtype=complex, format="csc")[:, cols]
    worst = 0.0
    for col, v in enumerate(ladders):
        gap = h @ on_cols[col] - v @ h[:, cols] - constant[col] * identity
        gap = gap - sum(form[i, col] * on_cols[i] for i in range(2 * n) if form[i, col])
        worst = max(worst, abs(gap).max())
    return worst


def _linear_terms(space):
    """One-factor terms: a transverse potential, and on the 8-mode space a ghost mode."""
    S, _, _, Tb = md._mode_factors()
    terms = [(0.3, S[1] + Tb[1])]
    if space.modes == 8:
        terms.append((0.2j, md.dg_factors(md.PLUS_K)[0]))
    return terms


@pytest.fixture(scope="module")
def commutator_spaces():
    return {"full": fs.build_space(3), "factor": hm.transverse_space(3)}


@pytest.mark.parametrize("magnitude", [0.0, 1e-4, 1e-2])
@pytest.mark.parametrize("which", ["full", "factor"])
def test_quadratic_form_matches_the_fock_commutators(commutator_spaces, which, magnitude):
    space = commutator_spaces[which]
    rng = np.random.default_rng(31)
    k = kt.random_kappas(rng, 1e-2)
    k = k.scaled(magnitude / k.magnitude)
    frame = dp.polarization_frame(dp.random_directions(rng))
    terms = md.mode_terms(k, frame)
    names = [name for name in terms if name != "xi"] if which == "full" else ["h_t", "h_pm_t"]
    h = [term for name in names for term in terms[name]]
    assert _commutator_gap(space, h + _linear_terms(space)) <= 1e-13
    assert _commutator_gap(space, terms["xi"]) <= 1e-13
    if magnitude == 1e-2:
        # one h_pm_t term with its sign flipped in A alone moves the gap by
        # about twice its coefficient, far above the roundoff of the true terms
        coef, left, right = terms["h_pm_t"][0]
        flipped = [(-coef, left, right) if term is terms["h_pm_t"][0] else term for term in h]
        assert abs(coef) > 1e-4
        assert _commutator_gap(space, h, md.quadratic_form(flipped, space.labels)) > 1e-4


def test_factor_vector_places_lowering_then_raising():
    labels = md.TRANSVERSE_SLOTS
    factor = md.ladder(5, 2.0) + md.ladder(2, -1j, raising=True)
    vector = md.factor_vector(factor, labels)
    want = np.zeros(8, dtype=complex)
    want[labels.index(5)] = 2.0
    want[4 + labels.index(2)] = -1j
    assert np.array_equal(vector, want)
    with pytest.raises(ValueError):
        md.factor_vector(md.ladder(0), labels)  # a scalar mode is not transverse


def test_raw_terms_sum_to_build_raw_and_only_build_raw_refuses_birefringence(assert_same_csr):
    rng = np.random.default_rng(7)
    frame = dp.polarization_frame(dp.random_directions(rng))
    space = fs.build_space(1)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2))
    assert_same_csr(hm.build_raw(space, kf, frame), fs.monomial_sum(space, md.raw_terms(kf, frame)))
    birefringent = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=True))
    assert len(md.raw_terms(birefringent, frame)) == len(md.raw_terms(kf, frame))
    with pytest.raises(ValueError):
        hm.build_raw(space, birefringent, frame)


def test_mode_terms_reads_the_set_and_the_frame_once(monkeypatch):
    # one check_nonbiref and one frame_bilinears per call, wherever they
    # are looked up: the transverse coefficients come from that one E and O
    calls = {"check_nonbiref": 0, "frame_bilinears": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name, function in ((n, getattr(dp, n)) for n in calls):
        for module in (kt, dp, md):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, function))
    k, frame = next(_draws(4, 1))
    md.mode_terms(k, frame)
    assert calls == {"check_nonbiref": 1, "frame_bilinears": 1}


# ------------------------------------------- the ghost sector, exactly


def _ghost_factors():
    """The vectors on SLOTS of mode_terms' ghost factors fac_ann and fac_cre.

    fac_ann = abar_g(+k) + i a_d(-k) and fac_cre = a_g(+k) - i abar_d(-k).
    """
    _, a_g, _, a_gb = md.dg_factors(md.PLUS_K)
    a_dm, _, a_dmb, _ = md.dg_factors(md.MINUS_K)
    ann = md._combine((1, a_gb), (1j, a_dm))
    cre = md._combine((1, a_g), (-1j, a_dmb))
    return md.factor_vector(ann, md.SLOTS), md.factor_vector(cre, md.SLOTS)


@pytest.mark.parametrize("seed", range(5))
def test_ghost_factors_span_an_exact_invariant_subspace(seed):
    """The weak Lorenz condition as a statement about the quadratic form.

    Every block of H but h_ls0 maps the ghost factors to exactly zero,
    the two factors commute, h_lslv's form squares to zero (the ghost
    sector is a Jordan block), and span{fac_ann, A_ls0 fac_ann} is
    invariant under the whole form, for every kappa and at no cutoff.
    These tests pin that structure; they do not guard the terms against
    mutations.  A sign flipped on any one of h_lslv's four terms, its
    cross term conjugated, a sign flipped in DG_D, or abar_g in place of
    fac_ann in one h_p_tls term each leave every assertion here passing
    (A f stays 0.0, and max |A_lslv^2| stays 3.9e-21 at seed 0); of the
    mutations tried, only zeta_0 = +1 moves A f off zero, to 5.3e-19.
    """
    rng = np.random.default_rng(seed)
    k = kt.random_kappas(rng, 1e-2)
    terms = md.mode_terms(k, dp.polarization_frame(dp.random_directions(rng)))
    forms = {name: md.quadratic_form(terms[name], md.SLOTS) for name in terms if name != "xi"}
    fac_ann, fac_cre = _ghost_factors()
    for name, form in forms.items():
        if name != "h_ls0":
            assert np.all(form @ fac_ann == 0.0) and np.all(form @ fac_cre == 0.0), name
    assert fac_ann @ _commutators(len(md.SLOTS)) @ fac_cre == 0.0
    lslv = forms["h_lslv"]
    assert np.abs(lslv @ lslv).max() <= 1e-15 * np.abs(lslv).max() ** 2
    basis, _ = np.linalg.qr(np.column_stack((fac_ann, forms["h_ls0"] @ fac_ann)))
    image = sum(forms.values()) @ basis
    assert np.abs(image - basis @ (basis.conj().T @ image)).max() <= 1e-14


# ------------------------------------------------- closed-form rows


def test_xi_form_squares_to_r_squared_and_its_exponential_is_closed_form():
    worst_square = worst_expm = worst_symmetry = 0.0
    for k, frame in _draws(3, 200):
        form = md.quadratic_form(md.mode_terms(k, frame)["xi"], md.TRANSVERSE_SLOTS)
        r2 = sum(q * q for q in dp.mixing_deltas(k, frame))
        worst_square = max(worst_square, np.abs(form @ form - r2 * np.eye(8)).max() / r2)
        b = spectrum_reference.transverse_bogoliubov(md.mode_terms(k, frame)["xi"])
        worst_expm = max(worst_expm, np.abs(b - scipy.linalg.expm(form)).max())
        # D is symmetric, so A_Xi and B are too: B and its transpose agree
        worst_symmetry = max(worst_symmetry, np.abs(form - form.T).max())
    assert worst_square <= 1e-15
    assert worst_expm <= 1e-15
    assert worst_symmetry == 0.0


def test_bogoliubov_is_the_identity_at_zero_kappa():
    terms = md.mode_terms(kt.KappaSet(), dp.polarization_frame(dp.Z_AXIS))
    assert np.array_equal(spectrum_reference.transverse_bogoliubov(terms["xi"]), np.eye(8))


@pytest.fixture(scope="module")
def factor_6():
    return hm.transverse_space(6)


def test_exact_rows_match_the_factor_at_cutoff_6(factor_6):
    worst = 0.0
    for k, frame in _draws(11, 12):
        got = md.spectrum_values(k, frame)
        want = spectrum_reference.transverse_values(factor_6, frame, k)
        worst = max(worst, max(abs(got[key] - want[key]) for key in want))
    assert worst <= 1e-13


def _term_form(terms):
    """W = sum c f g^T over the two-factor terms c F G, on the transverse modes."""
    labels = md.TRANSVERSE_SLOTS
    form = np.zeros((8, 8), dtype=complex)
    for coef, left, right in terms:
        form += coef * np.outer(md.factor_vector(left, labels), md.factor_vector(right, labels))
    return form


def test_cell_tables_are_the_mode_terms_forms():
    # the kernel's literal tables and coefficients give, bit for bit, W of
    # h_t + h_pm_t and the quadratic form of Xi built from mode_terms
    draws = [(kt.KappaSet(), dp.polarization_frame(dp.Z_AXIS)), *_draws(12, 50)]
    for k, frame in draws:
        terms = md.mode_terms(k, frame)
        delta_plus, delta_minus, d, e12, *xi = dp.transverse_coefficients(
            *dp.frame_bilinears(k, frame)
        )
        h = np.array([1 + delta_plus, 1 + delta_minus, d, e12])
        assert np.array_equal(md._scatter(md._H_CELLS, h), _term_form(terms["h_t"] + terms["h_pm_t"]))
        assert np.array_equal(
            md._scatter(md._XI_CELLS, np.array(xi)),
            md.quadratic_form(terms["xi"], md.TRANSVERSE_SLOTS),
        )
    # every cell is listed once
    for cells in (md._H_CELLS, md._XI_CELLS):
        assert len({cell[:2] for cell in cells}) == len(cells)


#: The values at kappa = 0, exactly.
FREE_VALUES = {
    "gap_plus": 1.0, "delta_plus": 0.0, "gap_residual_plus": 0.0,
    "gap_minus": 1.0, "delta_minus": 0.0, "gap_residual_minus": 0.0,
    "cross_before": 0.0, "cross_after": 0.0,
}


def _stack(seed, count):
    """count random sets of magnitudes 1e-5 to 2e-2, set 1 all zero, and their normals."""
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(count, kt.DRAW_WIDTH[False]))
    normals *= 10.0 ** rng.uniform(-3.0, 0.3, size=(count, 1))
    if count > 1:
        normals[1] = 0.0
    return kt.kappa_draws(normals), normals, rng


def _assert_rows(stacked, rows):
    """Each stacked value array holds, row by row, the bits of the one-set dicts."""
    for key, column in stacked.items():
        assert column.shape == (len(rows),), key
        assert column.tobytes() == np.array([row[key] for row in rows]).tobytes(), key


@pytest.mark.parametrize("count", [1, 3, 200])
def test_stacked_rows_are_the_one_set_rows_bit_for_bit(count):
    sets, normals, rng = _stack(40 + count, count)
    frame = dp.polarization_frame(dp.random_directions(rng))
    stacked = md.spectrum_values(sets, frame)
    _assert_rows(stacked, [md.spectrum_values(kt.kappa_draws(n), frame) for n in normals])
    # stacked frames, one per set
    frames = dp.polarization_frame(dp.random_directions(rng, count))
    stacked = md.spectrum_values(sets, frames)
    rows = [
        md.spectrum_values(kt.kappa_draws(n), dp.polarization_frame(khat))
        for n, khat in zip(normals, frames.khat)
    ]
    _assert_rows(stacked, rows)
    if count > 1:  # the all-zero set among the stack reads the free values
        assert {key: float(column[1]) for key, column in stacked.items()} == FREE_VALUES


def test_sets_and_frames_broadcast_together():
    sets, normals, rng = _stack(9, 3)
    frames = dp.polarization_frame(dp.random_directions(rng, 4)[:, None, :])
    grid = md.spectrum_values(sets, frames)
    for key, value in grid.items():
        assert value.shape == (4, 3), key
    for i, khat in enumerate(frames.khat[:, 0]):
        for j, n in enumerate(normals):
            one = md.spectrum_values(kt.kappa_draws(n), dp.polarization_frame(khat))
            assert all(grid[key][i, j] == one[key] for key in one), (i, j)


@pytest.mark.parametrize("magnitude", [1e-2, 1e-3, 1e-4, 1e-5])
def test_kernel_matches_the_per_set_closed_form(magnitude):
    rng = np.random.default_rng(int(-np.log10(magnitude)))
    worst = {}
    for _ in range(50):
        k = kt.random_kappas(rng, 1e-2)
        k = k.scaled(magnitude / k.magnitude)
        frame = dp.polarization_frame(dp.random_directions(rng))
        got = md.spectrum_values(k, frame)
        want = spectrum_reference.closed_form_values(k, frame)
        assert list(got) == list(want)
        for key in ("delta_plus", "delta_minus", "cross_before"):
            assert got[key] == want[key], key
        for key in want:
            worst[key] = max(worst.get(key, 0.0), abs(got[key] - want[key]))
    assert max(worst.values()) <= 2e-15, worst


def test_exact_rows_at_zero_kappa_are_the_free_values():
    frame = dp.polarization_frame(dp.random_directions(np.random.default_rng(2)))
    assert md.spectrum_values(kt.KappaSet(), frame) == FREE_VALUES


def test_cutoff_2_factor_is_off_by_its_truncation():
    # the error the exact rows remove: at cutoff 2 and scale 1e-2 the
    # factor's gaps are off by far more than roundoff
    k, frame = next(_draws(11, 1, top=1e-2))
    k = k.scaled(1e-2 / k.magnitude)
    exact = md.spectrum_values(k, frame)
    shallow = spectrum_reference.transverse_values(hm.transverse_space(2), frame, k)
    assert max(abs(exact[key] - shallow[key]) for key in ("gap_plus", "gap_minus")) > 1e-8


def _potential_factors():
    """f_1, f_2: the factors of (a_r(+k) + abar_r(-k)) / sqrt(2) on the transverse modes."""
    S, _, _, Tb = md._mode_factors()
    return [md.factor_vector(S[r] + Tb[r], md.TRANSVERSE_SLOTS) / np.sqrt(2.0) for r in (1, 2)]


def test_exact_couplings_are_the_bogoliubov_projection():
    # exp(Xi) A_r exp(-Xi) is the factor B f_r: it stays in span{f_1, f_2},
    # and its coefficients there are row r of the table
    f = _potential_factors()
    worst_table = worst_span = 0.0
    for k, frame in _draws(5, 200):
        b = spectrum_reference.transverse_bogoliubov(md.mode_terms(k, frame)["xi"])
        table = md.exact_couplings(k, frame)
        assert table.shape == (2, 2)
        for r in (0, 1):
            moved = b @ f[r]
            coefs = [np.vdot(f[s], moved) / np.vdot(f[s], f[s]) for s in (0, 1)]
            worst_table = max(worst_table, np.abs(np.array(coefs) - table[r]).max())
            worst_span = max(worst_span, np.abs(moved - coefs[0] * f[0] - coefs[1] * f[1]).max())
    assert worst_table <= 1e-15
    assert worst_span <= 1e-15


def test_exact_couplings_at_zero_kappa_are_the_identity():
    frame = dp.polarization_frame(dp.random_directions(np.random.default_rng(6)))
    assert np.array_equal(md.exact_couplings(kt.KappaSet(), frame), np.eye(2))


def test_stacked_exact_couplings_are_the_per_frame_tables_bit_for_bit():
    rng = np.random.default_rng(7)
    normals = rng.normal(size=(40, kt.DRAW_WIDTH[False]))
    normals[3] = 0.0  # one set with r = 0 among the stack
    sets = kt.kappa_draws(normals)
    frames = dp.polarization_frame(dp.random_directions(rng, 40))
    stacked = md.exact_couplings(sets, frames)
    assert stacked.shape == (40, 2, 2)
    for row, n in enumerate(normals):
        one = dp.polarization_frame(frames.khat[row])
        assert stacked[row].tobytes() == md.exact_couplings(kt.kappa_draws(n), one).tobytes()
    assert np.array_equal(stacked[3], np.eye(2))


def test_exact_coupling_asymmetry_is_the_sinh_of_the_mixing():
    # t[0, 0] - t[1, 1] = -2 (sinh r / r) delta1, the all-orders form of -2 delta1
    worst = 0.0
    for k, frame in _draws(8, 200):
        delta1, delta2 = dp.mixing_deltas(k, frame)
        r = np.hypot(delta1, delta2)
        table = md.exact_couplings(k, frame)
        want = -2.0 * np.sinh(r) / r * delta1
        worst = max(worst, abs(table[0, 0] - table[1, 1] - want))
    assert worst <= 1e-15


def test_spectrum_sweep_is_one_call_on_the_rescaled_sets():
    rng = np.random.default_rng(41)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    scales = np.array([1e-2, 1e-3, 1e-4])
    got = md.spectrum_sweep(k, frame, scales)
    want = md.spectrum_values(k.scaled(scales / k.magnitude), frame)
    assert list(got) == ["scale", *want]
    assert np.array_equal(got["scale"], scales)
    assert all(np.array_equal(got[key], want[key]) for key in want)
    # the set's own magnitude keeps the set's bits
    own = md.spectrum_sweep(k, frame, (k.magnitude,))
    alone = md.spectrum_values(k, frame)
    assert all(own[key].tolist() == [alone[key]] for key in alone)
    with pytest.raises(ValueError, match="cannot sweep scales of an all-zero parameter set"):
        md.spectrum_sweep(kt.KappaSet(), frame, [1e-2, 1e-3])
    zero = md.spectrum_sweep(kt.KappaSet(), frame, [0.0])
    assert zero["cross_after"].tolist() == [0.0]


def test_loglog_slope_fits_only_positive_points():
    x = np.array([1e-2, 1e-3, 1e-4])
    assert md.loglog_slope(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)
    assert type(md.loglog_slope(x, x)) is float
    # where np.polyfit would warn or fit nothing, no slope
    for xs, ys in (
        ([1e-2], [1e-4]),
        ([1e-2, 1e-2], [1e-4, 1e-4]),
        ([], []),
        (x, [1e-4, 0.0, 1e-8]),
        (x, [1e-4, -1e-6, 1e-8]),
        (x, [1e-4, np.nan, 1e-8]),
        ([1e-2, 0.0, 1e-4], x),
    ):
        assert md.loglog_slope(xs, ys) is None
