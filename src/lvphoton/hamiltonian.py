"""Free-field mode Hamiltonian for one +-k pair and its block structure.

Two equivalent assemblies of the same operator are provided.  build_raw
contracts the rank-4 tensor directly against the polarization embedding
(one covariant line plus six perturbation lines, summed over all four
polarizations of both directions).  build_grouped sums, in one call,
the terms of six named blocks written in terms of the kappa bilinears:
the transverse diagonal part, the transverse +-k cross terms, the
covariant scalar/longitudinal part, its Lorentz-violating ghost-sector
counterpart, and the two transverse-to-ghost couplings.  Their
elementwise equality is the central cross-check of this module and is
enforced in the test suite.

Every one of these operators is a sum of coefficients times products
of two ladder operators (or fixed combinations of them, such as the
d/g ghost modes), so all of them are assembled by one function,
fock_space.monomial_sum, from lists of (coefficient, factor, factor)
terms on the eight mode slots.  The numpy-only modes module writes
the lists: modes.raw_terms the raw ones, and modes.mode_terms the
grouped ones, the six blocks' and Xi's, in one place; build_raw,
build_grouped and xi_generators sum them on the 8-mode space, and
transverse_space is the four transverse modes alone, its columns
labeled by their slots (modes.TRANSVERSE_SLOTS).  The `spectrum`
report and the exact coupling table need no matrix at all, only
closed forms: modes.spectrum_values evaluates the `spectrum` values of
stacked sets and frames at once, from literal cell tables of the
transverse terms that the tests derive from mode_terms, and
modes.exact_couplings the table from the same mixing.  What keeps the
raw/grouped comparison meaningful is that the two coefficient sets
stay independent: raw_terms takes its coefficients from the tensor
contractions of modes.coefficient_matrices, and mode_terms from
dispersion.frame_bilinears.

All energies are in units of omega_k (hbar = omega_k = 1).  Both
directions' mode operators are labeled against the +k frame vectors
throughout (the -k frame enters only through the direction-reversed
phase-velocity shift); this labeling is pinned by the raw/grouped
equivalence.  The scalar polarization row of the embedding is
(+1, 0, 0, 0), likewise pinned by that equivalence.

Expectation values in these matrices must be taken with the indefinite
product (fock_space.indefinite_inner); H is self-adjoint under the
bar-adjoint but is not a hermitian matrix, so naive eigenvector
machinery does not apply.  The conjugation exp(Xi) H exp(-Xi) is taken
only between the states asked about: transformed_matrices evolves them
once by exp(-Xi) with fock_space.propagate_blocks, the block-restricted
propagator of the leakage check, and takes each operator only on the
support of the evolved states, weighted by the space's own metric.
Over all basis columns this is the full conjugation, with no dense
exponential and no dimension cap.
"""

import numpy as np
import scipy.sparse as sp

from . import fock_space as fs
from . import modes as md
from .kappa_tensor import check_nonbiref, kappas_from_kf


def build_raw(space, kf, frame):
    """The raw seven-line Hamiltonian from direct tensor contractions (modes.raw_terms).

    Rejects tensors with birefringent content (the closed-form grouping
    this is checked against assumes none).
    """
    kappas = kappas_from_kf(kf)
    check_nonbiref(kappas)
    return fs.monomial_sum(space, md.raw_terms(kf, frame))


def xi_generators(space, kappas, frame):
    """The anti-self-adjoint generator Xi1 + Xi2 of the transverse diagonalization.

    Xi1 carries the frame-diagonal difference of the parity-even
    bilinear, Xi2 the off-diagonal element:

        Xi1 = (1/4)(E11 - E22) (abar1 abar1' - a1' a1 - abar2 abar2' + a2' a2)
        Xi2 = (1/2) E12 (abar1 abar2' - a1 a2' + abar2 abar1' - a2 a1')

    with E_rs the (e_minus + I tr) bilinear and primes marking -k modes.
    bar(Xi) = -Xi, so exp(Xi) preserves the indefinite product.
    """
    return fs.monomial_sum(space, md.mode_terms(kappas, frame)["xi"])


def build_grouped(space, kappas, frame):
    """H as one CSR matrix: the terms of the six blocks of mode_terms in one sum."""
    blocks = md.mode_terms(kappas, frame)
    del blocks["xi"]
    return fs.monomial_sum(space, [term for terms in blocks.values() for term in terms])


def transverse_space(cutoff):
    """The 4-mode occupation space labeled by modes.TRANSVERSE_SLOTS, dim (cutoff+1)^4."""
    cutoff = fs.checked_cutoff(cutoff, "transverse cutoff must be an integer of at least 1")
    return fs._occupation_space(cutoff, md.TRANSVERSE_SLOTS)


def check_transverse(space):
    """Reject a space that is not a transverse_space."""
    if space.labels != md.TRANSVERSE_SLOTS:
        raise ValueError(f"expected the 4-mode transverse factor, not modes {space.labels}")


def _evolved(xi, states, dim):
    """(support, Phi): the columns of Phi are exp(-xi) states on `support`.

    `states` is a sequence of state vectors, or a sparse matrix with one
    state per column; they are stacked as sparse columns and evolved
    with fs.propagate_blocks, as exp(-i t b) at t = 1 with b = -i xi,
    on the coupled blocks of xi that hold them.  Every evolved state
    vanishes outside the union of those blocks, `support`, so Phi holds
    only those rows.
    """
    if sp.issparse(states):
        columns = sp.csc_matrix(states, dtype=complex)
    else:
        columns = sp.csc_matrix(np.array(states, dtype=complex).T)
    if columns.shape[0] != dim:
        raise ValueError("state dimension does not match the space")
    evolved = list(fs.propagate_blocks(-1j * sp.csr_matrix(xi), columns, 1.0))
    support = np.sort(np.concatenate([np.zeros(0, dtype=int)] + [r for r, _, _ in evolved]))
    phi = np.zeros((support.size, columns.shape[1]), dtype=complex)
    for rows, ids, values in evolved:
        phi[np.ix_(np.searchsorted(support, rows), ids)] = values
    return support, phi


def transformed_matrices(space, operators, xi, states):
    """G[a, b] = <a| M exp(xi) H exp(-xi) |b> over a list of states, for each H.

    The states may also be given as a sparse matrix, one per column;
    over every basis column, M G is exp(xi) H exp(-xi) itself.  M is
    the space's metric (+1 on the transverse factor).

    Because xi is metric-anti-self-adjoint, <a| M exp(xi) is the
    M-weighted bra of exp(-xi)|a>, so G = Phi^dagger M H Phi with the
    columns of Phi the states evolved by exp(-xi).  The states are
    evolved once, on the coupled blocks of xi that hold them, so this
    works at any cutoff; each H (a sparse or dense matrix) is taken only
    on the support of the evolved states.  Returns one G per operator,
    as a tuple.
    """
    support, phi = _evolved(xi, states, space.dim)
    weighted = fs.metric_diagonal(space)[support][:, None]
    return tuple(
        phi.conj().T @ (weighted * (sp.csr_matrix(h)[support][:, support] @ phi))
        for h in operators
    )


def transformed_expectation(space, h, xi, psi):
    """Indefinite expectation of exp(xi) H exp(-xi) in the state psi."""
    return complex(transformed_matrices(space, [h], xi, [psi])[0][0, 0])


def transformed_element(space, h, xi, bra, ket):
    """Matrix element <bra| M exp(xi) H exp(-xi) |ket> at any cutoff."""
    return complex(transformed_matrices(space, [h], xi, [bra, ket])[0][0, 1])


def momentum_operator(space, kvec):
    """The three conserved momentum components (units hbar = 1).

    P^j = k^j (sum of +k occupations minus sum of -k occupations), a
    diagonal operator that carries no anisotropy parameter.
    """
    kvec = np.asarray(kvec, dtype=float)
    if kvec.shape != (3,):
        raise ValueError("kvec must be a 3-vector")
    occ = space.occupations
    plus, minus = (fs.held_columns(space, md.ALL_MODES[i : i + 4]) for i in (0, 4))  # +k, -k
    diff = (occ[:, plus].sum(axis=1) - occ[:, minus].sum(axis=1)).astype(complex)
    return [sp.diags(kvec[j] * diff, format="csr") for j in range(3)]
