"""Truncated occupation-number spaces for the modes of a +-k pair.

One wavevector pair carries eight oscillators (scalar, two transverse,
longitudinal for each of +k and -k); the free dynamics couples only k
with -k, so this pair is the complete dynamical unit.  States live in
the ordinary ("physical metric") number basis; the indefinite scalar
product enters only through the diagonal metric operator M with entries
(-1)^(n0(+k) + n0(-k)).  Operators are scipy.sparse matrices; the
FockSpace is passed alongside and dimensions are validated where they
meet.  Every ladder operator, every fixed combination of them (the d/g
ghost modes) and every sum of products of two is written by one
function, monomial_sum, from the ladder factors of the modes module
(modes.ladder, modes.dg_factors), whose mode labels this module uses.
What monomial_sum finds that depends on the space alone (each
monomial's columns and entries, and the CSR layouts of the last two
term lists) is kept on the FockSpace object, so it is reused by the
next sum on the same space and dies with the space.

Each occupation column carries a mode label, and FockSpace.position is
the one map from a label to its column.  The 8-mode space is labeled by
the slots modes.SLOTS (+k modes 0,1,2,3 then -k modes 0,1,2,3); the
transverse factor holds four slots (metric +1) and the reduced ghost
space labels of its own (no diagonal metric).  Basis index is
lexicographic, the first column most significant.

propagate applies exp(-i t b) of a sparse operator b to dense columns,
in real arithmetic when b and the columns are real, and
propagate_blocks applies it to sparse columns one coupled block of b
at a time; the leakage blocks of H and the states under exp(-Xi) both
evolve through propagate_blocks.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .modes import MINUS_K, PLUS_K, SLOTS, ModeId, dg_factors, ladder


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Occupation-number basis data for a set of labeled modes at a given cutoff.

    The +-k pair has eight modes; the transverse factor and the reduced
    ghost space of the lorenz module are the same structure over four.
    """

    cutoff: int
    base: int
    dim: int
    occupations: np.ndarray  # dim x modes int array, row = occupation tuple
    labels: tuple  # the mode of each occupation column
    # monomial_sum's arrays that depend on the space alone: each monomial's
    # columns and coded entries, and the last _LAYOUTS CSR layouts; and the
    # ghost operators of lorenz.gupta_bleuler_check, per direction
    _bands: dict = field(default_factory=dict, init=False, repr=False)
    _layouts: dict = field(default_factory=dict, init=False, repr=False)
    _dg: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def modes(self):
        """Number of modes, the length of an occupation tuple."""
        return len(self.labels)

    def position(self, label):
        """Occupation column of the mode `label`; ValueError if the space has none."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"the space has no mode labeled {label!r}") from None

    def index_of(self, occ):
        """Basis index of an occupation tuple (inverse of `occupations`)."""
        occ = np.asarray(occ, dtype=int)
        if occ.shape != (self.modes,) or np.any(occ < 0) or np.any(occ > self.cutoff):
            raise ValueError("occupation tuple out of range")
        idx = 0
        for n in occ:
            idx = idx * self.base + int(n)
        return idx


#: Number of term lists whose CSR layout monomial_sum keeps on a space.
_LAYOUTS = 2


def _occupation_space(cutoff, labels):
    """Lexicographic occupation basis of the modes `labels`, each up to `cutoff`."""
    base, modes = cutoff + 1, len(labels)
    dim = base**modes
    occ = np.ascontiguousarray(np.indices((base,) * modes).reshape(modes, dim).T)
    occ.setflags(write=False)
    return FockSpace(cutoff=cutoff, base=base, dim=dim, occupations=occ, labels=tuple(labels))


def checked_cutoff(cutoff, message, most=math.inf):
    """`cutoff` as an int when it is an integer from 1 to `most`.

    Anything else, bools, floats and strings included, raises
    ValueError(message); numpy integers are accepted.
    """
    if (
        isinstance(cutoff, bool)
        or not isinstance(cutoff, (int, np.integer))
        or not 1 <= cutoff <= most
    ):
        raise ValueError(message)
    return int(cutoff)


def build_space(cutoff):
    """Build the truncated 8-mode space with max occupation `cutoff` per mode.

    dim = (cutoff+1)^8, so cutoff is capped at 4 (~390k basis states).
    """
    return _occupation_space(checked_cutoff(cutoff, "cutoff must be between 1 and 4", 4), SLOTS)


def _check_operator(space, a):
    if a.shape != (space.dim, space.dim):
        raise ValueError("operator dimension does not match the space")


def annihilator(space, mode):
    """Sparse lowering operator for one mode (entries sqrt(n)), identity elsewhere."""
    return monomial_sum(space, [(1.0, ladder(mode.slot))])


def monomial_sum(space, terms):
    """sum_k c_k X_k Y_k (or c_k X_k) as one CSR matrix, each X_k, Y_k a ladder factor.

    A term is (coef, factor) or (coef, left, right); each label is read
    through space.position, so a mode the space lacks is refused.  A single
    ladder operator is a fixed index shift (+- the stride of its column) weighted
    by sqrt(n) for a lowering and sqrt(n + 1) for a raising operator, 0
    where it would leave the truncated space; a product of two is the
    sum of the two shifts: the right operator acts first, a same-column
    pair sees the occupation the first one left, and a product that
    leaves the truncated space anywhere is zero.  Each weight is one
    sqrt entry or the product of two, so one monomial equals the kron
    chain of single-mode factors (or the sparse product of two such
    operators) bit for bit.

    Each term's product is expanded into monomials, equal monomials
    merged (operators on different columns commute), and terms with equal
    expansions share one summed coefficient.  On each shift a term's
    monomials are summed first, then the terms that share a coefficient,
    and the coefficient is applied last, as c (X Y + Z W) is evaluated
    by sparse products; so entries that cancel exactly there cancel
    here, and exact zeros are dropped.

    What depends on the space alone is kept on the space, and dies with
    it.  For each monomial built on it, its nonzero columns (int32) and
    its entries there, as codes into its few distinct values (one byte
    each up to cutoff 15): at most 160 monomials on the 8-mode space,
    and H's 60 take 0.9 MB at cutoff 2 and 12 MB at cutoff 3.  For the
    last _LAYOUTS term lists, the CSR layout, keyed by each shift's
    monomials, which fix the columns where the shift can be nonzero:
    indptr, indices (int32) and each entry's code (uint16 for H); H's
    takes 1.0 MB at cutoff 2 and 12 MB at cutoff 3.  A shift with one
    monomial is summed on that monomial's values, and its entries are
    read off them by their codes; a shift with several is summed
    densely and read on its columns.  Entries that come out zero are
    dropped at the end.  The result never shares an array with the
    cache.
    """
    by_shift = _shifted_paths(space, terms)
    if not by_shift:
        return sp.csr_matrix((space.dim, space.dim), dtype=complex)
    # a shift's monomials fix the columns where it can be nonzero;
    # descending shifts put each row's columns in ascending order
    key = tuple(
        (shift, tuple(sorted({m for g in by_shift[shift].values() for t in g for _, m in t})))
        for shift in sorted(by_shift, reverse=True)
    )
    for _, monomials in key:
        for monomial in monomials:
            if monomial not in space._bands:
                levels, codes = _monomial_levels(space, monomial)
                col = np.flatnonzero(levels[codes]).astype(np.int32)
                code_type = np.min_scalar_type(levels.size - 1)
                space._bands[monomial] = (col, levels, codes[col].astype(code_type))
    layout = space._layouts.pop(key, None)
    if layout is None:
        layout = _csr_layout(space, key)
    space._layouts[key] = layout  # the most recently used last
    while len(space._layouts) > _LAYOUTS:
        del space._layouts[next(iter(space._layouts))]
    indptr, indices, codes, offsets, dense = layout

    def dense_entries(monomial):  # the monomial's entry in every column
        held, levels, codes = space._bands[monomial]
        entries = np.zeros(space.dim)
        entries[held] = levels[codes]
        return entries

    values = np.zeros(offsets[-1], dtype=complex)  # by code
    for (shift, monomials), start, stop in zip(key, offsets[:-1], offsets[1:]):
        if len(monomials) == 1:
            levels = space._bands[monomials[0]][1]
            values[start:stop] = _shift_sum(by_shift[shift], lambda _: levels)
    data = values.take(codes)
    for shift, slots, cols in dense:
        data[slots] = _shift_sum(by_shift[shift], dense_entries)[cols]
    out = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(space.dim, space.dim))
    if not np.all(data):  # entries that cancel exactly, or products below float64
        out.eliminate_zeros()
    return out


def _shift_sum(groups, entries):
    """One shift's sum over {coefficient: [[(weight, monomial)] per term]}.

    entries(monomial) gives the monomial's entries, all on the same
    columns.  A term's monomials are summed first, then the terms that
    share a coefficient, and the coefficient is applied last, each sum
    starting from zero, so each entry is the one the sparse products
    c (X Y + Z W) give.
    """
    total = 0.0
    for coef, group in groups.items():
        shared = 0.0  # the terms' products, before their common coefficient
        for paths in group:
            product = 0.0
            for weight, monomial in paths:
                product = product + weight * entries(monomial)
            shared = shared + product
        total = total + coef * shared
    return total


def _shifted_paths(space, terms):
    """monomial_sum's terms as {shift: {coefficient: [[(weight, monomial)] per term]}}.

    A monomial is a tuple of (column, raising) pairs, the right operator
    last; zero weights and terms whose summed coefficient is zero are
    dropped.
    """
    products = {}  # expanded product -> summed coefficient
    for coef, *factors in terms:
        factors = [[(c, space.position(label), up) for c, label, up in f] for f in factors]
        paths = {}  # monomial -> its weight in this product
        if len(factors) == 1:
            for c, slot, raising in factors[0]:
                key = ((slot, raising),)
                paths[key] = paths.get(key, 0.0) + c
        else:
            left, right = factors
            for c_left, slot_left, raise_left in left:
                for c_right, slot_right, raise_right in right:
                    key = ((slot_left, raise_left), (slot_right, raise_right))
                    if slot_left != slot_right:
                        key = tuple(sorted(key))
                    paths[key] = paths.get(key, 0.0) + c_left * c_right
        product = tuple(sorted(item for item in paths.items() if item[1] != 0))
        products[product] = products.get(product, 0.0) + coef
    strides = space.base ** np.arange(space.modes - 1, -1, -1)
    by_shift = {}
    for product, coef in products.items():
        if coef == 0:
            continue
        groups = {}
        for monomial, weight in product:
            shift = sum(strides[slot] * (1 if up else -1) for slot, up in monomial)
            groups.setdefault(shift, []).append((weight, monomial))
        for shift, paths in groups.items():
            by_shift.setdefault(shift, {}).setdefault(coef, []).append(paths)
    return by_shift


def _monomial_levels(space, monomial):
    """(levels, codes): a monomial's entry in basis state i is levels[codes[i]].

    An operator's sqrt entry depends on its column's occupation alone,
    so a product of two on different columns is a table over both
    occupations (code n_left * base + n_right), and a same-column pair
    one over the occupation the right operator finds: the left one sees
    the occupation it left.  Each entry is one sqrt, or the product of
    two, 0 where the monomial leaves the truncated space.
    """
    n = np.arange(space.base)
    roots = np.sqrt(np.arange(space.base + 2))

    def table(raising, occupation):  # sqrt entry of one operator, 0 if none
        level = occupation + raising  # n for a lowering, n + 1 for a raising
        return np.where((level > 0) & (level <= space.cutoff), roots[level], 0.0)

    occupations = space.occupations
    (slot, raising), *rest = monomial
    if not rest:
        return table(raising, n), occupations[:, slot]
    ((other, raising_right),) = rest
    if other == slot:
        step = 1 if raising_right else -1
        return table(raising, n + step) * table(raising_right, n), occupations[:, slot]
    levels = np.multiply.outer(table(raising, n), table(raising_right, n)).ravel()
    return levels, occupations[:, slot] * space.base + occupations[:, other]


def _csr_layout(space, key):
    """(indptr, indices, codes, offsets, dense): the CSR layout of the shifts in `key`.

    Shift i's entries lie on the union of its monomials' columns in
    space._bands, in rows col + shift.  A shift with one monomial owns
    the codes offsets[i] .. offsets[i + 1] - 1, one per value of the
    monomial, and each of its entries carries the code of its value.
    The j-th shift with several monomials owns no code; its entries
    carry code j, and dense[j] is (shift, their data positions, their
    columns).  The layout is that of a CSR matrix of the codes, which
    puts each row's columns in ascending order.
    """
    several = [i for i, (_, monomials) in enumerate(key) if len(monomials) > 1]
    offsets = [len(several)]
    for _, monomials in key:
        owned = space._bands[monomials[0]][1].size if len(monomials) == 1 else 0
        offsets.append(offsets[-1] + owned)
    code_type = np.min_scalar_type(offsets[-1] - 1)
    cols, entry_codes = [], []
    for i, (_, monomials) in enumerate(key):
        if len(monomials) == 1:
            col, _, codes = space._bands[monomials[0]]
            entry_codes.append(codes.astype(code_type) + offsets[i])
        else:
            held = np.zeros(space.dim, dtype=bool)
            for monomial in monomials:
                held[space._bands[monomial][0]] = True
            col = np.flatnonzero(held).astype(np.int32)
            entry_codes.append(np.full(col.size, several.index(i), dtype=code_type))
        cols.append(col)
    rows = np.concatenate([col + int(shift) for col, (shift, _) in zip(cols, key)])
    laid = sp.csr_matrix(
        (np.concatenate(entry_codes), (rows, np.concatenate(cols))), shape=(space.dim, space.dim)
    )
    dense = [(key[i][0], np.flatnonzero(laid.data == j), cols[i]) for j, i in enumerate(several)]
    return laid.indptr, laid.indices, laid.data, offsets, dense


def number_operator(space, mode):
    """Diagonal occupation-number operator for one mode."""
    return sp.diags(space.occupations[:, space.position(mode.slot)].astype(complex), format="csr")


def held_columns(space, modes):
    """Columns of those `modes` (ModeIds) that `space` holds; the others are empty
    there (a space of slots is the 8-mode block where they are), and a space
    with other labels (the reduced ghost space) is refused."""
    if not set(space.labels) <= set(SLOTS):
        raise ValueError("the space's modes are not oscillators of the +-k pair")
    return [space.position(mode.slot) for mode in modes if mode.slot in space.labels]


def metric_M(space):
    """The diagonal metric operator with entries (-1)^(n0(+k) + n0(-k)).

    Squares to the identity and equals its own dagger; conjugation by M
    implements the sign flips of the indefinite scalar product.
    """
    return sp.diags(metric_diagonal(space).astype(complex), format="csr")


def metric_diagonal(space):
    """The +-1 diagonal of metric_M as a plain real array (+1 on the transverse factor)."""
    scalars = held_columns(space, (ModeId(PLUS_K, 0), ModeId(MINUS_K, 0)))
    odd = space.occupations[:, scalars].sum(axis=1) & 1
    return 1.0 - 2.0 * odd


def bar_adjoint(space, a):
    """Adjoint with respect to the indefinite product: bar(A) = M A-dagger M.

    M is diagonal with entries m_i = +-1, so entry (i, j) of bar(A) is
    m_i m_j times entry (i, j) of A-dagger; scaling by +-1 is exact, so
    this equals the two sparse products bit for bit.
    """
    _check_operator(space, a)
    out = sp.csr_matrix(a.conj().T, dtype=np.result_type(a.dtype, complex))
    m = metric_diagonal(space)
    row_signs = np.repeat(m, np.diff(out.indptr))
    out.data *= row_signs * m[out.indices]
    return out


def coupled_blocks(op):
    """Block label of every basis state under a sparse operator.

    The blocks are the connected components of the operator's sparsity
    pattern, taken as an undirected graph: no product of the operator
    with itself joins two states in different blocks, so exp(op) acting
    on a vector stays inside the blocks that hold its nonzeros.  Every
    stored entry links its row and column, explicit zeros and one-way
    entries included.  Blocks are numbered in the order of their
    smallest state, which is the numbering of a search from state 0.

    The components come from hook-and-shortcut passes (Shiloach and
    Vishkin, J. Algorithms 3 (1982) 57): each state points at a state of
    its block, the smallest one once the passes end.  A pass hooks each
    root to the smallest root linked to its tree, both ways along every
    entry (a row-wise minimum over the CSR rows, and a scatter-minimum
    from columns back to rows), then shortcuts every pointer to its
    root; the passes end when no root moves.  So a long chain is joined
    in a few passes, not one per link (13 for a shuffled chain of
    100 000 states).  scipy.sparse.csgraph gives the same labels, but
    importing it loads scipy.sparse.linalg and scipy.linalg: 88
    modules, 9-11 MB of memory and 100-150 ms (scipy 1.17, 2-core
    x86-64), which `verify` and `spectrum` would pay only for this.
    """
    op = sp.csr_matrix(op)
    n = op.shape[0]
    counts = np.diff(op.indptr)
    held = np.flatnonzero(counts)  # rows with a stored entry
    starts = op.indptr[held]
    rows = np.repeat(np.arange(n), counts)
    root = np.arange(n)
    while True:
        hooked = root.copy()
        ends = root[op.indices]
        np.minimum.at(hooked, root[held], np.minimum.reduceat(ends, starts))
        np.minimum.at(hooked, ends, root[rows])
        if np.array_equal(hooked, root):
            break
        root = hooked
        while not np.array_equal(root, shortcut := root[root]):
            root = shortcut
    return np.unique(root, return_inverse=True)[1]


#: Crouzeix-Palencia constant: ||p(A)|| <= (1 + sqrt 2) max |p| over W(A)
#: for every polynomial p (SIAM J. Matrix Anal. Appl. 38 (2017) 649).
_CROUZEIX = 1.0 + math.sqrt(2.0)

#: Bound on the truncation error of propagate, relative to the columns.
_TOL = 2.0**-53


def _bessel_j(x, n):
    """J_0(x), ..., J_n(x) for x > 0, by Miller's backward recurrence.

    The recurrence J_{k-1} = (2k / x) J_k - J_{k+1} starts from an
    arbitrary value far above both n and x, where it is stable, and is
    normalized by J_0 + 2 (J_2 + J_4 + ...) = 1.  Values are rescaled
    on the way down so that small x cannot overflow them; below 1e-20,
    where 2k / x outgrows that, J_k is (x / 2)^k / k! to double precision.
    """
    if x <= 1e-20:
        return np.cumprod(np.concatenate(([1.0], 0.5 * x / np.arange(1, n + 1))))
    top = n + int(x) + 20 + int(math.sqrt(40.0 * max(n, x)))
    top += top % 2
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = (2 * k / x) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e100:
            j = [v * 1e-100 for v in j]
    j = np.array(j)
    return j[: n + 1] / (j[0] + 2.0 * j[2:top + 1:2].sum())


def _chebyshev_bessel(x, rho):
    """J_0(x), ..., J_{K-1}(x): the Bessel values of the first K terms.

    K is the first index where (1 + sqrt 2) sum_{k >= K} 2 |J_k(x)| rho^k
    falls below 2**-53, the tail of the Chebyshev series of exp(-i x z)
    on the Bernstein ellipse of parameter rho.  Past x the Bessel values
    fall off faster than any power, so the tail is summed to a finite
    order, which is doubled until the bound is met within it.
    """
    n = int(1.5 * rho * x) + 40
    while True:
        j = _bessel_j(x, n)
        with np.errstate(divide="ignore", over="ignore"):
            terms = np.exp(np.log(2.0 * np.abs(j)) + np.arange(n + 1) * np.log(rho))
        tail = np.cumsum(terms[::-1])[::-1]
        below = np.flatnonzero(_CROUZEIX * tail < _TOL)
        if below.size:
            return j[: below[0]]
        n *= 2


def propagate(b, columns, t):
    """exp(-i t b) @ columns (2-D), by a Chebyshev series with an a-priori term count.

    With c the center and r the half-width of a real interval that
    holds the real part of the numerical range W(b),
    exp(-i t b) = exp(-i t c) (J_0(t r) + 2 sum_k (-i)^k J_k(t r) T_k(b~)),
    b~ = (b - c) / r, summed by the Chebyshev recurrence
    v_{k+1} = 2 b~ v_k - v_{k-1} (Tal-Ezer & Kosloff, J. Chem. Phys. 81
    (1984) 3967).  The bounds come from b's CSR arrays: with rad_i the
    mean of row i's and column i's off-diagonal absolute sums, the real
    part of W(b) lies in [min(Re d_i - rad_i), max(Re d_i + rad_i)] and
    its imaginary part in |Im| <= max(|Im d_i| + rad_i), d the diagonal.
    The scaled rectangle, corners included, lies in the Bernstein ellipse
    of parameter rho, where |T_k| <= rho^k.  b need not be normal (the
    Hamiltonians here are only self-adjoint in the indefinite product),
    but by the Crouzeix-Palencia theorem ||p(b~)|| is still at most
    (1 + sqrt 2) max |p| over W(b~), so the series stops at the first
    term K whose tail bound (1 + sqrt 2) sum_{k >= K} 2 |J_k(t r)| rho^k
    is below 2**-53.  A block dominated by its diagonal takes about one
    product per unit of t r, against about five for a Taylor series.

    When b and the columns are both real (H is real in the occupation
    basis, and the leakage and unitarity checks evolve basis columns),
    the recurrence runs on float64 columns: every term T_k(b~) x is
    real, and it is added to the real part of the sum when its
    coefficient has a real part (even k) and to the imaginary part when
    it has an imaginary part (odd k).  Otherwise the columns' float64
    view (real and imaginary parts interleaved) is multiplied by the
    real part of 2 b~ as a real CSR matrix, and the imaginary part is
    applied the same way only when it has nonzeros.  Either way the
    nonzeros are those of the complex recurrence bit for bit.  Bounds
    and parts come from a canonical copy of b, so b is never modified
    and an unsorted b gives the same bits.  A diagonal b (r = 0) and
    t = 0 are exact.
    """
    b = sp.csr_matrix(b, dtype=complex, copy=True)
    b.sum_duplicates()
    n = b.shape[0]
    diag = b.diagonal()
    rows = np.repeat(np.arange(n), np.diff(b.indptr))
    off = np.where(rows == b.indices, 0.0, np.abs(b.data))
    rad = 0.5 * (np.bincount(rows, off, minlength=n) + np.bincount(b.indices, off, minlength=n))
    lo = float(np.min(diag.real - rad))
    hi = float(np.max(diag.real + rad))
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    prev = np.array(columns, dtype=complex, order="C")
    if t == 0 or r == 0:
        return np.exp(-1j * t * diag)[:, None] * prev
    q2 = (float(np.max(np.abs(diag.imag) + rad)) / r) ** 2
    s = math.sqrt(0.5 * (q2 + math.sqrt(q2 * q2 + 4.0 * q2)))
    rho = s + math.sqrt(1.0 + s * s)
    bessel = _chebyshev_bessel(abs(t) * r, rho)
    orders = np.arange(bessel.size)
    coefs = np.where(orders, 2.0, 1.0) * (-1j * np.sign(t)) ** orders * bessel

    twice = (b - c * sp.identity(n, format="csr")) * (2.0 / r)
    real, imag = (
        sp.csr_matrix((data, twice.indices, twice.indptr), shape=twice.shape, copy=True)
        for data in (twice.data.real, twice.data.imag)
    )
    real.eliminate_zeros()
    imag.eliminate_zeros()

    if imag.nnz or np.any(prev.imag):

        def times_twice(x):  # 2 b~ x, each part on the float64 view of x
            view = x.view(np.float64)
            out = (real @ view).view(complex) if real.nnz else np.zeros_like(x)
            if imag.nnz:
                out += 1j * (imag @ view).view(complex)
            return out

        total = np.zeros_like(prev)
        for coef, term in zip(coefs, _chebyshev_terms(times_twice, prev, coefs.size)):
            total += coef * term
    else:
        parts = np.zeros((2,) + prev.shape)  # the real and imaginary parts of the sum
        terms = _chebyshev_terms(real.__matmul__, prev.real.copy(), coefs.size)
        for coef, term in zip(coefs, terms):
            for part, weight in zip(parts, (coef.real, coef.imag)):
                if weight:
                    part += weight * term
        total = np.empty_like(prev)
        total.real, total.imag = parts
    total *= np.exp(-1j * t * c)
    return total


def _chebyshev_terms(times_twice, first, count):
    """T_k(b~) first for k < count, from times_twice(x) = 2 b~ x.

    The recurrence v_{k+1} = 2 b~ v_k - v_{k-1} starts from v_0 = first
    and v_1 = b~ first; each term is a new array.
    """
    prev = first
    yield prev
    if count > 1:
        cur = 0.5 * times_twice(prev)
        yield cur
        for _ in range(count - 2):
            nxt = times_twice(cur)
            nxt -= prev
            yield nxt
            prev, cur = cur, nxt


def propagate_blocks(b, columns, t):
    """exp(-i t b) @ columns, one coupled block of b at a time.

    `columns` is a sparse (n, m) matrix.  For each block of b
    (coupled_blocks) that holds a nonzero of `columns`, yields
    (rows, column_ids, evolved): the block's states, the columns with a
    nonzero there, and exp(-i t b_block) @ columns[rows][:, column_ids]
    from one propagate call.  No power of b leaves a block, so the
    evolved columns are these blocks summed, and zero on every row not
    yielded; an all-zero column is never yielded.  Blocks come in
    increasing label order.
    """
    b = sp.csr_matrix(b)
    columns = sp.csc_matrix(columns)
    labels = coupled_blocks(b)
    nonzero_rows, nonzero_cols = columns.nonzero()
    owner = labels[nonzero_rows]
    for block in np.unique(owner):
        rows = np.flatnonzero(labels == block)
        ids = np.unique(nonzero_cols[owner == block])
        yield rows, ids, propagate(b[rows][:, rows], columns[rows][:, ids].toarray(), t)


def indefinite_inner(space, psi, phi):
    """The indefinite scalar product <psi|M|phi> (psi enters conjugated)."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape != (space.dim,) or phi.shape != (space.dim,):
        raise ValueError("state dimension does not match the space")
    return complex(np.conj(psi) @ (metric_diagonal(space) * phi))


def interior_mask(space):
    """Mask of the basis states with every occupation below the cutoff.

    Ladder-operator identities that would hold exactly on the infinite
    space hold exactly on these states; truncation artifacts are
    confined to states with some occupation at the cutoff.
    """
    return np.all(space.occupations < space.cutoff, axis=1)


def vacuum_state(space):
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    return vac


def dg_operators(space, direction):
    """The ghost-sector mode pair a_d, a_g (DG_D, DG_G) for one direction.

    In the physical metric these are two independent unit bosons; their
    bar-adjoints mix them: bar(a_d) = -i a_g-dagger, bar(a_g) = +i
    a_d-dagger, so d quanta and g quanta are indefinite-product
    conjugates of each other rather than of themselves.  Both are the
    first two dg_factors as sparse matrices.
    """
    a_d, a_g = dg_factors(direction)[:2]
    return monomial_sum(space, [(1.0, a_d)]), monomial_sum(space, [(1.0, a_g)])


def check_dg_occupations(space, plus, minus):
    """The (plus, minus) d/g occupation tuples as ints, validated.

    Each direction lists n1, n2, n_d, n_g; all must be nonnegative, the
    transverse ones within the cutoff, and n_d + n_g within the cutoff
    (the ghost part spreads over n0 + n3 = n_d + n_g).
    """
    occ = _dg_occupation_array(space, [(plus, minus)])[0][0]
    return tuple(int(n) for n in occ[:4]), tuple(int(n) for n in occ[4:])


def _dg_occupation_array(space, states):
    """A list of (plus, minus) d/g tuples as an (n, 8) int array, validated
    all at once by the rules of check_dg_occupations, and the basis
    stride of each slot; a space without all eight slots is refused."""
    stride = space.base ** (space.modes - 1 - np.array([space.position(s) for s in SLOTS]))
    rows = [(plus, minus) for plus, minus in states]
    try:
        occ = np.array(rows, dtype=np.int64)
        shaped = not rows or occ.shape[1:] == (2, 4)
    except ValueError:  # tuples of unequal lengths
        shaped = False
    if not shaped or np.any(occ < 0):
        raise ValueError("each direction needs 4 nonnegative occupations")
    occ = occ.reshape(-1, 8)
    transverse = occ[:, [0, 1, 4, 5]]
    ghost = occ[:, [2, 6]] + occ[:, [3, 7]]
    if np.any(transverse > space.cutoff) or np.any(ghost > space.cutoff):
        raise ValueError("occupations exceed the truncation")
    return occ, stride


def _dg_amplitudes(cutoff):
    """table[n_d, n_g, n0]: amplitude of |n0, n3 = n_d + n_g - n0> in |n_d, n_g>.

    The d/g raisers are a fixed rotation of the scalar/longitudinal pair,
    a_d-dagger = (-i/sqrt(2)) (a_3-dagger - a_0-dagger) and a_g-dagger =
    (1/sqrt(2)) (a_3-dagger + a_0-dagger), so expanding the binomials
    gives the integer count sum_j (-1)^j C(n_d, j) C(n_g, n0 - j) of
    a_0-dagger^n0 a_3-dagger^n3 terms; acting on the vacuum each term
    carries sqrt(n0! n3!).  Amplitudes with a zero count are exact zeros.
    """
    table = np.zeros((cutoff + 1,) * 3, dtype=complex)
    fact = [math.factorial(n) for n in range(cutoff + 1)]
    for nd in range(cutoff + 1):
        for ng in range(cutoff + 1 - nd):
            total = nd + ng
            phase = (1, -1j, -1, 1j)[nd % 4]
            for n0 in range(total + 1):
                count = sum(
                    (-1) ** j * math.comb(nd, j) * math.comb(ng, n0 - j)
                    for j in range(max(0, n0 - ng), min(nd, n0) + 1)
                )
                scale = fact[n0] * fact[total - n0] / (fact[nd] * fact[ng] * 2**total)
                table[nd, ng, n0] = phase * count * math.sqrt(scale)
    return table


def dg_basis_columns(space, states):
    """The d/g basis states of a list of (plus, minus) tuples as CSC columns.

    Each direction's tuple lists n1, n2, n_d, n_g (see dg_basis_state).
    A state is the outer product of its +k and -k ghost amplitudes over
    (n0, n3) and (n0', n3'), with the transverse occupations fixed, so a
    column holds at most (n_d + n_g + 1)(n_d' + n_g' + 1) nonzeros; its
    row indices follow from the basis strides.  The tuples are validated
    as by check_dg_occupations.
    """
    occ, stride = _dg_occupation_array(space, states)
    table = _dg_amplitudes(space.cutoff)
    n0 = np.arange(space.cutoff + 1)

    def ghost_part(d):  # amplitudes and index offsets of one direction
        nd, ng = occ[:, 4 * d + 2], occ[:, 4 * d + 3]
        n3 = (nd + ng)[:, None] - n0
        return table[nd, ng], n0 * stride[4 * d] + n3 * stride[4 * d + 3]

    (amp_p, idx_p), (amp_m, idx_m) = ghost_part(0), ghost_part(1)
    fixed = occ[:, [0, 1, 4, 5]] @ stride[[1, 2, 5, 6]]  # transverse slots
    values = amp_p[:, :, None] * amp_m[:, None, :]
    rows = fixed[:, None, None] + idx_p[:, :, None] + idx_m[:, None, :]
    keep = values != 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=(1, 2)))))
    return sp.csc_matrix(
        (values[keep], rows[keep], indptr), shape=(space.dim, len(occ))
    )


def dg_basis_state(space, plus, minus=(0, 0, 0, 0)):
    """Basis state |n1, n2, n_d, n_g> (x) |n1', n2', n_d', n_g'>.

    Each direction's tuple lists the two transverse occupations and the
    d/g ghost occupations.  The state is the one the plain daggers of the
    mode operators make from the vacuum with 1/sqrt(n!) factors, so it
    has unit physical-metric norm; it is one column of dg_basis_columns.
    The ghost part spreads over scalar/longitudinal occupations with
    n0 + n3 = n_d + n_g, so that sum must stay within the cutoff.
    """
    return dg_basis_columns(space, [(plus, minus)]).toarray().ravel()
