"""monomial_sum as it was before it kept arrays on the space, kept as its reference.

fock_space.monomial_sum keeps each one-path band's support and entries
and the CSR layouts of its last term lists on the space; this forms
every shift's band densely and lays the matrix out afresh on every
call.  The two must give the same data, indices and indptr bit for
bit, on a fresh space and on one that already holds a cache.
"""

import numpy as np
import scipy.sparse as sp


def monomial_sum(space, terms):
    """sum_k c_k X_k Y_k (or c_k X_k) as one CSR matrix, every band formed densely."""
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
    by_shift = {}  # shift -> coefficient -> [[(weight, monomial)] per term]
    for product, coef in products.items():
        if coef == 0:
            continue
        groups = {}
        for monomial, weight in product:
            shift = sum(strides[slot] * (1 if up else -1) for slot, up in monomial)
            groups.setdefault(shift, []).append((weight, monomial))
        for shift, paths in groups.items():
            by_shift.setdefault(shift, {}).setdefault(coef, []).append(paths)

    n = np.arange(space.base)
    roots = np.sqrt(np.arange(space.base + 2))

    def table(raising, occupation):  # sqrt entry of one operator, 0 if none
        level = occupation + raising  # n for a lowering, n + 1 for a raising
        return np.where((level > 0) & (level <= space.cutoff), roots[level], 0.0)

    def spread(slot, values):  # values[n_slot] on every basis state
        stride = space.base ** (space.modes - 1 - slot)
        return np.tile(np.repeat(values, stride), space.dim // (stride * space.base))

    single = {}  # the entry of each (slot, raising) in every column

    def entries(monomial):  # the monomial's entry in every column
        if len(monomial) == 2 and monomial[0][0] == monomial[1][0]:
            # the left operator sees the occupation the right one left
            (slot, raise_l), (_, raise_r) = monomial
            step = 1 if raise_r else -1
            return spread(slot, table(raise_l, n + step) * table(raise_r, n))
        for slot, raising in monomial:
            if (slot, raising) not in single:
                single[slot, raising] = spread(slot, table(raising, n))
        if len(monomial) == 1:
            return single[monomial[0]]
        return single[monomial[0]] * single[monomial[1]]

    rows, cols, values = [], [], []
    band = np.zeros(space.dim, dtype=complex)  # one shift's entries, by column
    # Descending shifts put each row's columns in ascending order below.
    for shift in sorted(by_shift, reverse=True):
        for coef, terms in by_shift[shift].items():
            shared = 0.0  # the terms' products, before their common coefficient
            for paths in terms:
                product = 0.0
                for weight, monomial in paths:
                    product = product + weight * entries(monomial)
                shared = shared + product
            band += coef * shared
        col = np.flatnonzero(band != 0)
        values.append(band[col])
        band[...] = 0.0
        rows.append(col + shift)
        cols.append(col)
    # Each band holds a row at most once, so its entries drop straight into
    # the next free slot of their rows; bands in order keep every row's
    # columns ascending, and no sort is needed.
    counts = np.zeros(space.dim, dtype=np.int64)
    for band_rows in rows:
        counts[band_rows] += 1
    indptr = np.zeros(space.dim + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(counts)
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=np.int32)
    free = indptr[:-1].astype(np.int64)
    for band_rows, band_cols, band_values in zip(rows, cols, values):
        slots = free[band_rows]
        data[slots] = band_values
        indices[slots] = band_cols
        free[band_rows] += 1
    return sp.csr_matrix((data, indices, indptr), shape=(space.dim, space.dim))
