"""Rank-4 vacuum anisotropy tensor and its 3x3 parameter matrices.

The free photon sector is parameterized by a dimensionless rank-4
tensor with the index symmetries of the Riemann tensor and a vanishing
double trace (19 independent components).  This module holds that
tensor as a read-only float (4, 4, 4, 4) array of its fully raised
components and a four-vector as a float array (v^0, v^1, v^2, v^3);
as_kf_stack and _four_rows are their one shape checks.  It
converts the tensor to and from the five phenomenological 3x3 parameter
matrices (two parity-even, two parity-odd, one scalar trace), evaluates
the four-vector contraction both by brute force and by the
non-birefringent closed-form identity, and applies the leading-order
coordinate redefinition that removes the single-trace part.

Both directions of the conversion are closed forms.  kappas_from_kf
reads the parameters off three 3x3 blocks of the tensor, and
kf_from_kappas writes those blocks back,

    A = K^{0j0k}                          = -(e_plus + e_minus)/2 - (tr/2) I
    B = (1/4) eps^{jpq} eps^{krs} K^{pqrs} =  (e_plus - e_minus)/2 - (tr/2) I
    C = K^{0jpq} eps^{kpq}                =  o_plus + o_minus

with K^{pqrs} = eps^{pqj} eps^{rsk} B^{jk} and K^{0jpq} = (1/2) eps^{kpq}
C^{jk}; the pair antisymmetries and pair exchange give every other
component.  The double trace is 2 (tr B - tr A), and tr B = tr A since
e_plus and e_minus are traceless.

Metric signature is diag(+,-,-,-) throughout; every index raise/lower
goes through the same sign-pattern helper so conventions cannot diverge.

A parameter set, a tensor and a four-vector may carry leading axes: a
KappaSet with stacked fields holds many sets, and (..., 4, 4, 4, 4)
components many tensors.  Each function that takes them (the generator
product, the read-off, the invariant report, both contractions,
rotation and distance) has one arithmetic kernel that broadcasts over
those axes and returns results with them.  One set, one tensor or one
four-vector is the case with no leading axes, and gives Python floats
where a value is a number.
"""

from dataclasses import dataclass, field

import numpy as np

# Minkowski metric, signature (+,-,-,-).  Diagonal, so raising and
# lowering reduce to sign flips on spatial indices.
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# Levi-Civita symbol on three spatial indices.
EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_i, _j, _k] = 1.0
    EPS3[_i, _k, _j] = -1.0

# Per-index sign picked up when lowering (or raising) one index of a
# tensor component: +1 for the time index, -1 for spatial.
_INDEX_SIGN = np.array([1.0, -1.0, -1.0, -1.0])

# Sign pattern for flipping all four indices of a rank-4 component array.
_FLIP4 = np.einsum("a,b,c,d->abcd", _INDEX_SIGN, _INDEX_SIGN, _INDEX_SIGN, _INDEX_SIGN)

#: Default ingestion tolerance for symmetry/trace invariants.
INVARIANT_TOL = 1e-12

#: Largest parameter magnitude of the perturbative regime.
PERTURBATIVE_LIMIT = 0.1

#: The parameter fields of a KappaSet, in declaration order.
_FIELDS = ("e_minus", "o_plus", "tr", "e_plus", "o_minus")


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _four_rows(lead, *vectors):
    """Each argument as a float array of shape lead + (4,), or refused.

    The one shape check of four-vectors; lead = () is one four-vector.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if any(v.shape != lead + (4,) for v in vectors):
        raise ValueError("a four-vector needs exactly 4 components")
    return vectors


def as_kf_stack(kfs):
    """Raised components of one tensor or a stack of them, shape (..., 4, 4, 4, 4).

    The one shape check of rank-4 tensors: anything else is refused.
    """
    kfs = np.asarray(kfs, dtype=float)
    if kfs.shape[-4:] != (4, 4, 4, 4):
        raise ValueError("a rank-4 tensor needs a 4x4x4x4 array of components")
    return kfs


def as_kf_components(kf):
    """Raised components of exactly one tensor, a float (4, 4, 4, 4) array.

    For the functions that take one tensor only; a stack is refused too.
    """
    kf = as_kf_stack(kf)
    if kf.ndim != 4:
        raise ValueError("a rank-4 tensor needs a 4x4x4x4 array of components")
    return kf


def lowered(kf):
    """Fully lowered components, one sign flip per spatial index, of each tensor."""
    return as_kf_stack(kf) * _FLIP4


def sym_traceless(m):
    """Project a 3x3 array (or each of a stack) onto its symmetric traceless part.

    The last diagonal entry is set to minus the sum of the other two, so
    the output's floating-point trace is exactly zero and projecting it
    again returns the same bits (symmetrizing a symmetric array is exact);
    0.0 minus the sum makes it +0.0, never -0.0, where the sum is zero.
    """
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m + np.swapaxes(m, -1, -2))
    out = s - np.multiply.outer(np.trace(s, axis1=-2, axis2=-1) / 3.0, np.eye(3))
    out[..., 2, 2] = 0.0 - (out[..., 0, 0] + out[..., 1, 1])
    return out


def antisym(m):
    """Project a 3x3 array (or each of a stack) onto its antisymmetric part."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - np.swapaxes(m, -1, -2))


def _check_3x3(name, m, lead, symmetric, traceless, tol):
    if m.shape != lead + (3, 3):
        raise ValueError(f"{name} must be 3x3")
    transposed = np.swapaxes(m, -1, -2)
    if symmetric and np.max(np.abs(m - transposed)) > tol:
        raise ValueError(f"{name} must be symmetric (violation > {tol:g})")
    if not symmetric and np.max(np.abs(m + transposed)) > tol:
        raise ValueError(f"{name} must be antisymmetric (violation > {tol:g})")
    if traceless and np.max(np.abs(np.trace(m, axis1=-2, axis2=-1))) > tol:
        raise ValueError(f"{name} must be traceless (violation > {tol:g})")


def _check_sets(k, lead):
    """Refuse parameters that break the KappaSet rules, on every set of a stack.

    k has KappaSet's five fields with leading shape lead, () for one
    set; each rule is one whole-array comparison.
    """
    # NaN passes every tolerance comparison below, so check it first.
    for name in _FIELDS:
        if not np.all(np.isfinite(getattr(k, name))):
            raise ValueError(f"{name} must be finite")
    tol = INVARIANT_TOL
    _check_3x3("e_minus", k.e_minus, lead, symmetric=True, traceless=True, tol=tol)
    _check_3x3("e_plus", k.e_plus, lead, symmetric=True, traceless=True, tol=tol)
    _check_3x3("o_minus", k.o_minus, lead, symmetric=True, traceless=True, tol=tol)
    _check_3x3("o_plus", k.o_plus, lead, symmetric=False, traceless=False, tol=tol)


def _birefringence(k):
    """Largest abs entry of e_plus and o_minus, per set of a KappaSet."""
    return np.maximum(
        np.max(np.abs(k.e_plus), axis=(-2, -1)), np.max(np.abs(k.o_minus), axis=(-2, -1))
    )


@dataclass(frozen=True, eq=False)
class KappaSet:
    """The five 3x3/scalar vacuum anisotropy parameters.

    e_plus, e_minus, o_minus are symmetric traceless; o_plus is
    antisymmetric; tr is a scalar.  e_plus and o_minus parameterize the
    birefringent sector and default to zero.

    Many sets are one KappaSet with stacked fields: tr of shape lead and
    each block of shape lead + (3, 3).  The rules hold on every set; they
    are checked as whole-array comparisons when the KappaSet is built.
    One set has lead = () and a Python float tr.
    """

    e_minus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    o_plus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    tr: float = 0.0
    e_plus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    o_minus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        for name in ("e_minus", "o_plus", "e_plus", "o_minus"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        lead = () if isinstance(self.tr, float) else np.shape(self.tr)
        object.__setattr__(self, "tr", _readonly(self.tr) if lead else float(self.tr))
        _check_sets(self, lead)

    @property
    def is_birefringent(self):
        """Whether e_plus or o_minus is nonzero, per set."""
        # Tolerance floor so that parameters recovered from a rank-4
        # tensor by a linear solve (noise ~1e-18) still count as zero.
        out = _birefringence(self) > 1e-14
        return bool(out) if out.ndim == 0 else out

    @property
    def magnitude(self):
        """Max abs entry over all five parameters (perturbative size), per set."""
        out = _largest_entry([getattr(self, name) for name in _FIELDS], np.shape(self.tr))
        return float(out) if out.ndim == 0 else out

    def scaled(self, factor):
        """Every parameter multiplied by `factor`, a number or one factor per set.

        A 1-D array of L factors gives L stacked sets, set i scaled by
        factor[i]: tr gets shape (L,) and each block is multiplied by
        factor[..., None, None].  Of sets already stacked, the factors'
        shape must be the sets' leading shape.  Each set gets the bits
        that scaling it alone by its factor gives.
        """
        factor = np.asarray(factor, dtype=float)
        lead = np.shape(self.tr)
        if factor.ndim > 1 or (factor.ndim and lead and factor.shape != lead):
            raise ValueError("a scale factor must be a number or a 1-D array, one per set")
        block = factor[..., None, None]
        return KappaSet(
            e_minus=self.e_minus * block,
            o_plus=self.o_plus * block,
            tr=self.tr * factor,
            e_plus=self.e_plus * block,
            o_minus=self.o_minus * block,
        )

    def rotated(self, rot):
        """The parameters in a frame rotated by the 3x3 matrix `rot`.

        rot may carry leading axes too; they broadcast against the sets'.
        """
        rot_t = np.swapaxes(rot, -1, -2)
        return KappaSet(
            e_minus=rot @ self.e_minus @ rot_t,
            o_plus=rot @ self.o_plus @ rot_t,
            tr=self.tr,
            e_plus=rot @ self.e_plus @ rot_t,
            o_minus=rot @ self.o_minus @ rot_t,
        )

    @classmethod
    def from_projection(cls, e_minus=None, o_plus=None, tr=0.0, e_plus=None, o_minus=None):
        """Build valid sets by projecting raw 3x3 inputs onto the allowed parts.

        Stacked blocks have shape lead + (3, 3), tr shape lead; an absent block is zeros.
        """
        z = np.zeros(np.shape(tr) + (3, 3))
        return cls(
            e_minus=sym_traceless(z if e_minus is None else e_minus),
            o_plus=antisym(z if o_plus is None else o_plus),
            tr=tr,
            e_plus=sym_traceless(z if e_plus is None else e_plus),
            o_minus=sym_traceless(z if o_minus is None else o_minus),
        )


def check_perturbative(magnitude):
    """Reject a parameter magnitude above PERTURBATIVE_LIMIT.

    The one perturbative rule of the package.  The limit carries a
    relative allowance of 1e-12, so that parameters of magnitude exactly
    0.1 pass after a round trip through their tensor: the read-off
    (readoff_magnitude) lands up to 2e-15 above them.
    """
    if magnitude > PERTURBATIVE_LIMIT * (1.0 + 1e-12):
        raise ValueError(
            f"kappa parameters must be perturbative (magnitude <= {PERTURBATIVE_LIMIT:g})"
        )


def check_nonbiref(kappas):
    """Reject parameters outside the non-birefringent perturbative regime.

    The mode Hamiltonian and the potential mixing both expand to first
    order in a set with e_plus = o_minus = 0.  Of stacked sets, one set
    outside the regime rejects the stack.
    """
    if np.any(kappas.is_birefringent):
        raise ValueError("the mode expansion assumes e_plus = o_minus = 0")
    check_perturbative(np.max(kappas.magnitude))


def kappa_distance(a, b):
    """Largest absolute entry difference between two KappaSets, over all blocks.

    Of stacked sets, the distance of each pair of sets.
    """
    diffs = [getattr(a, name) - getattr(b, name) for name in _FIELDS]
    return _largest_entry(diffs, np.shape(a.tr))


def _largest_entry(arrays, lead):
    """Largest abs entry over arrays of leading shape lead, per leading index."""
    flat = [np.abs(a).reshape(lead + (-1,)) for a in arrays]
    return np.max(np.concatenate(flat, axis=-1), axis=-1)


#: Standard normals per random_kappas draw, without and with birefringence.
DRAW_WIDTH = {False: 19, True: 37}


def kappa_draws(normals, scale=1e-2):
    """The parameter sets drawn from these standard normals, as a KappaSet.

    One set per row of normals: the last axis holds one draw and any
    leading axes stack the sets.  A row of 19 normals gives a
    non-birefringent set, from e_minus (9 normals), o_plus (9) and tr
    (1) in that order; a row of 37 goes on with e_plus (9) and o_minus
    (9).  Each row is scaled by `scale` and projected onto the allowed
    parts, one row exactly as a stack of rows, so a stacked draw holds
    bit for bit the sets of successive one-row draws.
    """
    z = np.asarray(normals, dtype=float) * scale
    if z.ndim == 0 or z.shape[-1] not in DRAW_WIDTH.values():
        raise ValueError("a kappa draw takes 19 or 37 normals per row")
    lead = z.shape[:-1]

    def block(start):
        return z[..., start : start + 9].reshape(lead + (3, 3))

    birefringent = z.shape[-1] == DRAW_WIDTH[True]
    return KappaSet.from_projection(
        e_minus=block(0),
        o_plus=block(9),
        tr=z[..., 18],
        e_plus=block(19) if birefringent else None,
        o_minus=block(28) if birefringent else None,
    )


def random_kappas(rng, scale=1e-2, birefringent=False):
    """Draw a random valid KappaSet with entries of order `scale`.

    kappa_draws of one row of DRAW_WIDTH[birefringent] normals.
    """
    return kappa_draws(rng.normal(size=DRAW_WIDTH[bool(birefringent)]), scale)


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Maximum violation of each structural invariant, per rank-4 tensor."""

    first_pair_antisymmetry: float
    second_pair_antisymmetry: float
    pair_exchange: float
    bianchi: float
    double_trace: float

    @property
    def max_violation(self):
        """The largest of the five violations, per tensor."""
        return np.max(
            [
                self.first_pair_antisymmetry,
                self.second_pair_antisymmetry,
                self.pair_exchange,
                self.bianchi,
                self.double_trace,
            ],
            axis=0,
        )

    def ok(self):
        return self.max_violation <= INVARIANT_TOL


def check_invariants(kf):
    """Measure all structural invariants of a rank-4 tensor, or of each of a stack.

    Returns a SymmetryReport with the max abs violation of antisymmetry on
    each index pair, symmetry under pair exchange, the first Bianchi
    identity, and the double trace.  Purely diagnostic; never raises on
    a tensor of the right shape.
    """
    return SymmetryReport(*_violations(as_kf_stack(kf)))


def _violations(K):
    """The five fields of check_invariants' report, per tensor of K."""

    def permuted(*order):  # K with its last four indices permuted
        lead = tuple(range(K.ndim - 4))
        return K.transpose(lead + tuple(len(lead) + i for i in order))

    def worst(a):
        return np.max(np.abs(a), axis=(-4, -3, -2, -1))

    first = worst(K + permuted(1, 0, 2, 3))
    second = worst(K + permuted(0, 1, 3, 2))
    pair = worst(K - permuted(2, 3, 0, 1))
    # K[k,l,m,n] + K[k,n,l,m] + K[k,m,n,l] = 0
    bianchi = worst(K + permuted(0, 3, 1, 2) + permuted(0, 2, 3, 1))
    # g_{km} g_{ln} K^{klmn} = 0 (diagonal metric)
    dtr = abs(np.einsum("...abab,a,b->...", K, _INDEX_SIGN, _INDEX_SIGN))
    return first, second, pair, bianchi, dtr


def kappas_from_kf(kf):
    """Decompose a valid rank-4 tensor into its five parameter matrices.

    The five read-off formulas (raised indices):

        e_plus^{jk}  = -K^{0j0k} + (1/4) eps^{jpq} eps^{krs} K^{pqrs}
        e_minus^{jk} = -K^{0j0k} - (1/4) eps^{jpq} eps^{krs} K^{pqrs}
                       + (2/3) delta^{jk} K^{0l0l}
        o_plus^{jk}  = (1/2)(K^{0jpq} eps^{kpq} - K^{0kpq} eps^{jpq})
        o_minus^{jk} = (1/2)(K^{0jpq} eps^{kpq} + K^{0kpq} eps^{jpq})
        tr           = -(2/3) K^{0l0l}

    A stack of tensors gives the stacked KappaSet of their parameters.

    Raises ValueError if the input violates the structural invariants
    beyond INVARIANT_TOL (malformed tensor); a stack is refused whole
    when any of its tensors does, or any read-off breaks the KappaSet
    rules.
    """
    return KappaSet(**_checked_read_off(as_kf_stack(kf)))


def _checked_read_off(K):
    """_read_off of a tensor or stack, refused if any tensor violates the invariants."""
    worst = np.max(_violations(K))
    if not worst <= INVARIANT_TOL:
        raise ValueError(
            f"tensor violates structural invariants (max {worst:.3e} > {INVARIANT_TOL:g})"
        )
    return _read_off(K)


def _read_off(K):
    """kappas_from_kf's five read-off formulas on components K, as raw arrays.

    K is one tensor or a stack; each block gets K's leading axes.
    """
    k0j0k = K[..., 0, 1:, 0, 1:]
    spatial = K[..., 1:, 1:, 1:, 1:]
    dual = 0.25 * np.einsum("jpq,krs,...pqrs->...jk", EPS3, EPS3, spatial)
    rot = np.einsum("...jpq,kpq->...jk", K[..., 0, 1:, 1:, 1:], EPS3)
    rot_t = np.swapaxes(rot, -1, -2)
    tr0 = np.trace(k0j0k, axis1=-2, axis2=-1)
    return dict(
        e_minus=-k0j0k - dual + np.multiply.outer(tr0, (2.0 / 3.0) * np.eye(3)),
        o_plus=0.5 * (rot - rot_t),
        tr=-(2.0 / 3.0) * tr0,
        e_plus=-k0j0k + dual,
        o_minus=0.5 * (rot + rot_t),
    )


def readoff_magnitude(kf):
    """KappaSet.magnitude of the parameters read off a rank-4 tensor.

    The read-off of kappas_from_kf without its invariant check: a tensor
    that violates the invariants gets the magnitude of its read-off, not
    an error.
    """
    return max(float(np.max(np.abs(v))) for v in _read_off(as_kf_components(kf)).values())


def _flatten_kappas(k):
    """Pack a KappaSet into the canonical 19-vector, shape lead + (19,).

    Order: e_plus (5), e_minus (5), o_plus (3), o_minus (5), tr.
    Symmetric traceless matrices are represented by
    (m00, m11, m01, m02, m12); antisymmetric by (m01, m02, m12).
    """

    def sym5(m):
        return [m[..., 0, 0], m[..., 1, 1], m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]]

    def asym3(m):
        return [m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]]

    return np.stack(
        sym5(k.e_plus) + sym5(k.e_minus) + asym3(k.o_plus) + sym5(k.o_minus) + [k.tr],
        axis=-1,
    )


def _unflatten_kappas(x):
    """The blocks of canonical 19-vectors x, shape (..., 19), as arrays.

    Inverse of _flatten_kappas: returns e_plus, e_minus, o_plus, o_minus
    (each (..., 3, 3)) and tr (shape (...)).
    """
    x = np.asarray(x, dtype=float)

    def block(v, pairs, sign):
        m = np.zeros(v.shape[:-1] + (3, 3))
        for slot, (i, j) in enumerate(pairs):
            m[..., i, j] = v[..., slot]
            m[..., j, i] = sign * v[..., slot]
        return m

    def sym(v):
        m = block(v, ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2)), 1.0)
        m[..., 2, 2] = -(v[..., 0] + v[..., 1])
        return m

    def asym(v):
        return block(v, ((0, 1), (0, 2), (1, 2)), -1.0)

    e_plus, e_minus, o_minus = sym(x[..., 0:5]), sym(x[..., 5:10]), sym(x[..., 13:18])
    return e_plus, e_minus, asym(x[..., 10:13]), o_minus, x[..., 18]


def _tensor_from_blocks(e_plus, e_minus, o_plus, o_minus, tr):
    """Raised components of the valid tensors with the given parameter blocks.

    Takes stacks of blocks (leading axes broadcast) and inverts the
    read-off of kappas_from_kf block by block:

        A^{jk} = K^{0j0k} = -(1/2)(e_plus + e_minus) - (1/2) tr I
        B^{jk} = (1/4) eps^{jpq} eps^{krs} K^{pqrs}
               = (1/2)(e_plus - e_minus) - (1/2) tr I,
                 so K^{pqrs} = eps^{pqj} eps^{rsk} B^{jk}
        C^{jk} = K^{0jpq} eps^{kpq} = o_plus + o_minus,
                 so K^{0jpq} = (1/2) eps^{kpq} C^{jk}

    and every other component follows from the pair antisymmetries and
    pair exchange.  The double trace is 2 (tr B - tr A), and tr B = tr A
    because e_plus and e_minus are traceless; the Bianchi identity is
    tr C = 0, which holds because o_plus is antisymmetric and o_minus
    traceless.
    """
    trace_part = 0.5 * np.multiply.outer(tr, np.eye(3))
    a = -0.5 * (e_plus + e_minus) - trace_part
    b = 0.5 * (e_plus - e_minus) - trace_part
    m = 0.5 * np.einsum("kpq,...jk->...jpq", EPS3, o_plus + o_minus)  # K^{0jpq}
    m_exchanged = np.moveaxis(m, -3, -1)  # K^{pq0j} = K^{0jpq}
    K = np.zeros(a.shape[:-2] + (4, 4, 4, 4))
    K[..., 0, 1:, 0, 1:] = K[..., 1:, 0, 1:, 0] = a
    K[..., 0, 1:, 1:, 0] = K[..., 1:, 0, 0, 1:] = -a
    K[..., 0, 1:, 1:, 1:] = m
    K[..., 1:, 0, 1:, 1:] = -m
    K[..., 1:, 1:, 0, 1:] = m_exchanged
    K[..., 1:, 1:, 1:, 0] = -m_exchanged
    K[..., 1:, 1:, 1:, 1:] = np.einsum("pqj,rsk,...jk->...pqrs", EPS3, EPS3, b)
    return K


# The 256 x 19 map from the canonical 19-vector to the flattened raised
# components, one column per unit parameter; its entries are 0 and
# +-1/2, so it is exact.  It is kept in C order: the rounding of x @ G.T
# depends on the layout BLAS sees.  Q of its QR factorization is an
# orthonormal basis of the valid tensors, which project_kf projects onto.
_GENERATOR = _readonly(
    _tensor_from_blocks(*_unflatten_kappas(np.eye(19))).reshape(19, 256).T.copy()
)
_VALID_BASIS = _readonly(np.linalg.qr(_GENERATOR)[0])


def kf_from_kappas(k):
    """Build the unique valid rank-4 tensor with the given parameters.

    Inverse of kappas_from_kf on the 19-parameter space: the fixed
    generator applied to the canonical 19-vector of k, which is the
    closed form of _tensor_from_blocks.  Going through the 19-vector
    completes each traceless block's last diagonal entry exactly, so the
    double trace and Bianchi identity hold whatever trace roundoff k's
    matrices carry.

    Stacked sets give one read-only tensor per set, shape
    lead + (4, 4, 4, 4), from one stacked product with the generator.
    BLAS rounds that product differently from the one-vector product of
    a single set, so a stacked tensor can differ from the tensor of its
    set alone in the last bit.
    """
    x = _flatten_kappas(k)
    kf = (x @ _GENERATOR.T).reshape(x.shape[:-1] + (4, 4, 4, 4))
    kf.setflags(write=False)
    return kf


def contract4(kf, w, x, y, z):
    """Fully contract the lowered tensor with four raised four-vectors.

    Direct summation of K_{klmn} w^k x^l y^m z^n over all 256 index
    tuples, with the lowered components of `lowered`.  A stack of
    tensors takes four-vectors with its leading shape, one of each per
    tensor, and gives one value per tensor; one tensor gives a float.
    """
    K_low = lowered(kf)
    vectors = _four_rows(K_low.shape[:-4], w, x, y, z)
    out = np.einsum("...klmn,...k,...l,...m,...n->...", K_low, *vectors)
    return float(out) if out.ndim == 0 else out


def contract4_kappa(k, w, x, y, z):
    """Closed-form contraction for the non-birefringent sector.

    With J(u, v) = u^0 v_vec - u_vec v^0 and W(u, v) = u_vec x v_vec, the
    contraction K_{klmn} w^k x^l y^m z^n equals

        -(1/2) J(w,x) . (e_minus + I tr) . J(y,z)
        -(1/2) [ J(w,x) . o_plus . W(y,z) + J(y,z) . o_plus . W(w,x) ]
        -(1/2) W(w,x) . (e_minus + I tr) . W(y,z)

    Only valid with e_plus = o_minus = 0; birefringent input is rejected.
    Stacked sets take four-vectors with their leading shape and give one
    value per set; one set gives a float.
    """
    if np.any(k.is_birefringent):
        raise ValueError("closed-form contraction only covers the non-birefringent sector")
    w, x, y, z = _four_rows(np.shape(k.tr), w, x, y, z)
    emt = k.e_minus + np.multiply.outer(k.tr, np.eye(3))
    j_wx = w[..., :1] * x[..., 1:] - w[..., 1:] * x[..., :1]
    j_yz = y[..., :1] * z[..., 1:] - y[..., 1:] * z[..., :1]
    w_wx = np.cross(w[..., 1:], x[..., 1:])
    w_yz = np.cross(y[..., 1:], z[..., 1:])

    def form(u, m, v):  # u . m . v
        return (u[..., None, :] @ m @ v[..., :, None])[..., 0, 0]

    out = -0.5 * form(j_wx, emt, j_yz)
    out += -0.5 * (form(j_wx, k.o_plus, w_yz) + form(j_yz, k.o_plus, w_wx))
    out += -0.5 * form(w_wx, emt, w_yz)
    return float(out) if out.ndim == 0 else out


def project_kf(components):
    """Orthogonal projection of raw components onto the valid tensor space.

    The nearest (Frobenius) rank-4 array satisfying all structural
    invariants; the identity for already-valid input up to fp rounding.
    This is the rank-4 counterpart of sym_traceless/antisym for callers
    that want to repair slightly perturbed tensors instead of rejecting
    them.  The orthonormal basis is Q of the QR factorization of the
    generator; components that no valid tensor has (K^{3333}, say) come
    out exactly 0.
    """
    flat = as_kf_components(components).reshape(256)
    return _readonly((_VALID_BASIS @ (_VALID_BASIS.T @ flat)).reshape(4, 4, 4, 4))


def single_trace(kf):
    """The mixed single trace T^m_n = K^{am}_{  an} as a 4x4 matrix."""
    K = as_kf_components(kf)
    # Lower the third and fourth indices, then contract the third with the first.
    return np.einsum("ambd,ba,dn->mn", K, METRIC, METRIC)


def coordinate_shift(kf, event):
    """Apply the leading-order coordinate redefinition to an event.

    x'^m = x^m - (1/2) T^m_n x^n with T the single-trace matrix; the map
    is the identity whenever that trace vanishes (purely birefringent or
    zero tensor).  Covectors go by the inverse transpose, k'_n = k_n +
    (1/2) k_m T^m_n to first order, with a wave's covector k_b =
    (omega, +k) as in dispersion.ktilde.  For a non-birefringent set
    this moves both Ampere roots onto the light cone to first order:
    k.k falls from O(kappa) to O(kappa^2).  "Non-birefringent" holds at
    leading order only: the two roots split at second order (by up to
    about 3 kappa^2 |k|), and no coordinate change removes that split.
    """
    (x,) = _four_rows((), event)
    return x - 0.5 * (single_trace(kf) @ x)
