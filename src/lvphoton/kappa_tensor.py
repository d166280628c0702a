"""Rank-4 vacuum anisotropy tensor and its 3x3 parameter matrices.

The free photon sector is parameterized by a dimensionless rank-4
tensor with the index symmetries of the Riemann tensor and a vanishing
double trace (19 independent components).  This module stores that tensor
in fully raised form, converts it to and from the five phenomenological
3x3 parameter matrices (two parity-even, two parity-odd, one scalar
trace), evaluates the four-vector contraction both by brute force and by
the non-birefringent closed-form identity, and applies the leading-order
coordinate redefinition that removes the single-trace part.

Metric signature is diag(+,-,-,-) throughout; every index raise/lower
goes through the same sign-pattern helper so conventions cannot diverge.
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


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FourVector:
    """A four-vector (t, x, y, z) in natural units (c = 1)."""

    t: float
    spatial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        sp = _readonly(self.spatial)
        if sp.shape != (3,):
            raise ValueError("spatial part must be a 3-vector")
        object.__setattr__(self, "spatial", sp)

    @property
    def components(self):
        """Raised components (v^0, v^1, v^2, v^3) as a length-4 array."""
        return np.concatenate(([self.t], self.spatial))

    @classmethod
    def from_components(cls, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (4,):
            raise ValueError("four-vector needs exactly 4 components")
        return cls(v[0], v[1:])


def as_four_components(v):
    """Coerce a FourVector or any length-4 array-like to raised components."""
    if isinstance(v, FourVector):
        return v.components
    v = np.asarray(v, dtype=float)
    if v.shape != (4,):
        raise ValueError("expected a FourVector or 4 components")
    return v


@dataclass(frozen=True)
class KFTensor:
    """Rank-4 anisotropy tensor, stored with all indices raised."""

    components: np.ndarray

    def __post_init__(self):
        c = _readonly(self.components)
        if c.shape != (4, 4, 4, 4):
            raise ValueError("components must be a 4x4x4x4 array")
        object.__setattr__(self, "components", c)

    @property
    def lowered(self):
        """Fully lowered components; one sign flip per spatial index."""
        return self.components * _FLIP4

    @classmethod
    def zero(cls):
        return cls(np.zeros((4, 4, 4, 4)))


def as_kf_components(kf):
    """Coerce a KFTensor or raw 4x4x4x4 array to its raised components."""
    if isinstance(kf, KFTensor):
        return kf.components
    kf = np.asarray(kf, dtype=float)
    if kf.shape != (4, 4, 4, 4):
        raise ValueError("expected a KFTensor or a 4x4x4x4 array")
    return kf


def sym_traceless(m):
    """Project a 3x3 array onto its symmetric traceless part.

    The last diagonal entry is set to minus the sum of the other two, so
    the output's floating-point trace is exactly zero and projecting it
    again returns the same bits (symmetrizing a symmetric array is exact).
    """
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m + m.T)
    out = s - np.eye(3) * (np.trace(s) / 3.0)
    out[2, 2] = -(out[0, 0] + out[1, 1])
    return out


def antisym(m):
    """Project a 3x3 array onto its antisymmetric part."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - m.T)


def _check_3x3(name, m, symmetric, traceless, tol):
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3")
    if symmetric and np.max(np.abs(m - m.T)) > tol:
        raise ValueError(f"{name} must be symmetric (violation > {tol:g})")
    if not symmetric and np.max(np.abs(m + m.T)) > tol:
        raise ValueError(f"{name} must be antisymmetric (violation > {tol:g})")
    if traceless and abs(np.trace(m)) > tol:
        raise ValueError(f"{name} must be traceless (violation > {tol:g})")


@dataclass(frozen=True)
class KappaSet:
    """The five 3x3/scalar vacuum anisotropy parameters.

    e_plus, e_minus, o_minus are symmetric traceless; o_plus is
    antisymmetric; tr is a scalar.  e_plus and o_minus parameterize the
    birefringent sector and default to zero.
    """

    e_minus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    o_plus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    tr: float = 0.0
    e_plus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    o_minus: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        for name in ("e_minus", "o_plus", "e_plus", "o_minus"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "tr", float(self.tr))
        tol = INVARIANT_TOL
        _check_3x3("e_minus", self.e_minus, symmetric=True, traceless=True, tol=tol)
        _check_3x3("e_plus", self.e_plus, symmetric=True, traceless=True, tol=tol)
        _check_3x3("o_minus", self.o_minus, symmetric=True, traceless=True, tol=tol)
        _check_3x3("o_plus", self.o_plus, symmetric=False, traceless=False, tol=tol)

    @property
    def is_birefringent(self):
        # Tolerance floor so that parameters recovered from a rank-4
        # tensor by a linear solve (noise ~1e-18) still count as zero.
        return max(np.max(np.abs(self.e_plus)), np.max(np.abs(self.o_minus))) > 1e-14

    @property
    def magnitude(self):
        """Max abs entry over all five parameters (perturbative size)."""
        return max(
            np.max(np.abs(self.e_minus)),
            np.max(np.abs(self.o_plus)),
            abs(self.tr),
            np.max(np.abs(self.e_plus)),
            np.max(np.abs(self.o_minus)),
        )

    @classmethod
    def from_projection(cls, e_minus=None, o_plus=None, tr=0.0, e_plus=None, o_minus=None):
        """Build a valid set by projecting raw 3x3 inputs onto the allowed parts."""
        z = np.zeros((3, 3))
        return cls(
            e_minus=sym_traceless(z if e_minus is None else e_minus),
            o_plus=antisym(z if o_plus is None else o_plus),
            tr=tr,
            e_plus=sym_traceless(z if e_plus is None else e_plus),
            o_minus=sym_traceless(z if o_minus is None else o_minus),
        )


def random_kappas(rng, scale=1e-2, birefringent=False):
    """Draw a random valid KappaSet with entries of order `scale`."""
    kw = dict(
        e_minus=sym_traceless(rng.normal(size=(3, 3)) * scale),
        o_plus=antisym(rng.normal(size=(3, 3)) * scale),
        tr=float(rng.normal() * scale),
    )
    if birefringent:
        kw["e_plus"] = sym_traceless(rng.normal(size=(3, 3)) * scale)
        kw["o_minus"] = sym_traceless(rng.normal(size=(3, 3)) * scale)
    return KappaSet(**kw)


@dataclass(frozen=True)
class SymmetryReport:
    """Maximum violation of each structural invariant of the rank-4 tensor."""

    first_pair_antisymmetry: float
    second_pair_antisymmetry: float
    pair_exchange: float
    bianchi: float
    double_trace: float

    @property
    def max_violation(self):
        return max(
            self.first_pair_antisymmetry,
            self.second_pair_antisymmetry,
            self.pair_exchange,
            self.bianchi,
            self.double_trace,
        )

    def ok(self, tol=INVARIANT_TOL):
        return self.max_violation <= tol


def check_invariants(kf):
    """Measure all structural invariants of a rank-4 tensor.

    Returns a SymmetryReport with the max abs violation of antisymmetry on
    each index pair, symmetry under pair exchange, the first Bianchi
    identity, and the double trace.  Purely diagnostic; never raises.
    """
    K = as_kf_components(kf)
    first = np.max(np.abs(K + K.transpose(1, 0, 2, 3)))
    second = np.max(np.abs(K + K.transpose(0, 1, 3, 2)))
    pair = np.max(np.abs(K - K.transpose(2, 3, 0, 1)))
    # K[k,l,m,n] + K[k,n,l,m] + K[k,m,n,l] = 0
    bianchi = np.max(np.abs(K + K.transpose(0, 3, 1, 2) + K.transpose(0, 2, 3, 1)))
    # g_{km} g_{ln} K^{klmn} = 0 (diagonal metric)
    dtr = abs(np.einsum("abab,a,b->", K, _INDEX_SIGN, _INDEX_SIGN))
    return SymmetryReport(first, second, pair, bianchi, dtr)


def kappas_from_kf(kf, tol=INVARIANT_TOL):
    """Decompose a valid rank-4 tensor into its five parameter matrices.

    The five read-off formulas (raised indices):

        e_plus^{jk}  = -K^{0j0k} + (1/4) eps^{jpq} eps^{krs} K^{pqrs}
        e_minus^{jk} = -K^{0j0k} - (1/4) eps^{jpq} eps^{krs} K^{pqrs}
                       + (2/3) delta^{jk} K^{0l0l}
        o_plus^{jk}  = (1/2)(K^{0jpq} eps^{kpq} - K^{0kpq} eps^{jpq})
        o_minus^{jk} = (1/2)(K^{0jpq} eps^{kpq} + K^{0kpq} eps^{jpq})
        tr           = -(2/3) K^{0l0l}

    Raises ValueError if the input violates the structural invariants
    beyond `tol` (malformed tensor).
    """
    K = as_kf_components(kf)
    report = check_invariants(K)
    if not report.ok(tol):
        raise ValueError(
            f"tensor violates structural invariants (max {report.max_violation:.3e} > {tol:g})"
        )
    k0j0k = K[0, 1:, 0, 1:]
    spatial = K[1:, 1:, 1:, 1:]
    dual = 0.25 * np.einsum("jpq,krs,pqrs->jk", EPS3, EPS3, spatial)
    rot = np.einsum("jpq,kpq->jk", K[0, 1:, 1:, 1:], EPS3)
    tr0 = np.trace(k0j0k)
    return KappaSet(
        e_minus=-k0j0k - dual + (2.0 / 3.0) * np.eye(3) * tr0,
        o_plus=0.5 * (rot - rot.T),
        tr=-(2.0 / 3.0) * tr0,
        e_plus=-k0j0k + dual,
        o_minus=0.5 * (rot + rot.T),
    )


def _flatten_kappas(k):
    """Pack a KappaSet into the canonical 19-vector.

    Order: e_plus (5), e_minus (5), o_plus (3), o_minus (5), tr.
    Symmetric traceless matrices are represented by
    (m00, m11, m01, m02, m12); antisymmetric by (m01, m02, m12).
    """

    def sym5(m):
        return [m[0, 0], m[1, 1], m[0, 1], m[0, 2], m[1, 2]]

    def asym3(m):
        return [m[0, 1], m[0, 2], m[1, 2]]

    return np.array(
        sym5(k.e_plus) + sym5(k.e_minus) + asym3(k.o_plus) + sym5(k.o_minus) + [k.tr]
    )


_BASIS_CACHE = {}


def _kf_parameter_basis():
    """Nullspace basis of the structural constraints plus the 19x19 map.

    Builds, once, an orthonormal basis N (256 x 19) of rank-4 component
    arrays satisfying all structural invariants, together with the LU
    factorization of the matrix taking basis coordinates to the canonical
    19-vector of parameter read-offs.  The 19-dimensionality is asserted.
    """
    if "basis" in _BASIS_CACHE:
        return _BASIS_CACHE["basis"]

    idx = np.arange(256).reshape(4, 4, 4, 4)
    rows = []

    def add(pairs):
        row = np.zeros(256)
        for coeff, (a, b, c, d) in pairs:
            row[idx[a, b, c, d]] += coeff
        rows.append(row)

    rng4 = range(4)
    for a in rng4:
        for b in rng4:
            for c in rng4:
                for d in rng4:
                    add([(1.0, (a, b, c, d)), (1.0, (b, a, c, d))])
                    add([(1.0, (a, b, c, d)), (1.0, (a, b, d, c))])
                    add([(1.0, (a, b, c, d)), (-1.0, (c, d, a, b))])
                    add([(1.0, (a, b, c, d)), (1.0, (a, d, b, c)), (1.0, (a, c, d, b))])
    add([
        (float(_INDEX_SIGN[a] * _INDEX_SIGN[b]), (a, b, a, b))
        for a in rng4
        for b in rng4
    ])

    constraints = np.array(rows)
    _, s, vt = np.linalg.svd(constraints)
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[: s.size] = s < 1e-10
    null_mask[s.size:] = True
    basis = vt[null_mask].T  # 256 x n_null
    if basis.shape[1] != 19:
        raise RuntimeError(f"constraint nullspace has dimension {basis.shape[1]}, expected 19")

    # Map basis coordinates to the canonical 19 parameters via the read-off.
    fwd = np.column_stack(
        [_flatten_kappas(kappas_from_kf(basis[:, j].reshape(4, 4, 4, 4))) for j in range(19)]
    )
    from scipy.linalg import lu_factor

    _BASIS_CACHE["basis"] = (basis, lu_factor(fwd))
    return _BASIS_CACHE["basis"]


def kf_from_kappas(k):
    """Build the unique valid rank-4 tensor with the given parameters.

    Inverse of kappas_from_kf on the 19-parameter space: solves the
    precomputed 19x19 linear system mapping the constraint-nullspace
    coordinates onto the parameter read-offs.
    """
    from scipy.linalg import lu_solve

    basis, fwd_lu = _kf_parameter_basis()
    coords = lu_solve(fwd_lu, _flatten_kappas(k))
    return KFTensor((basis @ coords).reshape(4, 4, 4, 4))


def contract4(kf, w, x, y, z):
    """Fully contract the lowered tensor with four raised four-vectors.

    Direct summation of K_{klmn} w^k x^l y^m z^n over all 256 index
    tuples (the lowered components are generated from the raised storage
    by the shared sign-pattern helper).
    """
    K_low = as_kf_components(kf) * _FLIP4
    return float(
        np.einsum(
            "klmn,k,l,m,n->",
            K_low,
            as_four_components(w),
            as_four_components(x),
            as_four_components(y),
            as_four_components(z),
        )
    )


def contract4_kappa(k, w, x, y, z):
    """Closed-form contraction for the non-birefringent sector.

    With J(u, v) = u^0 v_vec - u_vec v^0 and W(u, v) = u_vec x v_vec, the
    contraction K_{klmn} w^k x^l y^m z^n equals

        -(1/2) J(w,x) . (e_minus + I tr) . J(y,z)
        -(1/2) [ J(w,x) . o_plus . W(y,z) + J(y,z) . o_plus . W(w,x) ]
        -(1/2) W(w,x) . (e_minus + I tr) . W(y,z)

    Only valid with e_plus = o_minus = 0; birefringent input is rejected.
    """
    if k.is_birefringent:
        raise ValueError("closed-form contraction only covers the non-birefringent sector")
    w = as_four_components(w)
    x = as_four_components(x)
    y = as_four_components(y)
    z = as_four_components(z)
    emt = k.e_minus + np.eye(3) * k.tr
    j_wx = w[0] * x[1:] - w[1:] * x[0]
    j_yz = y[0] * z[1:] - y[1:] * z[0]
    w_wx = np.cross(w[1:], x[1:])
    w_yz = np.cross(y[1:], z[1:])
    out = -0.5 * (j_wx @ emt @ j_yz)
    out += -0.5 * (j_wx @ k.o_plus @ w_yz + j_yz @ k.o_plus @ w_wx)
    out += -0.5 * (w_wx @ emt @ w_yz)
    return float(out)


def project_kf(components):
    """Orthogonal projection of raw components onto the valid tensor space.

    The nearest (Frobenius) rank-4 array satisfying all structural
    invariants; the identity for already-valid input up to fp rounding.
    This is the rank-4 counterpart of sym_traceless/antisym for callers
    that want to repair slightly perturbed tensors instead of rejecting
    them.
    """
    basis, _ = _kf_parameter_basis()
    flat = np.asarray(components, dtype=float).reshape(256)
    return KFTensor((basis @ (basis.T @ flat)).reshape(4, 4, 4, 4))


def single_trace(kf):
    """The mixed single trace T^m_n = K^{am}_{  an} as a 4x4 matrix."""
    K = as_kf_components(kf)
    # Lower the third and fourth indices, then contract the third with the first.
    return np.einsum("ambd,ba,dn->mn", K, METRIC, METRIC)


def coordinate_shift(kf, event):
    """Apply the leading-order coordinate redefinition to an event.

    x'^m = x^m - (1/2) T^m_n x^n with T the single-trace matrix; the map
    is the identity whenever that trace vanishes (purely birefringent or
    zero tensor).
    """
    x = as_four_components(event)
    shifted = x - 0.5 * (single_trace(kf) @ x)
    return FourVector.from_components(shifted)
