"""Problem instances: one coefficient form, convex control sets, feedback laws.

A model is the controlled SDE dX = b(X,u) dt + sigma dW with running cost f,

    b(x, u) = A x + B u - alpha * x^3   (componentwise cube, alpha >= 0),
    sigma   = S                          (constant, n x d),
    f(x, u) = <Q x, x> + <R u, u>,

together with the admissible control set U.  alpha = 0 is the
linear-quadratic model.  Every coefficient has exact analytic first
derivatives; sigma depends on neither x nor u, so D_x sigma = D_u sigma = 0.

The paper's structural constants are derived, not model data: the growth
order m is 1 with a cubic term and 0 without, `verify` derives its moment
order from m, and no weight k is needed, because the D_x sigma term it
weighs in the dissipativity condition is zero for constant sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

__all__ = [
    "ModelError",
    "ConvexSet",
    "ControlLaw",
    "ModelSpec",
    "DissipativityReport",
    "check_dissipativity",
]


class ModelError(ValueError):
    """Invalid model data (shapes, domain violations)."""


def _as_array(x, shape, name):
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ModelError(f"{name}: expected shape {shape}, got {a.shape}")
    _require_finite(a, name)
    return a


def _require_finite(a, name):
    if not np.isfinite(a).all():
        raise ModelError(f"{name} must be finite")


def _slabs(shape) -> np.ndarray:
    """An empty float array of `shape` (..., n) on one C-contiguous (n, ...)
    buffer, where each column [..., k] of a step or a time block is one
    contiguous slab; with n = 1 the memory order is the C order."""
    return np.empty(shape[-1:] + shape[:-1]).transpose(*range(1, len(shape)), 0)


def _mat_vec(mat, vec, offset=None, out=None, term=None):
    """mat @ vec (+ offset) over the last axes, each result row the column sum
    vec_0 * mat[i, 0] + vec_1 * mat[i, 1] + ..., accumulated left to right,
    with the offset added last.

    The result is computed one row at a time on (..., M) columns, one ufunc
    call per scalar operation, so every numpy loop runs along the paths and
    not along the short state axis.  On `_slabs` arrays, the default `out`
    among them, each column vec[..., k] and out[..., i] of a step or a whole
    time block is one contiguous slab.  `mat` is a (..., rows, cols) array or
    its `_rows`; `offset` is a (..., rows) array or a vector's `_entries`.  The
    result goes into `out` and each product after a row's first into `term`
    (the batch shape); both are allocated when not given, and neither may
    overlap `vec`.  Each state's result is computed on its own in a fixed
    order, so it does not depend on the batch it is computed in: the first
    k paths of an M-path ensemble equal the k-path ensemble bitwise, and one
    call on a stack of steps equals per-step calls.  For at most 7 columns
    this is bitwise (mat * vec[..., None, :]).sum(-1) + offset, whose short
    reductions also run left to right.  A BLAS product (vec @ mat.T) would
    block by batch size and lose both guarantees.
    """
    rows = _rows(mat) if isinstance(mat, np.ndarray) else mat
    if out is None:
        batch = vec.shape[:-1]
        if rows[0][0].ndim:
            batch = np.broadcast_shapes(batch, rows[0][0].shape)
        out = _slabs(batch + (len(rows),))
    for i, row in enumerate(rows):
        col = out[..., i]
        np.multiply(vec[..., 0], row[0], col)
        for k in range(1, len(row)):
            if term is None:
                term = np.empty(col.shape)
            np.multiply(vec[..., k], row[k], term)
            np.add(col, term, col)
        if offset is not None:
            np.add(col, offset[i] if isinstance(offset, list) else offset[..., i], col)
    return out


def _rows(mat) -> list:
    """The rows of a (..., rows, cols) matrix as lists of its entries for
    `_mat_vec`: 0-d arrays for one matrix, (...) arrays for a stack.

    Bound once (`ModelSpec._coef`, `ControlLaw._coef`), they spare each
    per-step call the conversion of its scalars: numpy takes a 0-d array
    faster than a Python or numpy float, and multiplies by it bitwise
    alike."""
    rows, cols = mat.shape[-2:]
    if mat.size == rows * cols:
        mat = mat.reshape(rows, cols)
    return [[np.asarray(mat[..., i, k]) for k in range(cols)] for i in range(rows)]


def _entries(vec) -> list:
    """The entries of a 1-d array as 0-d arrays, bound once as `_rows`."""
    return [np.asarray(v) for v in vec]


def _dot(a, b, out=None, term=None):
    """<a, b> over the last axis, bitwise (a * b).sum(-1).  For at most 7
    terms numpy reduces left to right, and so does this sum, a_0 b_0 +
    a_1 b_1 + ..., accumulated on (..., M) columns without a numpy loop along
    the short last axis; `out` and `term` are as in `_mat_vec`.  More terms
    go to numpy's reduction of the C-ordered product, whose order is then no
    longer left to right, but does not depend on the layout of a and b."""
    if a.shape[-1] > 7:
        return np.sum(np.multiply(a, b, order="C"), axis=-1, out=out)
    out = np.asarray(np.multiply(a[..., 0], b[..., 0], out))  # 1-d inputs give a 0-d array
    for k in range(1, a.shape[-1]):
        if term is None:
            term = np.empty_like(out)
        np.multiply(a[..., k], b[..., k], term)
        np.add(out, term, out)
    return out


# ---------------------------------------------------------------------------
# Convex control sets


@dataclass(frozen=True)
class ConvexSet:
    """Closed convex subset of control space: an axis-aligned box or a ball."""

    kind: str
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: float = 0.0

    @staticmethod
    def box(lower, upper) -> "ConvexSet":
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ModelError("box bounds must be 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ModelError("box bounds must be finite")
        if np.any(lo > hi):
            raise ModelError("box bounds reversed: lower > upper")
        return ConvexSet(kind="box", lower=lo, upper=hi)

    @staticmethod
    def ball(center, radius) -> "ConvexSet":
        c = np.atleast_1d(np.asarray(center, dtype=float))
        r = float(radius)
        if not np.isfinite(c).all() or not np.isfinite(r) or r <= 0.0:
            raise ModelError("ball requires finite center and radius > 0")
        return ConvexSet(kind="ball", center=c, radius=r)

    @property
    def dim(self) -> int:
        return len(self.lower) if self.kind == "box" else len(self.center)

    @cached_property
    def _coef(self):
        """The box's (lower, upper) or the ball's (center, radius) entries,
        bound once for `project` as `_entries`."""
        if self.kind == "box":
            return _entries(self.lower), _entries(self.upper)
        return _entries(self.center), np.asarray(self.radius)

    def project(self, u, out=None):
        """Euclidean projection onto the set; accepts (..., l) arrays and
        writes into `out` when given, which may be u itself.

        One ufunc call per scalar operation, one coordinate column at a time
        where the set has more than one, so a single step and a whole path
        stack share this routine.  A box gives bitwise np.clip(u, lower,
        upper).  With one coordinate ndarray.clip runs np.clip's ufunc and its
        constant-bound loop, along the paths, which keeps the input on a tie
        with a bound.  With more, np.clip runs its element loop along the
        short l axis, which keeps the bound on a tie; np.maximum then
        np.minimum, one coordinate at a time, keep the bound too and run along
        the paths.  The tie rule decides only the sign of a zero at a zero
        bound.  A ball gives bitwise center + delta * s with delta = u - center
        and s = radius / |delta| where |delta| > radius, else 1; s is taken as
        radius / fmax(|delta|, radius), and |delta| is the one (...) array the
        projection allocates (two with more than one coordinate)."""
        u = np.asarray(u, dtype=float)
        if out is None:
            out = _slabs(u.shape)
        if self.kind == "box":
            lower, upper = self._coef
            if len(lower) == 1:
                return u.clip(lower[0], upper[0], out)
            for i, (lo, hi) in enumerate(zip(lower, upper)):
                col = out[..., i]
                np.maximum(u[..., i], lo, out=col)
                np.minimum(col, hi, out=col)
            return out
        center, radius = self._coef
        for i, c in enumerate(center):
            np.subtract(u[..., i], c, out[..., i])
        scale = _dot(out, out)
        np.sqrt(scale, scale)
        np.fmax(scale, radius, scale)
        np.divide(radius, scale, scale)
        for i, c in enumerate(center):
            col = out[..., i]
            np.multiply(col, scale, col)
            np.add(col, c, col)
        return out

    def sample(self, rng, size) -> np.ndarray:
        """Uniform draws from the set, shape (size, l)."""
        if self.kind == "box":
            return rng.uniform(self.lower, self.upper, size=(size, self.dim))
        g = rng.standard_normal((size, self.dim))
        g /= np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-300)
        radii = self.radius * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / self.dim)
        return self.center + g * radii

    def describe(self) -> str:
        if self.kind == "box":
            return f"box(lower={self.lower.tolist()!r}, upper={self.upper.tolist()!r})"
        return f"ball(center={self.center.tolist()!r}, radius={self.radius!r})"


# ---------------------------------------------------------------------------
# Control laws


@dataclass(frozen=True)
class ControlLaw:
    """Time-homogeneous admissible feedback x -> u; every evaluation is
    projected into U.

    Kinds: ``constant`` (u == const), ``affine_feedback`` (u = K x + c) and
    ``tabulated_feedback`` (per-bin values on a 1-d state grid).  A law reads
    only the current state, so one call on a whole (M, steps, n) path stack
    equals per-step calls bitwise: each state's control is computed on its own.
    The constructors reject non-finite parameters.
    """

    kind: str
    control_set: ConvexSet
    const: Optional[np.ndarray] = None
    gain: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    bin_edges: Optional[np.ndarray] = None
    bin_values: Optional[np.ndarray] = None

    @staticmethod
    def constant(u, control_set: ConvexSet) -> "ControlLaw":
        c = np.atleast_1d(np.asarray(u, dtype=float))
        if c.ndim != 1 or len(c) != control_set.dim:
            raise ModelError("constant law: control dimension mismatch")
        _require_finite(c, "constant law: value")
        return ControlLaw(kind="constant", control_set=control_set, const=c)

    @staticmethod
    def affine(gain, offset, control_set: ConvexSet) -> "ControlLaw":
        k = np.asarray(gain, dtype=float)
        c = np.atleast_1d(np.asarray(offset, dtype=float))
        if k.ndim != 2:
            raise ModelError(f"affine law: gain must be a 2-d (l, n) array, got shape {k.shape}")
        if k.shape[0] != control_set.dim or c.shape != (control_set.dim,):
            raise ModelError("affine law: gain/offset shape mismatch")
        _require_finite(k, "affine law: gain")
        _require_finite(c, "affine law: offset")
        return ControlLaw(kind="affine_feedback", control_set=control_set, gain=k, offset=c)

    @staticmethod
    def tabulated(bin_edges, bin_values, control_set: ConvexSet) -> "ControlLaw":
        edges = np.asarray(bin_edges, dtype=float)
        values = np.atleast_2d(np.asarray(bin_values, dtype=float))
        _require_finite(edges, "tabulated law: edges")
        _require_finite(values, "tabulated law: values")
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ModelError("tabulated law: bin edges must be strictly increasing")
        if values.shape != (len(edges) - 1, control_set.dim):
            raise ModelError("tabulated law: values must have shape (bins, l)")
        return ControlLaw(
            kind="tabulated_feedback",
            control_set=control_set,
            bin_edges=edges,
            bin_values=values,
        )

    @cached_property
    def _coef(self):
        """The constant's `_entries`, or the affine law's gain `_rows` and
        offset `_entries`, bound once for `evaluate`."""
        if self.kind == "constant":
            return _entries(self.const)
        if self.kind == "affine_feedback":
            return _rows(self.gain), _entries(self.offset)
        return None

    def evaluate(self, x, out=None) -> np.ndarray:
        """Evaluate at states x of shape (..., n); returns controls (..., l)
        in U, written into `out` when given.

        One routine per kind serves a whole path stack and a single step: it
        writes the law's values into `out`, one ufunc call per scalar
        operation (K x + c column by column as `_mat_vec`), and projects them
        in place.  Given `out`, an affine law with one state coordinate on a
        box allocates nothing; more coordinates take one (...) product term,
        a ball its norm, and a tabulated law its bin indices."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = _slabs(x.shape[:-1] + (self.control_set.dim,))
        if self.kind == "constant":
            for i, c in enumerate(self._coef):
                out[..., i] = c
        elif self.kind == "affine_feedback":
            if self.gain.shape[1] != x.shape[-1]:
                raise ModelError(f"affine law: a {self.gain.shape} gain does not match state dimension {x.shape[-1]}")
            gain, offset = self._coef
            _mat_vec(gain, x, offset, out)
        elif self.kind == "tabulated_feedback":
            if x.shape[-1] != 1:
                raise ModelError("tabulated law supports state dimension 1 only")
            np.take(self.bin_values, self._bin_index(x[..., 0]), axis=0, out=out)
        else:  # pragma: no cover - constructor guards the kind
            raise ModelError(f"unknown control law kind {self.kind!r}")
        return self.control_set.project(out, out)

    def _bin_index(self, x1) -> np.ndarray:
        """Bins of first state coordinates x1; outer bins extend to +-inf."""
        return np.clip(np.searchsorted(self.bin_edges, x1, side="right") - 1, 0, len(self.bin_values) - 1)

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant({self.const.tolist()!r})"
        if self.kind == "affine_feedback":
            return f"affine(gain={self.gain.tolist()!r}, offset={self.offset.tolist()!r})"
        return (
            f"tabulated(edges={self.bin_edges.tolist()!r}, "
            f"values={self.bin_values.tolist()!r})"
        )

    def negated(self) -> "ControlLaw":
        """Sign-flipped law (parameters negated, same admissible set)."""
        if self.kind == "constant":
            return ControlLaw.constant(-self.const, self.control_set)
        if self.kind == "affine_feedback":
            return ControlLaw.affine(-self.gain, -self.offset, self.control_set)
        return ControlLaw.tabulated(self.bin_edges, -self.bin_values, self.control_set)


# ---------------------------------------------------------------------------
# Report serialization


def _json_value(value):
    """JSON form of a report value: arrays, tuples and lists become lists,
    dicts are recursed, numpy scalars become Python numbers, a control law
    becomes its describe() string, and a non-finite float becomes None
    (unavailable)."""
    if isinstance(value, ControlLaw):
        return value.describe()
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class _Report:
    """Base of the result dataclasses: ``to_dict()`` is the JSON form of every
    field under the class's ``schema_version``, 1 unless a report's fields
    changed."""

    schema_version: ClassVar[int] = 1

    def to_dict(self) -> dict:
        return {"schema_version": self.schema_version,
                **{f.name: _json_value(getattr(self, f.name)) for f in fields(self)}}


# ---------------------------------------------------------------------------
# Problem instances


def _check_psd(mat, name):
    # Exact up to round-off of the largest entry: the cost gradient 2 Q x
    # equals the gradient (Q + Q^T) x of <Q x, x> only for a symmetric Q.
    if np.abs(mat - mat.T).max() > 1e-12 * max(1.0, np.abs(mat).max()):
        raise ModelError(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh(mat)
    if eig.min() < -1e-10:
        raise ModelError(f"{name} must be positive semidefinite")


# Longest derived buffer: at the default M = 4096 and dt = 0.01 one (M, steps)
# array over it holds 65 MB per state coordinate.
_MAX_FORGETTING_TIME = 20.0


@dataclass(frozen=True)
class ModelSpec:
    """A controlled-SDE problem instance: b = Ax + Bu - alpha*x^3, sigma = S,
    f = <Qx,x> + <Ru,u> on the control set U.

    The dimensions n, l (from B) and d (from S) are read off the data, and
    every coefficient must be finite.
    """

    A: np.ndarray      # (n, n)
    B: np.ndarray      # (n, l)
    S: np.ndarray      # (n, d)
    Q: np.ndarray      # (n, n) symmetric PSD
    R: np.ndarray      # (l, l) symmetric PSD
    alpha: np.ndarray  # (n,) nonnegative cubic damping; zero for LQ
    control_set: ConvexSet

    def __post_init__(self):
        for name in ("A", "B", "S", "Q", "R"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        if min(self.n, self.d, self.l) < 1:
            raise ModelError("state, noise and control dimensions must be >= 1")
        _as_array(self.A, (self.n, self.n), "A")
        _as_array(self.B, (self.n, self.l), "B")
        if np.any(_as_array(self.alpha, (self.n,), "alpha (cubic)") < 0):
            raise ModelError("alpha (cubic) must be nonnegative")
        _as_array(self.S, (self.n, self.d), "S (Sigma)")
        _check_psd(_as_array(self.Q, (self.n, self.n), "Q"), "Q")
        _check_psd(_as_array(self.R, (self.l, self.l), "R"), "R")
        if self.control_set.dim != self.l:
            raise ModelError("control set dimension must match l")

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def l(self) -> int:
        return self.B.shape[1]

    @property
    def d(self) -> int:
        return self.S.shape[1]

    @cached_property
    def has_cubic(self) -> bool:
        """Whether any alpha_i > 0; LQ models skip the cubic terms entirely."""
        return bool(self.alpha.any())

    @cached_property
    def _coef(self):
        """(A, B, S) as `_rows`, alpha as `_entries`, then (Q, R) as `_rows`:
        the coefficients bound once for the column kernels."""
        return _rows(self.A), _rows(self.B), _rows(self.S), _entries(self.alpha), _rows(self.Q), _rows(self.R)

    # -- canonical builders -------------------------------------------------

    @staticmethod
    def lq(A, B, S, Q, R, control_set) -> "ModelSpec":
        B = np.atleast_2d(np.asarray(B, dtype=float))
        return ModelSpec.cubic(np.zeros(B.shape[0]), A, B, S, Q, R, control_set)

    @staticmethod
    def cubic(alpha, A, B, S, Q, R, control_set) -> "ModelSpec":
        return ModelSpec(A=A, B=B, S=S, Q=Q, R=R, alpha=alpha, control_set=control_set)

    @staticmethod
    def lq1(sigma=1.0, u_bound=5.0) -> "ModelSpec":
        """Scalar benchmark: b = -x + u, constant sigma, f = x^2 + u^2."""
        return ModelSpec.lq(
            A=[[-1.0]], B=[[1.0]], S=[[float(sigma)]], Q=[[1.0]], R=[[1.0]],
            control_set=ConvexSet.box([-u_bound], [u_bound]),
        )

    @staticmethod
    def cubic1(sigma=1.0, u_bound=5.0) -> "ModelSpec":
        """Scalar benchmark: b = -x^3 - x + u, constant sigma, f = x^2 + u^2."""
        return ModelSpec.cubic(
            alpha=[1.0], A=[[-1.0]], B=[[1.0]], S=[[float(sigma)]], Q=[[1.0]], R=[[1.0]],
            control_set=ConvexSet.box([-u_bound], [u_bound]),
        )

    def zero_control(self) -> ControlLaw:
        return ControlLaw.constant(np.zeros(self.l), self.control_set)

    def certified_dissipativity_bound(self) -> float:
        """Largest eigenvalue of sym(A): a valid c_p (constant sigma and
        nonnegative cubic damping only tighten it)."""
        sym = 0.5 * (self.A + self.A.T)
        return float(np.linalg.eigvalsh(sym).max())

    def forgetting_time(self, dt: float) -> float:
        """ln(100)/|c_p| rounded up to the dt grid: the dual contracts at the
        certified rate |c_p|, so over this buffer a zero terminal condition
        loses all but 1% of its pull.  ModelError when c_p >= 0 certifies no
        rate, or when the time exceeds _MAX_FORGETTING_TIME (c_p > -0.23)."""
        c_p = self.certified_dissipativity_bound()
        if c_p >= 0:
            raise ModelError(f"certified c_p={c_p:.4g} >= 0 gives no decay rate, so no buffer can be derived")
        t = math.ceil(np.log(100.0) / -c_p / dt - 1e-9) * dt
        if t > _MAX_FORGETTING_TIME:
            raise ModelError(f"certified c_p={c_p:.4g} decays so slowly that the buffer would be {t:.4g} > "
                             f"{_MAX_FORGETTING_TIME:g}, too long a grid to solve on")
        return t


# ---------------------------------------------------------------------------
# Batched coefficient evaluation (used by the simulators)


def drift_at(model: ModelSpec, X, U, out=None, bu=None, term=None) -> np.ndarray:
    """b(x, u) for X of shape (..., n), U of shape (..., l): returns (..., n).

    A x + B u by `_mat_vec` (B u into `bu`, then added last to each row of
    A x), then the cubic term x * x * x * alpha, one coordinate column at a
    time; `out`, `bu` (..., n) and the (...) `term` are allocated when not
    given, and none may overlap X or U."""
    A, B, _, alpha = model._coef[:4]
    bu = _mat_vec(B, U, None, bu, term)
    out = _mat_vec(A, X, bu, out, term)
    if model.has_cubic:
        if term is None:
            term = np.empty(out.shape[:-1])
        for k, a in enumerate(alpha):
            x, col = X[..., k], out[..., k]
            np.multiply(x, x, term)  # x**3 calls libm pow per element
            np.multiply(term, x, term)
            np.multiply(term, a, term)
            np.subtract(col, term, col)
    return out


def drift_jac_x(model: ModelSpec, X) -> np.ndarray:
    """D_x b, shape (M, n, n) (independent of u)."""
    m = X.shape[0]
    jac = np.broadcast_to(model.A, (m, model.n, model.n)).copy()
    if model.has_cubic:
        diag = -3.0 * model.alpha * X**2
        idx = np.arange(model.n)
        jac[:, idx, idx] += diag
    return jac


def drift_jac_apply(model: ModelSpec, X, Z, out=None, term=None) -> np.ndarray:
    """(D_x b) Z for Z of shape (M, n), without materializing the Jacobians;
    `out` and `term` are as in `_mat_vec`."""
    out = _mat_vec(model._coef[0], Z, None, out, term)
    if model.has_cubic:
        _sub_cubic_jac(model, X, Z, out, term)
    return out


def drift_jacU_apply(model: ModelSpec, V) -> np.ndarray:
    """(D_u b) V for V of shape (M, l); D_u b is the constant matrix B."""
    return _mat_vec(model._coef[1], V)


def drift_jacT_apply(model: ModelSpec, X, P, out=None, term=None) -> np.ndarray:
    """(D_x b)^T P for P of shape (M, n), without materializing the Jacobians:
    P @ A, which for n = 1 is the exact scalar product P * A[0, 0]; `out` and
    `term` are as in `_mat_vec`."""
    if model.n == 1:
        out = np.multiply(P, model._coef[0][0][0], out)
    else:
        out = np.matmul(P, model.A, out)
    if model.has_cubic:
        _sub_cubic_jac(model, X, P, out, term)
    return out


def _sub_cubic_jac(model: ModelSpec, X, Z, out, term=None) -> None:
    """out -= 3 alpha X^2 Z, the diagonal cubic part of D_x b applied to Z,
    one coordinate column at a time; each product is the broadcast one's."""
    if term is None:
        term = np.empty(out.shape[:-1])
    for k, a in enumerate(model._coef[3]):
        x, col = X[..., k], out[..., k]
        np.multiply(x, x, term)
        np.multiply(term, 3.0 * a, term)
        np.multiply(term, Z[..., k], term)
        np.subtract(col, term, col)


def drift_jacU_T_apply(model: ModelSpec, P) -> np.ndarray:
    """(D_u b)^T P for P of shape (..., n), shape (..., l); D_u b is the
    constant matrix B.  P @ B, which for n = 1 is the exact product P * B[0],
    taken as B^T P^T into the (l, M) slabs of a `_slabs` result, bitwise
    P @ B."""
    if model.n == 1:
        return P * model.B[0]
    out = _slabs(P.shape[:-1] + (model.l,))
    np.matmul(model.B.T, P.swapaxes(-1, -2), out.swapaxes(-1, -2))
    return out


def cost_at(model: ModelSpec, X, U) -> np.ndarray:
    """f(x, u) = <Qx, x> + <Ru, u>, shape (M,)."""
    Q, R = model._coef[4:]
    return _dot(X, _mat_vec(Q, X)) + _dot(U, _mat_vec(R, U))


def cost_grad_x(model: ModelSpec, X) -> np.ndarray:
    """D_x f = 2 Qx, doubled in place."""
    grad = _mat_vec(model._coef[4], X)
    grad *= 2.0
    return grad


def cost_grad_u(model: ModelSpec, U) -> np.ndarray:
    """D_u f = 2 Ru, doubled in place."""
    grad = _mat_vec(model._coef[5], U)
    grad *= 2.0
    return grad


# ---------------------------------------------------------------------------
# Dissipativity probing


@dataclass(frozen=True)
class DissipativityReport(_Report):
    sampled_max: float
    passed: bool
    probe_count: int


def check_dissipativity(model: ModelSpec, probes: int = 512, seed: int = 0) -> DissipativityReport:
    """Randomized falsifier for the joint dissipativity condition.

    Samples states x ~ N(0, 3^2 I) and directions y uniform on the unit
    sphere, and evaluates

        <D_x b(x,u) y, y> + k * ||D_x sigma(x,u) y||_2^2,

    whose second term is zero for every k because sigma is constant, so the
    model carries no k; D_x b reads no u, so no control is drawn.  The probe
    maximum is the sampled estimate of the best dissipativity constant; a
    nonnegative maximum fails the check.  Sampling can miss violations but
    never invents one.
    """
    if probes < 1:
        raise ModelError("check_dissipativity: probes must be >= 1")
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.standard_normal((probes, model.n))
    Y = rng.standard_normal((probes, model.n))
    Y /= np.maximum(np.linalg.norm(Y, axis=-1, keepdims=True), 1e-300)

    jac = drift_jac_x(model, X)
    quad = _dot(Y, _mat_vec(jac, Y))

    sampled_max = float(quad.max())
    return DissipativityReport(sampled_max=sampled_max, passed=sampled_max < 0.0, probe_count=probes)
