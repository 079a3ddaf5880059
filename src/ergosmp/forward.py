"""Path simulation on a shared noise basis.

Two recursions run on the increments of a base ensemble: the state equation
by Euler, tamed only for the cubic drift, and one perturbed linearized
forward equation, dY = (D_x b Y + gamma)dt + sum_i rho^i dW^i from Y_t = eta
(`simulate_affine_dual`).  A convex perturbation of the control runs the
first on open-loop controls along the base path (`_perturbed_states`); its
first variation is the member of the second with t = 0, eta = 0 and
gamma = D_u b v, and the dual process of the duality check is another.  An
LQ step is plain Euler, linear in (x, u), so there the first variation is
the exact tangent of the simulated chain, not only of the SDE.
Sharing the increments, coupled runs differ only by systematic effects,
never by sampling noise.  Increments are generated from counter-based Philox
streams keyed by (seed, path index), so every ensemble is bit-reproducible
and its first k paths equal the k-path ensemble.

The noise is a pure function of the seed, so it is held only while read.
`_noise_blocks` is the one Philox draw loop: it yields the increments in
time blocks of _NOISE_BYTES, each path's rows bitwise one draw of its whole
path, and `brownian_increments` is that stream drawn as one block.
`simulate_state` reads the stream in time order for its step loop, holding
one noise block beside the states, and its ensemble (`noise=None`) draws the
increments whole when `increments` is first read (a noise forcing rho and
its costate pairing, a perturbed state, a binary dump).  An ensemble built
on an array (`noise=`) reads that array instead.

Each equation has one forward recursion, a generator of time blocks:
`_euler_blocks` for the state, its blocks nested in the noise blocks,
and `_affine_dual_blocks` for the linearized equation.  A pass gathers their
blocks into an array or hands them, mapped to integrand rows, to the one
running sum `_path_integrals`, which pulls them only as far as it reads.

Every path array (noise, states, dual and costate rows, block buffers) is
one C-contiguous component-outermost (n, steps+1, M) buffer (`model._slabs`),
seen as (M, steps+1, n) in public and as (steps+1, M, n) by the recursions
(`_time_major`): each coordinate column of a step or a time block is one
contiguous slab.  No output bit depends on the layout of its inputs.

The three forward kernels keep those bits and run along the long axes: the
noise stream draws whole paths into a path-major chunk and transposes it
into its block, the Euler step runs one time block at a time, making
the noise terms of each block in one call and checking finiteness once, and
the CSV writer formats each path with one `%` of a per-file template.  The
step allocates its work buffers once and writes every quantity into them
through the `out=` paths of `ControlLaw.evaluate`, `ConvexSet.project`,
`drift_at` and `_mat_vec`, the routines that whole path stacks go through
too: one ufunc call per scalar operation, in the order of the formula, on
coefficients bound once.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .model import (
    ControlLaw,
    ModelSpec,
    _dot,
    _mat_vec,
    _slabs,
    drift_at,
    drift_jac_apply,
)

__all__ = [
    "SimulationError",
    "TimeGrid",
    "PathEnsemble",
    "brownian_increments",
    "simulate_state",
    "simulate_affine_dual",
    "estimate_moment",
    "ensemble_to_csv",
    "ensemble_to_binary",
    "ensemble_from_binary",
]

_BINARY_MAGIC = b"ERGP"
_BINARY_VERSION = 1
_BINARY_HEADER = struct.Struct("<IQQQQQd")  # version, M, steps, n, d, seed, dt

# Bytes of one time block's stack.  The hot loops work on this many bytes of
# steps at once: the time integrands, the costate design, the noise terms of
# a block of the Euler step (tamed only for the cubic drift) and its
# finiteness check, and (of whole paths) a noise chunk.  Enough to amortize
# numpy's per-call cost, few enough that a block's handful of temporaries
# stays cache-sized whatever the horizon.
BLOCK_BYTES = 512 << 10

# Bytes of one block of a noise stream (`_noise_blocks`): a forward pass that
# draws its own noise holds this much of it, not the (M, steps, d) array.
# Each block boundary reads, stores and sets again every path's Philox state,
# about 6 us per path on a 2-core x86 machine (numpy 2.4), the time to draw
# some 250 normals.  A block gives each of M paths _NOISE_BYTES / (8 M) of
# them, so the boundaries add about 2000 M / _NOISE_BYTES of the draw time:
# 12% at M = 256, and at M = 2048 about as much again (0.095 s on 2000 steps
# becomes 0.18 s).  Twice the budget would halve that, but the 2048-path cost
# pass would then peak at 13.1 MB of allocations, above a third of its 33 MB
# of noise; at 4 MiB it peaks at 9.0 MB.
_NOISE_BYTES = 8 * BLOCK_BYTES


class SimulationError(RuntimeError):
    """Simulation aborted (non-finite state, mismatched inputs)."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with `steps` intervals of width `dt` on [0, dt*steps]."""

    dt: float
    steps: int

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise SimulationError("TimeGrid: dt must be positive and finite")
        if self.steps < 1:
            raise SimulationError("TimeGrid: steps must be >= 1")

    @property
    def horizon(self) -> float:
        return self.dt * self.steps

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Grid index of time t; rejects off-grid and non-finite times."""
        if not np.isfinite(t):
            raise SimulationError(f"time {t} is not on the grid (dt={self.dt}, steps={self.steps})")
        j = int(round(t / self.dt))
        if j < 0 or j > self.steps or abs(j * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise SimulationError(f"time {t} is not on the grid (dt={self.dt}, steps={self.steps})")
        return j

    @staticmethod
    def from_horizon(horizon: float, dt: float) -> "TimeGrid":
        if not (np.isfinite(horizon) and np.isfinite(dt)):
            raise SimulationError(f"horizon {horizon} and dt={dt} must be finite")
        steps = int(round(horizon / dt))
        if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
            raise SimulationError(f"horizon {horizon} is not a multiple of dt={dt}")
        return TimeGrid(dt=dt, steps=steps)


def _require_grid(grid: TimeGrid, T: float, dt: float, what: str) -> None:
    """Reject a `what` on a grid other than the one of (T, dt)."""
    if grid.dt != dt or grid.index_of(T) != grid.steps:
        raise SimulationError(f"{what} grid does not match (T, dt)")


def _time_major(arr: np.ndarray) -> np.ndarray:
    """The view with the first two axes swapped: the public (M, steps+1, n)
    form of a path array and its time-major (steps+1, M, n) form, whose
    leading slices are steps and time blocks.  The buffer underneath is the
    component-outermost (n, steps+1, M) one of `model._slabs`."""
    return arr.transpose(1, 0, *range(2, arr.ndim))


def _block_steps(row_bytes: int) -> int:
    """Steps per time block when one step's rows take `row_bytes`."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


def _time_blocks(start: int, end: int, row_bytes: int):
    """Spans (j0, j1) tiling the steps [start, end) in order, each at most
    BLOCK_BYTES when one step's rows take `row_bytes`."""
    block = _block_steps(row_bytes)
    for j0 in range(start, end, block):
        yield j0, min(j0 + block, end)


def _path_integrals(grid: TimeGrid, blocks, indices, shape, start: int = 0) -> np.ndarray:
    """Per-path left-endpoint sums sum_{start <= j < i} dt * g_j at each grid
    index i in `indices`, shape `shape + (len(indices),)`.

    `blocks` yields (j0, rows) in time order from start: the integrand rows
    g_j0, g_j0+1, ... of a time block, shape `(B,) + shape`, paths on the last
    axis.  It is pulled until a block reaches max(indices), and each block's
    rows are released before the next is pulled.  Every time average along
    an ensemble goes through this one running sum acc = acc + dt * g_j, taken
    per step in time order (row by row along the block, seeded with acc), so
    they all share one summation order and the blocking changes no bit.
    The blocks may skip steps where the integrand is an exact zero: acc
    starts at +0.0, so adding dt * 0 would leave it bitwise unchanged.  No
    index may fall in such a gap.  Indices may be unsorted or repeated; an
    index equal to `start` reads 0.
    """
    indices = np.asarray(indices, dtype=int)
    if indices.size and (indices.min() < start or indices.max() > grid.steps):
        raise SimulationError(f"integration indices must lie in [{start}, {grid.steps}]")
    shape = tuple(shape)
    out = np.zeros(shape + (len(indices),))
    acc = np.zeros(shape)
    end = indices.max(initial=start)
    for j0, g in blocks if end > start else ():
        j1 = min(j0 + len(g), end)
        # run[i] becomes the sum up to grid index j0 + i.
        run = np.empty((j1 - j0 + 1,) + shape)
        run[0] = acc
        np.multiply(grid.dt, g[:j1 - j0], out=run[1:])
        # One whole-row add per step: np.cumsum along axis 0 would loop
        # along the strided outer axis.
        for i in range(1, len(run)):
            np.add(run[i - 1], run[i], out=run[i])
        sel = (indices >= j0) & (indices <= j1)
        out[..., sel] = run[indices[sel] - j0].transpose(*range(1, run.ndim), 0)
        acc = run[-1].copy()  # a view would keep this whole block alive through the next
        del g, run
        if j1 == end:
            break
    return out


def _check_seed(seed) -> int:
    """`seed` as an int, which must be a nonnegative 63-bit integer."""
    if not (0 <= int(seed) < 2**63 and int(seed) == seed):
        raise SimulationError("seed must be a nonnegative 63-bit integer")
    return int(seed)


def _noise_blocks(seed: int, M: int, grid: TimeGrid, d: int, block: Optional[int] = None):
    """The increments of (seed, M, grid, d) in time order: yields
    (j0, j1, dW), dW the time-major (j1 - j0, M, d) increments of steps
    j0..j1-1 with per-cell variance dt, `block` steps at a time (default: as
    many as fit in _NOISE_BYTES).  Every block is written into one
    component-outermost buffer (`_slabs`), so each channel's block is one
    contiguous slab, valid until the next block is drawn.

    Path i draws from Philox keyed by (seed, i), through one Philox/Generator
    pair re-keyed per path by setting its `.state`.  At a block boundary each
    path's state is saved and set again for its next block; the ziggurat
    reads the bit generator in order, so path i's rows are bitwise one draw
    of its whole path, whatever the blocks.
    """
    seed, steps = _check_seed(seed), grid.steps
    block = min(steps, block or max(1, _NOISE_BYTES // max(1, 8 * M * d)))
    buf = _slabs((block, M, d))
    # Whole paths are drawn into a path-major chunk, which one transposed
    # assignment copies into the block; writing each path straight into it
    # would stride M*8 bytes per step.
    per_chunk = _block_steps(8 * block * d)
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    # Philox(key=[seed, i]) as a state: counter 0 and an empty buffer.  The
    # state setter reads lists of ints three times as fast as arrays.
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None}, "buffer": [0] * 4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # Where each path stopped at a block boundary: its counter, its buffer
    # and (buffer_pos, has_uint32, uinteger), 88 bytes against the ~930 of
    # the `.state` dict read.
    counter, buffer, pos = np.empty((M, 4), np.uint64), np.empty((M, 4), np.uint64), np.empty((M, 3), np.int64)
    for j0 in range(0, steps, block):
        j1 = min(j0 + block, steps)
        dW = buf[: j1 - j0]
        chunk = np.empty((min(M, per_chunk), j1 - j0, d))
        for i0 in range(0, M, per_chunk):
            i1 = min(i0 + per_chunk, M)
            for i in range(i0, i1):
                state["state"]["key"] = [seed, i]
                if j0:
                    state["state"]["counter"], state["buffer"] = counter[i].tolist(), buffer[i].tolist()
                    state["buffer_pos"], state["has_uint32"], state["uinteger"] = pos[i].tolist()
                bitgen.state = state
                gen.standard_normal((j1 - j0, d), out=chunk[i - i0])
                if j1 < steps:
                    s = bitgen.state
                    counter[i], buffer[i] = s["state"]["counter"], s["buffer"]
                    pos[i] = s["buffer_pos"], s["has_uint32"], s["uinteger"]
            dW[:, i0:i1] = chunk[: i1 - i0].transpose(1, 0, 2)
        del chunk  # not held while the block is read
        dW *= np.sqrt(grid.dt)
        yield j0, j1, dW


def brownian_increments(seed: int, M: int, grid: TimeGrid, d: int) -> np.ndarray:
    """Increments of shape (M, steps, d) with per-cell variance dt: the
    stream of `_noise_blocks` drawn as one block.

    Path i draws from Philox keyed by (seed, i), so path i's increments do not
    depend on M.
    """
    ((_, _, dW),) = _noise_blocks(seed, M, grid, d, grid.steps)
    return _time_major(dW)


@dataclass(frozen=True)
class PathEnsemble:
    """M trajectories of the state equation from x0 = states[:, 0], driven by
    d noise channels.  The library builds `states` and `noise` as views of
    component-outermost buffers (`model._slabs`); an ensemble on arrays of
    any other layout gives the same bits, only slower.

    `noise` is the (M, steps, d) array the ensemble was built on
    (`ensemble_from_binary`, the optimizer's shared noise), or None for the
    seed's noise.  `increments` returns it, or on first read draws
    `brownian_increments(seed, M, grid, d)` and keeps it; either way it is
    read-only.  An ensemble of `simulate_state` holds no noise until then;
    the costate solve and its q read the states alone.

    `_designs` holds what the adjoint layer derives per step from the states
    alone, the regression design factors of `adjoint._block_design`, filled
    when a step is first fitted.  The `restricted` views share it, since
    their states are a prefix of these; `dataclasses.replace` starts a fresh
    one, since its states may differ.  The ensemble of `extend_to_infinite`
    is not a view: its states are the rows of [0, T_report], held apart
    from the buffer's, and its store holds only its own steps.
    """

    grid: TimeGrid
    states: np.ndarray       # (M, steps+1, n)
    seed: int
    control_id: str
    d: int
    noise: Optional[np.ndarray] = None  # (M, steps, d)
    _designs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.states.setflags(write=False)
        if self.noise is not None:
            if self.noise.shape != (self.n_paths, self.grid.steps, self.d):
                raise SimulationError(f"noise must have shape (M, steps, d) = {self.n_paths, self.grid.steps, self.d}")
            self.noise.setflags(write=False)
        object.__setattr__(self, "_designs", {"steps": self.grid.steps})

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[2]

    @property
    def x0(self) -> np.ndarray:
        return self.states[0, 0]

    @cached_property
    def increments(self) -> np.ndarray:
        """(M, steps, d) read-only increments: `noise`, or the seed's."""
        if self.noise is not None:
            return self.noise
        dW = brownian_increments(self.seed, self.n_paths, self.grid, self.d)
        dW.setflags(write=False)
        return dW

    def restricted(self, horizon: float) -> "PathEnsemble":
        """View of the ensemble truncated to [0, horizon], sharing its design
        store.  It slices the increments if they are given or drawn;
        otherwise it draws its own when read, which are their prefix
        bitwise."""
        j = self.grid.index_of(horizon)
        drawn = vars(self).get("increments", self.noise)
        view = replace(self, grid=TimeGrid(dt=self.grid.dt, steps=j), states=self.states[:, : j + 1],
                       noise=None if drawn is None else drawn[:, :j])
        object.__setattr__(view, "_designs", self._designs)
        return view


def _check_finite(X, step, what):
    """Raise if the (M, n) states X of step `step`, or a (B, M, n) stack of
    the steps from `step` on, hold a non-finite value, naming the first such
    step and its lowest path."""
    if not np.isfinite(X).all():
        bad = np.argwhere(~np.isfinite(X.reshape((-1,) + X.shape[-2:])))[0]
        raise SimulationError(f"{what}: non-finite value at step {step + int(bad[0])}, path {int(bad[1])}")


def _euler_blocks(model: ModelSpec, x0, M: int, noise, dt: float, control_at, what: str,
                  X=None, controls: bool = True):
    """The Euler recursion of M paths from x0 ((n,) or (M, n)) on `noise`,
    the time-ordered (k0, k1, dW) blocks of `_noise_blocks` or held
    (M, steps, d) increments as one block, in time blocks of BLOCK_BYTES of
    states nested in them.  Yields (j0, rows, U) per block: rows (B+1, M, n)
    holds x_j0 .. x_j0+B, x_j0 carried from the block before, and U (B, M, l)
    the `out` arrays handed to `control_at(j, x_j, out)`, which returns the
    (M, l) controls of step j written into `out` or a view of its own.  A
    pass that never reads the controls asks for none (`controls=False`): U
    is then None, and every step is handed one (M, l) row.

    The rows are views of X when it is given, which then receives every
    state, or else of one block buffer that the next block overwrites.  X is
    a time-major (steps+1, M, n) view of a `_slabs` buffer, or a sequence of
    such views that split the rows at their seams, each seam row held by the
    arrays on both sides of it: no block straddles a seam, so each array can
    be released on its own.  The block buffer, U and the work rows are
    `_slabs` arrays too, so every column a kernel reads is one slab.

    Euler, tamed only for the cubic drift: with `model.has_cubic` the drift
    increment is dt*b / (1 + dt*|b|), which keeps the scheme stable for the
    superlinear term; an LQ drift is globally Lipschitz, so its step is plain
    Euler, x + dt*b + noise, whose tangent and adjoint are the linearized
    equations exactly.  The diffusion term is standard Euler.  Each step
    writes every quantity into work buffers allocated once, one ufunc call
    per scalar operation, in the order of the formula: the controls,
    A x + B u, the cubic term, then (tamed) sqrt(<b, b>) * dt + 1 and
    b * dt / scale, or (plain) b * dt, and x + b + noise.  One `_mat_vec`
    call per block makes its noise terms (bitwise the per-step calls),
    released before the block is yielded, and one check names the first
    non-finite step and its lowest path, as a check per step would; steps
    after a blow-up run silently until it.  Blocks of any length give the
    same bits.
    """
    if isinstance(noise, np.ndarray):
        noise = [(0, noise.shape[1], _time_major(noise))]
    n, row_bytes = model.n, 8 * M * model.n
    block = _block_steps(row_bytes)
    # (first row, last row, array) of each array the rows go to.
    if X is None:
        spans = [(0, math.inf, None)]
        buf = _slabs((block + 1, M, n))
    else:
        spans, first = [], 0
        for part in (X,) if isinstance(X, np.ndarray) else X:
            spans.append((first, first + len(part) - 1, part))
            first += len(part) - 1
    U = _slabs((block if controls else 1, M, model.l))
    b, bu = _slabs((M, n)), _slabs((M, n))
    scale, term = np.empty(M), np.empty(M)
    scale_col, tamed = scale[:, None], model.has_cubic
    dt, one = np.asarray(dt), np.asarray(1.0)  # 0-d, as the `_rows` coefficients
    last = x0
    for k0, k1, dW in noise:
        for s0, s1, part in spans:
            for j0, j1 in _time_blocks(max(k0, s0), min(k1, s1), row_bytes):
                rows = buf[:j1 - j0 + 1] if part is None else part[j0 - s0:j1 - s0 + 1]
                rows[0] = last
                terms = _mat_vec(model._coef[2], dW[j0 - k0:j1 - k0])
                with np.errstate(all="ignore"):
                    for i in range(j1 - j0):
                        xj, xn = rows[i], rows[i + 1]
                        uj = control_at(j0 + i, xj, U[i if controls else 0])
                        drift_at(model, xj, uj, b, bu, term)
                        if tamed:  # x_j + (dt b) / (1 + dt |b|) + noise_j, in that order
                            _dot(b, b, scale, term)
                            np.sqrt(scale, scale)
                            np.multiply(scale, dt, scale)
                            np.add(scale, one, scale)
                            np.multiply(b, dt, b)
                            np.divide(b, scale_col, b)
                        else:  # x_j + dt b + noise_j
                            np.multiply(b, dt, b)
                        np.add(xj, b, xn)
                        np.add(xn, terms[i], xn)
                del terms
                _check_finite(rows[1:], j0 + 1, what)
                yield j0, rows, U[:j1 - j0] if controls else None
                last = rows[-1]


def _initial_state(model: ModelSpec, x0) -> np.ndarray:
    """x0 as a finite (n,) array."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.n,):
        raise SimulationError(f"x0 must have shape ({model.n},)")
    if not np.isfinite(x0).all():
        raise SimulationError("x0 must be finite")
    return x0


def simulate_state(
    model: ModelSpec,
    control: ControlLaw,
    x0,
    grid: TimeGrid,
    M: int,
    seed: int,
) -> PathEnsemble:
    """Euler simulation of the controlled state equation, tamed only for the
    cubic drift (`_euler_blocks`).

    Deterministic for fixed (seed, M, grid); the first k paths equal the
    k-path ensemble.  The step loop reads the increments as a stream
    (`_noise_blocks`), holding one noise block besides the states, and the
    ensemble draws them again when they are read (`PathEnsemble`).
    """
    X = _slabs((grid.steps + 1, M, model.n))
    _simulate_into(model, control, x0, grid, M, seed, X)
    return PathEnsemble(grid=grid, states=_time_major(X), seed=int(seed), control_id=control.describe(), d=model.d)


def _simulate_into(model: ModelSpec, control: ControlLaw, x0, grid: TimeGrid, M: int, seed: int, X) -> None:
    """The states of `simulate_state`, written into X: one time-major
    (steps+1, M, n) `_slabs` array or such arrays split at seams, as
    `_euler_blocks` takes them.  No view of X outlives the call."""
    for _ in _euler_blocks(model, _initial_state(model, x0), M, _noise_blocks(seed, M, grid, model.d), grid.dt,
                           lambda j, xj, out: control.evaluate(xj, out=out), "simulate_state", X, False):
        pass


def _require_base_under(base: PathEnsemble, u_bar: ControlLaw, what: str):
    if base.control_id != u_bar.describe():
        raise SimulationError(
            f"{what}: base ensemble was generated under {base.control_id!r}, "
            f"not under the supplied control {u_bar.describe()!r}"
        )


def _perturbed_states(model: ModelSpec, base: PathEnsemble, U: np.ndarray) -> np.ndarray:
    """States (M, steps+1, n) under the open-loop controls U (M, steps, l),
    on the base increments from the base x0: the state of a convex
    perturbation when U = u_bar + theta*(u_alt - u_bar) along the base path.
    Under the base path's own controls it reproduces the base states
    bitwise."""
    X = _slabs(_time_major(base.states).shape)
    for _ in _euler_blocks(model, base.states[:, 0], base.n_paths, base.increments, base.grid.dt,
                           lambda j, xj, out: U[:, j], "perturbed state", X, False):
        pass
    return _time_major(X)


def _initial_per_path(eta, M: int, n: int) -> np.ndarray:
    """eta as an (M, n) float array, a view where it can be; an (n,) vector
    is given to every path."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape == (n,):
        return np.broadcast_to(eta, (M, n))
    if eta.shape != (M, n):
        raise SimulationError(f"eta must have shape ({n},) or ({M}, {n}), got {eta.shape}")
    return eta


def simulate_affine_dual(
    model: ModelSpec,
    base: PathEnsemble,
    u_bar: ControlLaw,
    t0: float,
    eta: np.ndarray,
    gamma: Optional[np.ndarray] = None,
    rho: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The perturbed linearized forward equation on [t0, T], on the base noise:

        dY = (D_x b Y + gamma) dt + sum_i (Gam^i Y + rho^i) dW^i,  Y_t0 = eta,

    with D_x b along the base path and Gam^i = D_x sigma^i = 0 (sigma is
    constant).  The first variation (t0 = 0, eta = 0, gamma = D_u b v) and the
    dual process of the duality check are its members.  `eta` has shape (n,)
    or (M, n); `gamma` (M, steps, n) and `rho` (M, steps, d, n) are indexed on
    the full grid (entries before t0 are ignored).  Euler steps on the base
    increments, run by `_affine_dual_blocks` in its array; returns the
    read-only (M, steps+1, n) solution, zero before t0.
    """
    j0, eta, gamma, rho = _affine_dual_inputs(model, base, u_bar, t0, eta, gamma, rho)
    Ybuf = _slabs((base.grid.steps + 1,) + eta.shape)
    Ybuf[:j0] = 0.0
    Ybuf[j0] = eta
    for _ in _affine_dual_blocks(model, base, j0, eta, gamma, rho, Ybuf):
        pass
    Y = _time_major(Ybuf)
    Y.setflags(write=False)
    return Y


def _affine_dual_inputs(model: ModelSpec, base: PathEnsemble, u_bar: ControlLaw, t0: float, eta, gamma, rho):
    """The checked inputs of `simulate_affine_dual`: the start index of t0,
    eta as a new (M, n) array, and gamma and rho as float arrays (or None)."""
    _require_base_under(base, u_bar, "simulate_affine_dual")
    grid = base.grid
    M, n = base.n_paths, model.n
    j0 = grid.index_of(t0)
    eta = _initial_per_path(eta, M, n).copy()
    if gamma is not None:
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (M, grid.steps, n):
            raise SimulationError(f"gamma must have shape ({M}, {grid.steps}, {n})")
    if rho is not None:
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (M, grid.steps, model.d, n):
            raise SimulationError(f"rho must have shape ({M}, {grid.steps}, {model.d}, {n})")
    return j0, eta, gamma, rho


def _affine_dual_blocks(model: ModelSpec, base: PathEnsemble, j0: int, eta: np.ndarray, gamma, rho,
                        out: Optional[np.ndarray] = None):
    """The Euler recursion of the perturbed linearized equation on the base
    increments from Y_j0 = eta (M, n), on the inputs `_affine_dual_inputs`
    checked, Y_j+1 = Y_j + ((dt D_xb Y_j + dt gamma_j) + sum_i rho^i_j dW^i_j):
    yields (j0, rows) per time block of BLOCK_BYTES, rows (B+1, M, n) holding
    Y_j0 .. Y_j0+B, Y_j0 carried from the block before.  The rows are views
    of `out`, a time-major (steps+1, M, n) `_slabs` array that then receives
    every row from j0 on, or else of one `_slabs` block buffer that the next
    block overwrites.  Each step writes into Y_j+1 and work buffers allocated
    once, one ufunc call per scalar operation.  One check per block names
    the first non-finite step and its lowest path, as a check per step
    would; steps after a blow-up run silently until it."""
    X, dt = _time_major(base.states), np.asarray(base.grid.dt)
    dW = None if rho is None else _time_major(base.increments)
    steps, (M, n) = base.grid.steps, eta.shape
    buf = _slabs((min(_block_steps(8 * M * n), steps - j0) + 1, M, n)) if out is None else None
    term = np.empty(M)
    forcing = None if gamma is None and rho is None else _slabs((M, n))
    # C-ordered, so numpy sums its channels left to right for any d.
    channels = None if rho is None else np.empty((M, model.d, n))
    last = eta
    for b0, b1 in _time_blocks(j0, steps, 8 * M * n):
        Y = buf[:b1 - b0 + 1] if out is None else out[b0:b1 + 1]
        Y[0] = last
        with np.errstate(all="ignore"):
            for b in range(b1 - b0):
                j, yj, yn = b0 + b, Y[b], Y[b + 1]
                drift_jac_apply(model, X[j], yj, yn, term)
                np.multiply(yn, dt, yn)
                if gamma is not None:
                    np.multiply(gamma[:, j], dt, forcing)
                    np.add(yn, forcing, yn)
                if rho is not None:
                    np.multiply(rho[:, j], dW[j, :, :, None], channels)
                    np.sum(channels, axis=1, out=forcing)
                    np.add(yn, forcing, yn)
                np.add(yn, yj, yn)
        _check_finite(Y[1:], b0 + 1, "simulate_affine_dual")
        yield b0, Y
        last = Y[-1]


def estimate_moment(ensemble: PathEnsemble, q: int, t: float):
    """Monte Carlo estimate of E|X_t|^q with a 95% normal CI half-width."""
    if q < 2 or q % 2 != 0:
        raise SimulationError("moment order q must be a positive even integer")
    x = ensemble.states[:, ensemble.grid.index_of(t)]
    vals = np.sqrt(_dot(x, x))**q
    return float(vals.mean()), _ci95_halfwidth(vals)


def _ci95_halfwidth(values: np.ndarray) -> float:
    """95% normal CI half-width of the mean of per-path values.

    Undefined below 2 paths, where it raises rather than report a confident 0.
    """
    m = len(values)
    if m < 2:
        raise SimulationError(f"a confidence interval needs at least 2 paths, got {m}")
    return float(1.96 * values.std(ddof=1) / np.sqrt(m))


# ---------------------------------------------------------------------------
# Ensemble export


def _paths_to_csv(path: str, header, dt: float, blocks) -> None:
    """Write one CSV row per (path, step): path, step, t, then each block's
    values at that step.  `blocks` are (M, steps_b, ...) arrays, trailing
    axes flattened; the first spans every step and a shorter block leaves
    its cells blank past its end.

    Each path is one `%` of a per-file template: every row's fixed text
    (step, t, blanks) with one `%r` per cell, which is the cell's `repr`,
    joined by the path index.  Its values are the blocks' cells interleaved
    row by row."""
    M, steps_plus = blocks[0].shape[:2]
    cols = np.cumsum([0] + [int(np.prod(block.shape[2:])) for block in blocks])
    spans = list(zip([block.shape[1] for block in blocks], cols, cols[1:]))  # (steps, first, end column)
    rows = []
    for j in range(steps_plus):
        cells = [",".join(["%r" if j < steps_b else ""] * (c1 - c0)) for steps_b, c0, c1 in spans]
        rows.append(f",{j},{j * dt!r}," + ",".join(cells) + "\n")
    assert "%" not in "".join(rows).replace("%r", ""), "CSV template text holds a %"
    # One path's cells on a (steps, columns) grid; `present` drops the blanks.
    grid = np.empty((steps_plus, cols[-1]))
    present = np.zeros(grid.shape, dtype=bool)
    for steps_b, c0, c1 in spans:
        present[:steps_b, c0:c1] = True
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(M):
            for block, (steps_b, c0, c1) in zip(blocks, spans):
                grid[:steps_b, c0:c1] = block[i].reshape(steps_b, -1)
            fh.write(str(i) + str(i).join(rows) % tuple(grid[present].tolist()))


def ensemble_to_csv(ensemble: PathEnsemble, path: str) -> None:
    """Write states as CSV with columns path, step, t, x_1..x_n."""
    header = ["path", "step", "t"] + [f"x_{i + 1}" for i in range(ensemble.n)]
    _paths_to_csv(path, header, ensemble.grid.dt, [ensemble.states])


def ensemble_to_binary(ensemble: PathEnsemble, path: str) -> None:
    """Compact dump.  Little-endian layout, no padding:

    * 4 bytes   magic ``ERGP``;
    * uint32    format version (1);
    * uint64 x5 M, steps, n, d, seed; float64 dt;
    * float64   x0, n values;
    * float64   states, M*(steps+1)*n values in (path, step, coordinate) order;
    * float64   increments, M*steps*d values in (path, step, channel) order.

    The on-disk order is the public (M, steps+1, n) one, whatever the layout
    of the buffers in memory.
    """
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(
            _BINARY_HEADER.pack(
                _BINARY_VERSION,
                ensemble.n_paths,
                ensemble.grid.steps,
                ensemble.n,
                ensemble.d,
                ensemble.seed,
                ensemble.grid.dt,
            )
        )
        fh.write(np.ascontiguousarray(ensemble.x0, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ensemble.states, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ensemble.increments, dtype="<f8").tobytes())


def ensemble_from_binary(path: str) -> PathEnsemble:
    """Load a dump written by `ensemble_to_binary`; a file whose header or
    length does not match that layout, whose header has M, n or d = 0, that
    holds a non-finite number or whose paths do not all start at its x0
    raises SimulationError, the last naming the lowest such path.  The
    arrays are re-buffered component-outermost (`model._slabs`), as the
    library's own ensembles are."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != _BINARY_MAGIC:
            raise SimulationError("not an ensemble dump (bad magic)")
        header = fh.read(_BINARY_HEADER.size)
        if len(header) != _BINARY_HEADER.size:
            raise SimulationError("truncated ensemble dump: incomplete header")
        version, m, steps, n, d, seed, dt = _BINARY_HEADER.unpack(header)
        if version != _BINARY_VERSION:
            raise SimulationError(f"unsupported dump version {version}")
        if min(m, n, d) == 0:
            raise SimulationError(f"ensemble dump header has an empty axis (M={m}, n={n}, d={d})")
        expected = 4 + len(header) + 8 * (n + m * (steps + 1) * n + m * steps * d)
        if size != expected:
            raise SimulationError(
                f"ensemble dump is {size} bytes, its header (M={m}, steps={steps}, n={n}, d={d}) "
                f"implies {expected}"
            )
        x0 = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(float)
        states, incr = (_time_major(_slabs((length, m, k))) for length, k in ((steps + 1, n), (steps, d)))
        states[...] = np.frombuffer(fh.read(states.nbytes), dtype="<f8").reshape(states.shape)
        incr[...] = np.frombuffer(fh.read(incr.nbytes), dtype="<f8").reshape(incr.shape)
    for name, arr in (("x0", x0), ("states", states), ("increments", incr)):
        if not np.isfinite(arr).all():
            raise SimulationError(f"ensemble dump holds a non-finite value in its {name}")
    off = np.flatnonzero((states[:, 0] != x0).any(axis=-1))
    if off.size:
        raise SimulationError(f"ensemble dump: path {int(off[0])} does not start at the header's x0")
    return PathEnsemble(grid=TimeGrid(dt=dt, steps=steps), states=states, seed=seed, control_id="imported",
                        d=d, noise=incr)
