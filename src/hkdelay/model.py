"""System configuration, influence functions, initial data, and
communication-weight evaluation for delayed Hegselmann-Krause dynamics.

Two delay mechanisms are supported: with transmission-type delay an agent
compares its *current* state against delayed states of the others, while
with reaction-type delay the whole comparison happens at the delayed time.
Each combines with either classical 1/(N-1)-scaled weights (row sums at
most one) or row-normalized weights (row sums exactly one).

The one pairwise kernel is pair_sq with weights_from_states on it.  States
are (..., N, d), leading axes stacking independent states.  Pair arrays are
stack-last, the reverse of the states' axes: (N_j, N_i, ...), so that
broadcasts and elementwise work run over the stack on numpy's inner loop
however small N is.  The weights come unnormalized (Weights.u, u_ij for
agent j in agent i's row) with their row sums s_i; normalization is one
divide by the row denominator Weights.n (s_i, or N - 1 for classical
weights) after any product with u, so the weight scheme is decided here
alone.  Summation order, the same for a state alone as anywhere in a stack:
row minima and row sums reduce over the outermost axis j in index order,
((u_0i + u_1i) + u_2i) + ...; the velocity's sum over j is one einsum
on u as it is laid out, which accumulates over j in index order, with no
copy of u and no BLAS call (see dynamics.velocity_from_states, which also
documents the order of D).  Every maximum of a pair array is pair_max's,
over j and then over i.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfig, InvalidDatum, OutOfRange, SpecError

# Cap on the entries of one stacked temporary: 2**13 doubles, 64 KiB.
# block_length turns it into the block size of every blocked loop, and
# blocks cuts each such loop, as it cuts every stepped loop of the package:
# integrate's stacked reaction velocity calls and its tail fill of squared
# diameters, check_icass, compute_metrics and the two CSV writers.  glibc
# maps temporaries above its default 128 KiB threshold afresh on every call:
# at 2**16 (six nodes per block at N = 100) the first compute_metrics of a
# process took 0.27 s, against 0.23 s node by node, on a 2-vCPU Intel Xeon
# guest.
BLOCK_ENTRIES = 2**13


def block_length(entries_per_item: int) -> int:
    """Items stacked per block when each adds entries_per_item to a temporary."""
    return max(1, BLOCK_ENTRIES // entries_per_item)


def blocks(stop: int, size: int, start: int = 0):
    """The consecutive slices that cover start..stop in order, each size
    items long except the last: the one rule by which the package cuts a
    stepped loop into blocks."""
    return (slice(a, min(a + size, stop)) for a in range(start, stop, size))


class DelayKind(str, Enum):
    TRANSMISSION = "transmission"
    REACTION = "reaction"


class WeightScheme(str, Enum):
    CLASSICAL_SCALED = "classical_scaled"
    NORMALIZED = "normalized"


class InfluenceKind(str, Enum):
    CONSTANT = "constant"
    ALGEBRAIC_DECAY = "algebraic_decay"
    TABLE = "table"


@dataclass(frozen=True, eq=False)
class InfluenceFunction:
    """Distance-dependent communication intensity psi: [0, inf) -> (0, 1].

    Three families: a constant value c, the algebraic decay
    (1 + s^2)^(-gamma), and a tabulated profile with linear interpolation
    between knots and constant extension beyond the last knot.  No
    monotonicity is assumed; evaluation always stays in (0, 1].
    """

    kind: InfluenceKind
    c: float = 1.0
    gamma: float = 1.0
    knots_s: np.ndarray | None = None
    knots_psi: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is InfluenceKind.CONSTANT:
            if not (0.0 < self.c <= 1.0):
                raise InvalidConfig(f"influence.c must be in (0, 1], got {self.c}")
        elif self.kind is InfluenceKind.ALGEBRAIC_DECAY:
            if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
                raise InvalidConfig(f"influence.gamma must be >= 0, got {self.gamma}")
        elif self.kind is InfluenceKind.TABLE:
            s = np.asarray(self.knots_s, dtype=float)
            p = np.asarray(self.knots_psi, dtype=float)
            if s.ndim != 1 or s.size < 2 or p.shape != s.shape:
                raise InvalidConfig("influence.table needs >= 2 (s, psi) pairs")
            if not (np.all(np.isfinite(s)) and np.all(np.isfinite(p))):
                raise InvalidConfig("influence.table knots must be finite")
            if s[0] != 0.0 or np.any(np.diff(s) <= 0.0):
                raise InvalidConfig("influence.table grid must start at 0 and increase")
            if np.any(p <= 0.0) or np.any(p > 1.0):
                raise InvalidConfig("influence.table values must be in (0, 1]")
            object.__setattr__(self, "knots_s", s)
            object.__setattr__(self, "knots_psi", p)
        else:
            raise InvalidConfig(f"unknown influence kind {self.kind!r}")

    @classmethod
    def constant(cls, c: float = 1.0) -> "InfluenceFunction":
        return cls(InfluenceKind.CONSTANT, c=float(c))

    @classmethod
    def algebraic_decay(cls, gamma: float = 1.0) -> "InfluenceFunction":
        return cls(InfluenceKind.ALGEBRAIC_DECAY, gamma=float(gamma))

    @classmethod
    def table(cls, samples) -> "InfluenceFunction":
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise InvalidConfig("influence.table needs >= 2 (s, psi) pairs")
        return cls(InfluenceKind.TABLE, knots_s=samples[:, 0], knots_psi=samples[:, 1])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind is InfluenceKind.TABLE:
            out = np.interp(s, self.knots_s, self.knots_psi)
        else:
            out = self.of_sq(s * s)
        return out if out.ndim else float(out)

    def of_sq(self, s2: np.ndarray) -> np.ndarray:
        """psi(sqrt(s2)) for an array of squared distances.

        The constant and algebraic families need no square root; only the
        tabulated profile interpolates in s itself.
        """
        if self.kind is InfluenceKind.CONSTANT:
            return np.full_like(s2, self.c)
        if self.kind is InfluenceKind.ALGEBRAIC_DECAY:
            return (1.0 + s2) ** (-self.gamma)
        return np.interp(np.sqrt(s2), self.knots_s, self.knots_psi)

    def to_dict(self) -> dict:
        if self.kind is InfluenceKind.CONSTANT:
            return {"kind": self.kind.value, "c": self.c}
        if self.kind is InfluenceKind.ALGEBRAIC_DECAY:
            return {"kind": self.kind.value, "gamma": self.gamma}
        samples = np.column_stack([self.knots_s, self.knots_psi])
        return {"kind": self.kind.value, "samples": samples.tolist()}


def psi_floor(influence: InfluenceFunction, d: float) -> float:
    """Minimum of the influence function over distances [0, d].

    The constant and algebraic families are monotone, so their minimum
    over [0, d] is psi(d) itself; a tabulated profile is piecewise linear,
    so its minimum is the smaller of psi(d) and the knots in [0, d].  Hence
    usable as a certified lower bound in the rate formulas.
    """
    if d < 0.0 or not math.isfinite(d):
        raise InvalidConfig(f"psi_floor needs finite d >= 0, got {d}")
    floor = float(influence(d))
    if influence.kind is InfluenceKind.TABLE:
        # the grid starts at s = 0, so knot 0 is always among those in [0, d]
        floor = min(floor, float(influence.knots_psi[influence.knots_s <= d].min()))
    return floor


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Full description of one delayed consensus system."""

    n_agents: int
    dim: int
    tau: float
    delay_kind: DelayKind
    weight_scheme: WeightScheme
    influence: InfluenceFunction

    def __post_init__(self):
        n, d = int(self.n_agents), int(self.dim)
        if n != self.n_agents or n < 2:
            raise InvalidConfig(f"n_agents must be an integer >= 2, got {self.n_agents}")
        if d != self.dim or d < 1:
            raise InvalidConfig(f"dim must be an integer >= 1, got {self.dim}")
        if 8 * n * max(n, d) > sys.maxsize:  # as dynamics._grid_shape refuses grids
            raise InvalidConfig("n_agents and dim: (N, N) and (N, d) arrays of doubles cannot be addressed")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise InvalidConfig(f"tau must be a positive real, got {self.tau}")
        object.__setattr__(self, "n_agents", n)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "delay_kind", DelayKind(self.delay_kind))
        object.__setattr__(self, "weight_scheme", WeightScheme(self.weight_scheme))

    def to_dict(self) -> dict:
        return {
            "n_agents": self.n_agents,
            "dim": self.dim,
            "tau": self.tau,
            "delay_kind": self.delay_kind.value,
            "weight_scheme": self.weight_scheme.value,
            "influence": self.influence.to_dict(),
        }


def has_symmetric_weights(config: SystemConfig) -> bool:
    """True when the weight matrix is symmetric at every time.

    Reaction-type classical weights compare same-time arguments, hence are
    symmetric; normalized weights are symmetric only for a constant psi
    (all entries collapse to 1/(N-1)).
    """
    if config.delay_kind is not DelayKind.REACTION:
        return False
    if config.weight_scheme is WeightScheme.CLASSICAL_SCALED:
        return True
    return config.influence.kind is InfluenceKind.CONSTANT


class DatumKind(str, Enum):
    CONSTANT_PER_AGENT = "constant_per_agent"
    SAMPLED = "sampled"


def require_finite_squares(field: str, values, dim: int) -> None:
    """Refuse coordinates that are not finite or whose squared distances overflow.

    The weights, the diameter and the radius square differences and norms
    of d-vectors; with every coordinate at most m in size they stay below
    4 d m^2, which must be finite.  Errors name field.
    """
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidDatum(f"{field}: contains non-finite values")
    m = float(np.abs(v).max())
    if not math.isfinite(4.0 * dim * m * m):
        raise InvalidDatum(
            f"{field}: coordinates up to {m:.3g} overflow the squared distances "
            "between agents; rescale the datum"
        )


@dataclass(frozen=True, eq=False)
class InitialDatum:
    """Prescribed continuous trajectories on the startup interval.

    Constant data hold one vector per agent; sampled data carry a strictly
    increasing time grid with per-agent states, evaluated by linear
    interpolation between grid points.
    """

    kind: DatumKind
    values: np.ndarray  # constant kind: (N, d)
    times: np.ndarray | None = None  # sampled kind: (M,)
    samples: np.ndarray | None = None  # sampled kind: (M, N, d)

    @classmethod
    def constant(cls, vectors) -> "InitialDatum":
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if v.ndim != 2:
            raise InvalidDatum("datum.vectors: must have shape (N, d) for N agents")
        if v.size == 0:
            raise InvalidDatum("datum.vectors: a constant datum needs at least one agent vector")
        require_finite_squares("datum.vectors", v, v.shape[-1])
        return cls(DatumKind.CONSTANT_PER_AGENT, values=v)

    @classmethod
    def sampled(cls, times, values) -> "InitialDatum":
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        with np.errstate(all="ignore"):  # an overflowing spacing is refused below, not warned about
            spacing = np.diff(t.ravel())
        if t.ndim != 1 or t.size < 2 or not np.all((0.0 < spacing) & (spacing < math.inf)):
            raise InvalidDatum("datum.times: a sampled datum needs a strictly increasing grid of finite spacing")
        if v.ndim == 2:  # (M, N) shorthand for d = 1
            v = v[:, :, None]
        if v.ndim != 3 or v.shape[0] != t.size or v.size == 0:
            raise InvalidDatum("datum.values: must have shape (M, N, d) for M times")
        require_finite_squares("datum.values", v, v.shape[-1])
        return cls(DatumKind.SAMPLED, values=v[0], times=t, samples=v)

    @property
    def n_agents(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def require_fits(self, config: SystemConfig) -> None:
        """Refuse a datum whose (N, d) is not config's, or a sampled datum
        whose grid does not cover the startup interval [-tau, 0]."""
        if (self.n_agents, self.dim) != (config.n_agents, config.dim):
            raise InvalidDatum(
                f"datum: shape ({self.n_agents}, {self.dim}) does not match "
                f"config.n_agents/dim ({config.n_agents}, {config.dim})"
            )
        if self.kind is DatumKind.CONSTANT_PER_AGENT:
            return
        tau = config.tau
        if not (self._reaches(-tau) and self._reaches(0.0)):
            raise InvalidDatum(
                f"datum.times: sampled datum spans [{self.times[0]:g}, {self.times[-1]:g}], "
                f"needs [-{tau:g}, 0]"
            )

    def _reaches(self, t):
        """Whether the sample grid reaches t, up to 1e-9 of the largest of t
        and the grid's end times: on [-tau, 0] the slack scales with tau,
        however small tau is.  Elementwise for an array of times."""
        ts = self.times
        pad = 1e-9 * np.maximum(np.abs(t), max(abs(ts[0]), abs(ts[-1])))
        return (ts[0] - pad <= t) & (t <= ts[-1] + pad)

    def _segment(self, t):
        """Index i of the grid segment [ts[i], ts[i + 1]] that holds each
        time t, clamped to the grid."""
        ts = self.times
        i = np.searchsorted(ts, np.clip(t, ts[0], ts[-1]), side="right") - 1
        return np.clip(i, 0, ts.size - 2)

    def at(self, t) -> np.ndarray:
        """State (N, d) at time t on the startup interval, or (k, N, d) at
        each of k times."""
        t = np.asarray(t, dtype=float)
        if self.kind is DatumKind.CONSTANT_PER_AGENT:
            return np.broadcast_to(self.values, t.shape + self.values.shape)
        ts = self.times
        outside = ~self._reaches(t)
        if outside.any():
            bad = np.atleast_1d(t)[np.atleast_1d(outside)][0]
            raise OutOfRange(f"datum sample at t={bad:g} outside [{ts[0]:g}, {ts[-1]:g}]")
        i = self._segment(t)
        theta = ((np.clip(t, ts[0], ts[-1]) - ts[i]) / (ts[i + 1] - ts[i]))[..., None, None]
        return (1.0 - theta) * self.samples[i] + theta * self.samples[i + 1]

    def slope_at(self, t) -> np.ndarray:
        """Derivative (N, d) of the interpolant at t, or (k, N, d) at each of
        k times; zero for constant data."""
        t = np.asarray(t, dtype=float)
        if self.kind is DatumKind.CONSTANT_PER_AGENT:
            return np.zeros(t.shape + self.values.shape)
        ts = self.times
        i = self._segment(t)
        return (self.samples[i + 1] - self.samples[i]) / (ts[i + 1] - ts[i])[..., None, None]

    def to_dict(self) -> dict:
        if self.kind is DatumKind.CONSTANT_PER_AGENT:
            return {"kind": self.kind.value, "vectors": self.values.tolist()}
        return {
            "kind": self.kind.value,
            "times": self.times.tolist(),
            "values": self.samples.tolist(),
        }


def pair_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N_b, N_a, ...) squared distances |b_j - a_i|^2 between the rows of a and b.

    a is (..., N_a, d) and b is (..., N_b, d), with the same leading axes.
    The pair array is stack-last, the reverse of the states' axes:
    j outermost, then i, then the stacked states, so that elementwise work
    runs over the stack on numpy's inner loop, and its .T is the
    (..., N_a, N_b) array of each state.  One component at a time, b_j is
    repeated along i and a subtracted in place, so no broadcast runs an
    inner loop as short as a small stack.  pair_sq(x, x) is exactly
    symmetric in (j, i), and a stack of inputs gives the stack of the
    per-state results bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    at = np.ascontiguousarray(a.T)  # (d, N_a, ...)
    bt = at if b is a else np.ascontiguousarray(b.T)
    out = None
    for k in range(len(bt)):
        tmp = bt[k, :, None].repeat(at.shape[1], axis=1)
        tmp -= at[k]
        tmp *= tmp
        if out is None:
            out = tmp
        else:
            out += tmp
    return out


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable (N, ...) view of the entries j = i of a C-contiguous
    stack-last (N, N, ...) pair array."""
    n = len(a)
    return a.reshape((n * n,) + a.shape[2:])[:: n + 1]


def pair_max(sq: np.ndarray) -> np.ndarray:
    """Maximum of each stacked state's entries in a stack-last
    (N_j, N_i, ...) pair array (see pair_sq), reduced over j and then over i.

    A maximum is exact in any order, but one reduction over both axes runs
    numpy's inner loop only as long as the stack, slow for a few large-N
    states."""
    return sq.max(axis=0).max(axis=0).T


def squared_diameter(states: np.ndarray) -> np.ndarray:
    """Maximum pairwise squared distance of each stacked (..., N, d) state,
    the pair_max of its pair array."""
    return pair_max(pair_sq(states, states))


def diameter(states: np.ndarray) -> np.ndarray:
    """Maximum pairwise Euclidean distance of each stacked (..., N, d)
    state, the root of its squared_diameter."""
    return np.sqrt(squared_diameter(states))


def radius(states: np.ndarray) -> np.ndarray:
    """Maximum Euclidean norm over the agents of each stacked (..., N, d)
    state: |x_i|^2 is one einsum, the same bits alone as in any stack, and
    the maximum over agents runs node-last."""
    states = np.asarray(states, dtype=float)
    return np.sqrt(np.einsum("...ik,...ik->...i", states, states).T.copy().max(axis=0).T)


class Weights(NamedTuple):
    """Stack-last weights of (..., N, d) states (see pair_sq).

    u[j, i, ...] is the unnormalized weight of agent j in agent i's row,
    zero on the diagonal, and s[i, ...] its row sum over j.  The weights
    are u_ij / n_i, with the row denominator n the array s itself for
    normalized weights and N - 1 on every row for classical ones, so a
    product with u is normalized after it and no consumer names the
    scheme.  sq is the pair array that u was formed from when it holds the
    delayed states' own pairs (reaction delay), and None otherwise.
    """

    u: np.ndarray  # (N_j, N_i, ...)
    s: np.ndarray  # (N_i, ...)
    n: np.ndarray  # (N_i, ...)
    sq: np.ndarray | None

    def matrix(self) -> np.ndarray:
        """(..., N_i, N_j) weight matrices u_ij / n_i, one per stacked state:
        the one view of the weights in the states' layout."""
        return (self.u / self.n).T


def weights_from_states(
    config: SystemConfig, x_now: np.ndarray | None, x_delayed: np.ndarray
) -> Weights:
    """Weights of (..., N, d) states, stack-last (see Weights and pair_sq).

    Transmission compares x_delayed[j] to x_now[i]; reaction compares
    x_delayed[j] to x_delayed[i].  u is psi of the pair distances, and for
    normalized algebraic weights the row-scaled
    ((1 + s_ij^2) / (1 + min_{k != i} s_ik^2))^(-gamma): the largest entry
    of each row is 1, and no row underflows however large gamma or the
    distances.  Row minima and row sums reduce over the outermost axis j,
    which numpy does in index order whatever the stack's size, so a state
    gets the same bits alone as anywhere in a stack.
    """
    reaction = config.delay_kind is DelayKind.REACTION
    sq = pair_sq(x_delayed if reaction else x_now, x_delayed)
    influence = config.influence
    normalized = config.weight_scheme is WeightScheme.NORMALIZED
    if normalized and influence.kind is InfluenceKind.ALGEBRAIC_DECAY:
        u = np.add(sq, 1.0, out=None if reaction else sq)  # reaction keeps sq for D
        diagonal = _diagonal(u)
        diagonal[...] = np.inf  # excluded from the row minimum
        np.divide(u.min(axis=0), u, out=u)
        if influence.gamma != 1.0:
            u **= influence.gamma
    else:
        u = influence.of_sq(sq)
        diagonal = _diagonal(u)
    diagonal[...] = 0.0
    s = u.sum(axis=0)
    n = s if normalized else np.full_like(s, config.n_agents - 1.0)
    return Weights(u, s, n, sq if reaction else None)


@dataclass(frozen=True)
class IcassReport:
    """The datum's largest diameter d_x0, radius r_x0 and slope norm
    max_slope over [-tau, 0], and the regularity check max_slope <= d_x0."""

    satisfied: bool
    max_slope: float
    d_x0: float
    r_x0: float

    def to_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "max_slope": self.max_slope,
            "d_x0": self.d_x0,
        }


def check_icass(datum: InitialDatum, config: SystemConfig) -> IcassReport:
    """Read the startup bounds of a datum that fits config.

    The states are read at -tau, at every datum knot strictly inside
    (-tau, 0) and at 0 (at 0 alone for constant data), and the slopes by
    slope_at at the left knot of every datum segment that overlaps
    (-tau, 0).  The datum is piecewise linear and diameter and radius are
    convex, so their maxima over [-tau, 0] lie at these states.  The
    diameters are reduced in the blocks of block_length(N^2) states that
    blocks cuts, so no pair array holds more than one block; a maximum is
    exact in any order.
    """
    datum.require_fits(config)
    ts, tau = datum.times, config.tau
    times, max_slope = [0.0], 0.0
    if datum.kind is DatumKind.SAMPLED:
        times = [-tau, *ts[(ts > -tau) & (ts < 0.0)].tolist(), 0.0]
        left = ts[:-1][(ts[:-1] < 0.0) & (ts[1:] > -tau)]
        max_slope = float(radius(datum.slope_at(left)).max(initial=0.0))
    states = datum.at(times)
    d_x0 = max(float(diameter(states[s]).max()) for s in blocks(len(states), block_length(config.n_agents**2)))
    return IcassReport(
        satisfied=max_slope <= d_x0,
        max_slope=max_slope,
        d_x0=d_x0,
        r_x0=float(radius(states).max()),
    )


# ---------------------------------------------------------------------------
# JSON codecs (field names mirror the dataclass fields)

def json_number(field: str, value, integer: bool = False):
    """value if it is a JSON number that converts to a float, or a
    non-negative integer when integer is set; anything else, a bool or a
    numeric string among them, raises InvalidConfig naming field."""
    if integer:
        ok = isinstance(value, int) and value >= 0
    else:
        ok = isinstance(value, (int, float))
    if isinstance(value, bool) or not ok:
        kind = "a non-negative integer" if integer else "a number"
        raise InvalidConfig(f"{field}: expected {kind}, got {value!r}")
    if not integer:
        try:
            float(value)
        except OverflowError:
            raise InvalidConfig(f"{field}: expected a number within the float range, got a larger integer") from None
    return value


def json_array(field: str, value) -> np.ndarray:
    """value as a float array, if it is a JSON number or nested lists of
    them: json_number's rule holds for every element.  Anything else, a
    ragged array among them, raises InvalidConfig naming field."""
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, list):
            pending.extend(reversed(v))  # the first bad element is named
        else:
            json_number(field, v)
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:  # ragged
        raise InvalidConfig(f"{field}: {exc}") from exc


def require_known(section: str, d: dict, known) -> None:
    """Refuse the first entry of the JSON object d that is not in known,
    naming it <section>.<entry>: a misspelled field would otherwise run
    with its default."""
    for key in d:
        if key not in known:
            raise SpecError(f"{section}.{key}: unknown entry")


def influence_from_dict(d: dict) -> InfluenceFunction:
    if not isinstance(d, dict):
        raise InvalidConfig(f"influence: expected a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == InfluenceKind.CONSTANT.value:
        require_known("influence", d, ("kind", "c"))
        return InfluenceFunction.constant(json_number("influence.c", d.get("c", 1.0)))
    if kind == InfluenceKind.ALGEBRAIC_DECAY.value:
        require_known("influence", d, ("kind", "gamma"))
        return InfluenceFunction.algebraic_decay(json_number("influence.gamma", d.get("gamma", 1.0)))
    if kind == InfluenceKind.TABLE.value:
        require_known("influence", d, ("kind", "samples"))
        return InfluenceFunction.table(json_array("influence.samples", d["samples"]))
    raise InvalidConfig(f"influence.kind: unknown value {kind!r}")


def config_from_dict(d: dict) -> SystemConfig:
    require_known("config", d, [f.name for f in fields(SystemConfig)])
    missing = [f.name for f in fields(SystemConfig) if f.name not in d]
    if missing:
        raise InvalidConfig(f"config.{missing[0]}: missing field")
    for key in ("n_agents", "dim", "tau"):
        json_number(f"config.{key}", d[key])
    try:
        return SystemConfig(
            n_agents=d["n_agents"],
            dim=d["dim"],
            tau=d["tau"],
            delay_kind=DelayKind(d["delay_kind"]),
            weight_scheme=WeightScheme(d["weight_scheme"]),
            influence=influence_from_dict(d["influence"]),
        )
    except KeyError as exc:  # a field the influence's kind needs
        raise InvalidConfig(f"config.influence.{exc.args[0]}: missing field") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        raise InvalidConfig(f"config: {exc}") from exc


def _datum_array(d: dict, key: str) -> np.ndarray:
    """d[key] as a float array by json_array, with errors that name the
    field datum.<key>."""
    if key not in d:
        raise InvalidDatum(f"datum.{key}: missing field")
    try:
        return json_array(f"datum.{key}", d[key])
    except InvalidConfig as exc:
        raise InvalidDatum(str(exc)) from exc


def datum_from_dict(d: dict) -> InitialDatum:
    kind = d.get("kind")
    if kind == DatumKind.CONSTANT_PER_AGENT.value:
        require_known("datum", d, ("kind", "vectors"))
        return InitialDatum.constant(_datum_array(d, "vectors"))
    if kind == DatumKind.SAMPLED.value:
        require_known("datum", d, ("kind", "times", "values"))
        return InitialDatum.sampled(_datum_array(d, "times"), _datum_array(d, "values"))
    raise InvalidDatum(f"datum.kind: unknown value {kind!r}")
