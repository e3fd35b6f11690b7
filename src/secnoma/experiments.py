"""Reproducible parameter sweeps and their CSV serialization.

A sweep is a declarative spec: what to vary, what stays fixed, how many
fading trials, which seed. Running it yields one aggregate row per
(axis point, scheme, metric); writing the table twice from the same spec
produces byte-identical files.
"""
from __future__ import annotations

import csv
import math
import numbers
import os
import stat
from dataclasses import dataclass, field

from ._lazy import lazy_module
from .channel import (
    _GEOMETRY_KEYS,
    ChannelRealization,
    _gains_from_uniforms,
    _geometry,
    _require_integer,
    _trial_uniforms,
    db_to_linear,
    dbm_to_mw,
    sample_trial_gains,
    trial_seeds,
)
from .maxmin import DEFAULT_TOL, MaxMinSolution, _maxmin_rows, optimal_power_ratio_user1, solve_maxmin_bisection
from .power_min import PowerMinSolution, solve_min_power
from .secrecy import SecrecyRequirement, _stringency
from .tdma import TdmaMinPower, tdma_maxmin, tdma_min_power

np = lazy_module("numpy")

CSV_HEADER = ("x", "scheme", "metric", "value", "stderr", "feasible_frac", "trials", "seed")

# keys that are whole numbers by nature
_INT_KEYS = {"k"}

# the fixed keys that set a fixed channel (a fading geometry's are channel._GEOMETRY_KEYS)
_CHANNEL_KEYS = {"k", "gain_base_db", "gain_slope_db", "gamma_e_db"}


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        _require_integer("steps", self.steps)
        if self.steps < 1:
            raise ValueError("axis needs at least one step")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis endpoints must be finite")

    def values(self):
        """The axis points as Python floats, bit for bit
        `np.linspace(start, stop, steps)` by its own arithmetic."""
        delta = self.stop - self.start
        if self.steps == 1:
            # linspace scales by delta even here; it shows only on a signed zero
            return [0.0 * delta + self.start]
        div = self.steps - 1
        step = delta / div
        if step == 0:
            # a step that underflows: linspace scales the fraction instead
            points = [i / div * delta + self.start for i in range(self.steps)]
        else:
            points = [i * step + self.start for i in range(self.steps)]
        points[-1] = float(self.stop)
        return points


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    axis: SweepAxis
    fixed: dict[str, float] = field(default_factory=dict)
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; choose from {SWEEP_KINDS}")
        axis, allowed, _ = _KINDS[self.kind]
        if self.axis.name != axis:
            raise ValueError(f"sweep kind {self.kind!r} varies {axis!r}, not {self.axis.name!r}")
        for key in ("trials", "seed"):
            # a float or a bool would also print as given in every row
            _require_integer(key, getattr(self, key))
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for key in self.fixed:
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")
        k = self.fixed.get("k", 1)
        if not (isinstance(k, numbers.Real) and float(k).is_integer() and k >= 1):
            raise ValueError(f"fixed key 'k' must be a positive whole number, not {k!r}")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SweepSpec":
        """Build a spec from flat string key-value pairs (the CLI config form)."""
        data = dict(mapping)
        try:
            kind = data.pop("kind")
            axis = SweepAxis(
                data.pop("axis"),
                float(data.pop("axis_start")),
                float(data.pop("axis_stop")),
                int(data.pop("axis_steps")),
            )
        except KeyError as missing:
            raise ValueError(f"sweep config is missing required key {missing}") from None
        trials = int(data.pop("trials", 1))
        seed = int(data.pop("seed", 0))
        fixed = {}
        for key, raw in data.items():
            value = float(raw)
            # a fractional count is kept as it is, for __post_init__ to reject
            fixed[key] = int(value) if key in _INT_KEYS and value.is_integer() else value
        return cls(kind, axis, fixed, trials, seed)


@dataclass(frozen=True)
class AggregateResult:
    x: float
    scheme: str
    metric: str
    value: float
    stderr: float
    feasible_frac: float
    trials: int
    seed: int

    def __post_init__(self):
        if not (self.stderr >= 0.0):
            raise ValueError("standard error must be nonnegative")
        if not (0.0 <= self.feasible_frac <= 1.0):
            raise ValueError("feasible fraction must lie in [0, 1]")


def _fixed_channel(fixed) -> ChannelRealization:
    base = fixed.get("gain_base_db", 23.0)
    slope = fixed.get("gain_slope_db", 2.0)
    gains = sorted(db_to_linear(base + slope * (k + 1)) for k in range(int(fixed.get("k", 2))))
    return ChannelRealization(tuple(gains), db_to_linear(fixed["gamma_e_db"]))


def _fixed_row(spec, x, scheme, metric, value, ok):
    """A fixed-channel study's row: one trial, so no spread."""
    return AggregateResult(x, scheme, metric, value, 0.0, 1.0 if ok else 0.0, 1, spec.seed)


def _run_power_vs_q(spec):
    channel = _fixed_channel(spec.fixed)
    eps = spec.fixed["eps"]
    rows = []
    for q in spec.axis.values():
        sol = solve_min_power(channel, SecrecyRequirement(q, eps))
        ok = isinstance(sol, PowerMinSolution)
        rows.append(_fixed_row(spec, q, "noma", "total_power", sol.total_power_mw if ok else math.nan, ok))
        bench = tdma_min_power(channel, q, eps)
        ok = isinstance(bench, TdmaMinPower)
        rows.append(_fixed_row(spec, q, "tdma_eq", "avg_power", bench.avg_power_mw if ok else math.nan, ok))
        rows.append(_fixed_row(spec, q, "tdma_eq", "peak_power", bench.peak_power_mw if ok else math.nan, ok))
    return rows


def _run_rate_vs_p(spec):
    channel = _fixed_channel(spec.fixed)
    eps = spec.fixed["eps"]
    tol = spec.fixed.get("tol", DEFAULT_TOL)
    rows = []
    for p_dbm in spec.axis.values():
        p = dbm_to_mw(p_dbm)
        sol = solve_maxmin_bisection(channel, eps, p, tol)
        ok = isinstance(sol, MaxMinSolution)
        rows.append(_fixed_row(spec, p_dbm, "noma", "min_rate", sol.rate if ok else 0.0, ok))
        for scheme, mode in (("tdma_opt", "optimal_time"), ("tdma_eq", "equal_time")):
            rate = tdma_maxmin(channel, eps, p, mode).rate
            rows.append(_fixed_row(spec, p_dbm, scheme, "min_rate", rate, ok))
    return rows


def _run_beta_vs_eps(spec):
    channel = _fixed_channel(spec.fixed)
    if channel.num_users != 2:
        raise ValueError("the power-split study is specific to two users")
    g1, g2 = channel.user_gains
    p = dbm_to_mw(spec.fixed["p_dbm"])
    rows = []
    for eps in spec.axis.values():
        phi = _stringency(channel.eaves_avg_gain, eps)
        ok = g1 > phi
        beta = optimal_power_ratio_user1(g1, g2, phi, p) if ok else math.nan
        rows.append(_fixed_row(spec, eps, "noma", "beta1", beta, ok))
    return rows


def _mean_stderr(rates):
    """Each row's mean and standard error of the mean over the columns of a
    2-D array, as lists: bit for bit `rates.mean(axis=1)` and
    `rates.std(axis=1, ddof=1) / sqrt(N)` (0.0 for one column), by the same
    ufunc steps numpy's mean and var take, without their Python-level
    dispatch."""
    trials = rates.shape[1]
    means = np.add.reduce(rates, axis=1) / trials
    if trials == 1:
        return means.tolist(), [0.0] * len(means)
    dev = rates - means[:, None]
    dev *= dev
    stderrs = np.sqrt(np.add.reduce(dev, axis=1) / (trials - 1)) / math.sqrt(trials)
    return means.tolist(), stderrs.tolist()


def _avg_rate_rows(rows, x, spec, rates, feasible):
    """Append the avg_min_rate row of each scheme at axis point x, from the
    (3, N) per-trial (noma, tdma_opt, tdma_eq) rates; returns the feasible
    fraction and the noma and tdma_opt (mean, stderr)."""
    frac = np.count_nonzero(feasible) / feasible.size
    stats = list(zip(*_mean_stderr(rates)))
    for scheme, (mean, stderr) in zip(("noma", "tdma_opt", "tdma_eq"), stats):
        rows.append(AggregateResult(x, scheme, "avg_min_rate", mean, stderr, frac, spec.trials, spec.seed))
    return frac, stats[0], stats[1]


# Feasible rows per lockstep solve: enough to spread numpy's fixed cost per
# call over many rows, few enough to keep the solver's arrays small.
_BATCH_ROWS = 4096


def _maxmin_rates_per_trial(points, p, tol):
    """Yield, for each axis point taken in order as (sorted (N, K) gain
    matrix, phi), its zero-filled (3, N) per-trial rates for the three
    schemes and its feasibility flags.

    Consecutive points share one solve of at most _BATCH_ROWS feasible
    rows; a point with more is solved alone. Points are read and yielded one
    batch at a time, so only one batch is held in memory.
    """
    batch, size = [], 0
    for gains, phi in points:
        # infeasible realizations contribute zero rate
        feasible = gains[:, 0] > phi
        count = int(np.count_nonzero(feasible))
        if batch and size + count > _BATCH_ROWS:
            yield from _solve_batch(batch, p, tol)
            batch, size = [], 0
        batch.append((gains[feasible], phi, feasible))
        size += count
    if batch:
        yield from _solve_batch(batch, p, tol)


def _solve_batch(batch, p, tol):
    """Solve the feasible rows of a batch of (rows, phi, feasible) points in
    one call of `_maxmin_rows` and yield each point's rates and flags. Rows
    with fewer users than the widest point that has rows sit in the last
    columns, +inf to their left."""
    counts = [len(rows) for rows, _, _ in batch]
    width = max((rows.shape[1] for rows, _, _ in batch if len(rows)), default=1)
    stacked = np.full((sum(counts), width), np.inf)
    phi = np.repeat([phi for _, phi, _ in batch], counts)
    start = 0
    for rows, _, _ in batch:
        if len(rows):
            stacked[start : start + len(rows), width - rows.shape[1] :] = rows
            start += len(rows)
    solved = _maxmin_rows(stacked, phi, p, tol)
    for (_, _, feasible), block in zip(batch, np.split(solved, np.cumsum(counts)[:-1], axis=1)):
        rates = np.zeros((3, len(feasible)))
        rates[:, feasible] = block
        yield rates, feasible


def _run_avg_rate_vs_eps(spec):
    num = int(spec.fixed.get("k", 2))
    geometry = _geometry(spec.fixed, num)
    p = dbm_to_mw(spec.fixed["p_dbm"])
    tol = spec.fixed.get("tol", DEFAULT_TOL)
    # one realization per trial, shared across axis points: the eps trend is
    # then a per-trial monotone map and the average inherits it
    gains = sample_trial_gains(geometry, trial_seeds(spec.seed, spec.trials))
    eps_values = spec.axis.values()
    points = ((gains, _stringency(geometry.eaves_avg_gain(), eps)) for eps in eps_values)
    rows = []
    for eps, (rates, feasible) in zip(eps_values, _maxmin_rates_per_trial(points, p, tol)):
        _avg_rate_rows(rows, eps, spec, rates, feasible)
    return rows


def _run_gain_vs_k(spec):
    eps = spec.fixed["eps"]
    p = dbm_to_mw(spec.fixed["p_dbm"])
    tol = spec.fixed.get("tol", DEFAULT_TOL)
    counts = []
    for x in spec.axis.values():
        num = int(round(x))
        if abs(num - x) > 1e-9 or num < 1:
            raise ValueError("user-count axis must hold positive integers")
        counts.append(num)
    # same per-trial seed for every K: draws nest, so one draw at the largest
    # count serves every K through its column prefix, and adjacent K share noise
    uniforms = _trial_uniforms(trial_seeds(spec.seed, spec.trials), max(counts))

    def point(num):
        geometry = _geometry(spec.fixed, num)
        gains = _gains_from_uniforms(geometry, uniforms[:, :num])
        return gains, _stringency(geometry.eaves_avg_gain(), eps)

    rows = []
    for num, (rates, feasible) in zip(counts, _maxmin_rates_per_trial(map(point, counts), p, tol)):
        frac, (mean_noma, se_noma), (mean_opt, se_opt) = _avg_rate_rows(
            rows, float(num), spec, rates, feasible
        )
        if mean_opt > 0.0:
            ratio = mean_noma / mean_opt
            # first-order error propagation; the trial-level correlation is
            # ignored, which only overstates the spread
            stderr = ratio * math.hypot(
                se_noma / mean_noma if mean_noma > 0 else 0.0, se_opt / mean_opt
            )
        else:
            ratio, stderr = math.nan, 0.0
        rows.append(
            AggregateResult(float(num), "noma", "rate_ratio", ratio, stderr, frac, spec.trials, spec.seed)
        )
    return rows


# each kind's axis, the fixed keys it reads (any other key is a mistake) and
# its runner
_KINDS = {
    "power_vs_Q": ("q", _CHANNEL_KEYS | {"eps"}, _run_power_vs_q),
    "rate_vs_P": ("p_dbm", _CHANNEL_KEYS | {"eps", "tol"}, _run_rate_vs_p),
    "beta_vs_eps": ("eps", _CHANNEL_KEYS | {"p_dbm"}, _run_beta_vs_eps),
    "avg_rate_vs_eps": ("eps", _GEOMETRY_KEYS | {"k", "p_dbm", "tol"}, _run_avg_rate_vs_eps),
    "gain_vs_K": ("k", _GEOMETRY_KEYS | {"eps", "p_dbm", "tol"}, _run_gain_vs_k),
}
SWEEP_KINDS = tuple(_KINDS)


def run_sweep(spec: SweepSpec) -> list[AggregateResult]:
    """Execute a sweep; rows come back in deterministic axis-then-scheme order.

    A fixed key the kind reads but the spec lacks raises a ValueError naming both."""
    _, _, run = _KINDS[spec.kind]
    try:
        return run(spec)
    except KeyError as missing:
        raise ValueError(f"sweep kind {spec.kind!r} needs the fixed key {missing}") from None


def _fmt(value):
    return format(float(value), ".12g")


def _open_untruncated(path, flags):
    # open()'s own flags (O_CLOEXEC, O_BINARY on Windows) without O_TRUNC:
    # a rerun overwrites the old file from its start
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_results(rows: list[AggregateResult], path) -> None:
    """Serialize aggregate rows as CSV with a fixed header and fixed float
    formatting (12 significant digits), so reruns are byte-identical.

    An existing file is overwritten from its first byte and cut to the new
    length at the end, not truncated to zero first: on ext4 a truncate to zero
    makes the close start write-back of the new data, which costs more than
    the write. A rewrite stopped by a Python error still leaves only its new
    rows. A process killed before the cut, or a power loss, can instead leave
    bytes of the old file after (or in place of) the new rows, where
    truncating first could leave only an empty or short file."""
    with open(path, "w", newline="", opener=_open_untruncated) as fh:
        try:
            fh.write(",".join(CSV_HEADER) + "\n")
            for r in rows:
                fh.write(
                    f"{_fmt(r.x)},{r.scheme},{r.metric},{_fmt(r.value)},{_fmt(r.stderr)},"
                    f"{_fmt(r.feasible_frac)},{r.trials},{r.seed}\n"
                )
        finally:
            # a pipe, terminal or device has no length to cut
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def read_results(path) -> list[AggregateResult]:
    """Parse a results CSV back into aggregate rows."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        for rec in reader:
            rows.append(
                AggregateResult(
                    float(rec["x"]), rec["scheme"], rec["metric"], float(rec["value"]),
                    float(rec["stderr"]), float(rec["feasible_frac"]),
                    int(rec["trials"]), int(rec["seed"]),
                )
            )
    return rows
