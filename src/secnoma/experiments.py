"""Reproducible parameter sweeps and their CSV serialization.

A sweep is a declarative spec: what to vary, what stays fixed, how many
fading trials, which seed. Running it yields one aggregate row per
(axis point, scheme, metric); writing the table twice from the same spec
produces byte-identical files.
"""
from __future__ import annotations

import math
import numbers
import os
import stat

from ._record import factory, record
from .channel import _GEOMETRY_KEYS, ChannelRealization, _geometry, _require_integer, db_to_linear, dbm_to_mw
from .channel import sample_trial_gains, trial_seeds
from .maxmin import DEFAULT_TOL, MaxMinSolution, optimal_power_ratio_user1, solve_maxmin_bisection
from .power_min import PowerMinSolution, solve_min_power
from .secrecy import SecrecyRequirement, _stringency

CSV_HEADER = ("x", "scheme", "metric", "value", "stderr", "feasible_frac", "trials", "seed")

# keys that are whole numbers by nature
_INT_KEYS = {"k"}

# the fixed keys that set a fixed channel (a fading geometry's are channel._GEOMETRY_KEYS)
_CHANNEL_KEYS = {"k", "gain_base_db", "gain_slope_db", "gamma_e_db"}


@record
class SweepAxis:
    """The varied parameter: `steps` evenly spaced points from `start` to `stop`."""

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
            # a step that rounds to 0: linspace scales the fraction instead
            points = [i / div * delta + self.start for i in range(self.steps)]
        else:
            points = [i * step + self.start for i in range(self.steps)]
        points[-1] = float(self.stop)
        return points


def _take(data, key, parse, *default):
    """Pop a config key and parse its text with `parse`, int or float; an error names the key."""
    raw = data.pop(key, *default)
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{key} must be {'an integer' if parse is int else 'a number'}, not {raw!r}") from None


@record
class SweepSpec:
    """A sweep: its kind, the axis it varies, fixed keys, fading trials per point and seed."""

    kind: str
    axis: SweepAxis
    fixed: dict[str, float] = factory(dict)
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
                _take(data, "axis_start", float),
                _take(data, "axis_stop", float),
                _take(data, "axis_steps", int),
            )
        except KeyError as missing:
            raise ValueError(f"sweep config is missing required key {missing}") from None
        # int, not float, for the counts: a float would round a seed near 2**64
        trials = _take(data, "trials", int, 1)
        seed = _take(data, "seed", int, 0)
        fixed = {}
        for key in tuple(data):
            value = _take(data, key, float)
            # a fractional count is kept as it is, for __post_init__ to reject
            fixed[key] = int(value) if key in _INT_KEYS and value.is_integer() else value
        return cls(kind, axis, fixed, trials, seed)


@record
class AggregateResult:
    """One CSV row: a scheme's metric at axis point x, averaged over the trials, with its
    standard error and the fraction of trials that were feasible."""

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
    # imported here and in _run_rate_vs_p, the only runners that call tdma:
    # the power split and the fading sweeps never compile it
    from .tdma import TdmaMinPower, tdma_min_power

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
    from .tdma import tdma_maxmin

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


def _run_avg_rate_vs_eps(spec):
    from ._rows import _avg_rate_rows, _bracket_tops, _maxmin_rates_per_trial

    num = int(spec.fixed.get("k", 2))
    geometry = _geometry(spec.fixed, num)
    p = dbm_to_mw(spec.fixed["p_dbm"])
    tol = spec.fixed.get("tol", DEFAULT_TOL)
    # one realization per trial, shared across axis points: the eps trend is
    # then a per-trial monotone map and the average inherits it
    gains = sample_trial_gains(geometry, trial_seeds(spec.seed, spec.trials))
    # and so is each trial's bracket top, taken once, not per point
    tops = _bracket_tops(gains[:, 0], p)
    eps_values = spec.axis.values()
    points = ((gains, _stringency(geometry.eaves_avg_gain(), eps), tops) for eps in eps_values)
    rows = []
    for eps, (rates, feasible) in zip(eps_values, _maxmin_rates_per_trial(points, p, tol)):
        _avg_rate_rows(rows, eps, spec, rates, feasible)
    return rows


def _run_gain_vs_k(spec):
    from ._draw import _exponentials, _gains_from_draws, _trial_uniforms
    from ._rows import _avg_rate_rows, _maxmin_rates_per_trial

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
    # count, transformed once, serves every K through its column prefix, and
    # adjacent K share noise
    draws = _exponentials(_trial_uniforms(trial_seeds(spec.seed, spec.trials), max(counts)))

    def point(num):
        geometry = _geometry(spec.fixed, num)
        return _gains_from_draws(geometry, draws), _stringency(geometry.eaves_avg_gain(), eps)

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
    # imported here only: a sweep just writes, and write_results formats its rows
    import csv

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
