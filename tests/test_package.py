"""The package namespace: every public name resolves on first use, and the
names `__all__`, `dir()` and `import *` show are frozen. The result types are
immutable records that behave as they always have."""
import copy
import importlib
import json
import pickle
import subprocess
import sys
from types import MemberDescriptorType

import pytest

import secnoma
from secnoma._record import factory, record

PUBLIC = [
    "AggregateResult", "ChannelRealization", "InfeasibleReason", "InfeasibleVerdict", "MaxMinComparison",
    "MaxMinSolution", "NetworkGeometry", "PowerAllocation", "PowerMinSolution", "RatePair",
    "RateRegionBoundary", "SecrecyRequirement", "SweepAxis", "SweepSpec", "TdmaMaxMin", "TdmaMinPower",
    "TimeAllocation", "UserSelection", "bound_triple", "channel", "check_positive_rate_feasibility",
    "compare_maxmin", "constraint_ratio", "db_to_linear", "dbm_to_mw", "eaves_sinr", "experiments",
    "linear_to_db", "max_codeword_rate", "maxmin", "mw_to_dbm", "noma_rate_region_boundary",
    "optimal_decoding_order", "optimal_power_ratio_user1", "power_min", "read_results", "run_sweep",
    "sample_realization", "sample_trial_gains", "secrecy", "secrecy_outage_closed_form",
    "secrecy_outage_for_order", "select_users", "sinr_cross_message", "sinr_own_message",
    "solve_maxmin_bisection", "solve_maxmin_two_user", "solve_min_power", "tdma", "tdma_maxmin",
    "tdma_min_power", "tdma_user_rate", "trial_seeds", "write_results",
]
SUBMODULES = ("channel", "experiments", "maxmin", "power_min", "secrecy", "tdma")

# a fresh interpreter: the loaded modules and public names after a bare
# import, after `import *`, and the names the star import bound
_PROBE = """\
import json, sys
import secnoma

def state():
    modules = sorted(m for m in sys.modules if m.split(".")[0] == "secnoma")
    return [modules, [n for n in dir(secnoma) if not n.startswith("_")]]

before = state()
namespace = {}
exec("from secnoma import *", namespace)
print(json.dumps([secnoma.__all__, before, state(), sorted(n for n in namespace if n != "__builtins__")]))
"""


def test_public_names_are_frozen():
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names, before, after, starred = json.loads(proc.stdout)
    assert len(PUBLIC) == 54
    assert names == PUBLIC
    assert before == [["secnoma"], PUBLIC]  # a bare import loads nothing
    # every public module, but not the fading draw (`_draw`) or the row
    # solvers (`_rows`): those load on first use
    private = ["secnoma", "secnoma._lazy", "secnoma._record"]
    assert after == [sorted(private + [f"secnoma.{m}" for m in SUBMODULES]), PUBLIC]
    assert starred == PUBLIC


def test_each_name_is_its_module_attribute():
    for name in PUBLIC:
        value = getattr(secnoma, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"secnoma.{name}")
        else:
            assert value.__module__.startswith("secnoma.")
            assert value is getattr(importlib.import_module(value.__module__), name)
        assert vars(secnoma)[name] is value  # cached after the first lookup


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        secnoma.no_such_name  # noqa: B018
    assert not hasattr(secnoma, "__wrapped__")


# repr texts the result types have always printed
_REPRS = {
    "SweepSpec(kind='avg_rate_vs_eps', axis=SweepAxis(name='eps', start=0.05, stop=0.45, steps=9), "
    "fixed={}, trials=1, seed=0)": lambda: secnoma.SweepSpec("avg_rate_vs_eps", secnoma.SweepAxis("eps", 0.05, 0.45, 9)),
    "SweepSpec(kind='rate_vs_P', axis=SweepAxis(name='p_dbm', start=0, stop=30, steps=4), "
    "fixed={'eps': 0.3, 'k': 2}, trials=3, seed=7)": lambda: secnoma.SweepSpec(
        seed=7, trials=3, fixed={"eps": 0.3, "k": 2}, axis=secnoma.SweepAxis("p_dbm", 0, 30, 4), kind="rate_vs_P"
    ),
    "AggregateResult(x=0.1, scheme='noma', metric='avg_min_rate', value=1.25, stderr=0.01, "
    "feasible_frac=0.5, trials=500, seed=11)": lambda: secnoma.AggregateResult(
        0.1, "noma", "avg_min_rate", 1.25, 0.01, 0.5, 500, 11
    ),
    "InfeasibleVerdict(failing_user_indices=frozenset({1, 2}), "
    "reason=<InfeasibleReason.POSITIVE_RATE: 'positive_rate'>)": lambda: secnoma.InfeasibleVerdict(
        frozenset({1, 2}), secnoma.InfeasibleReason.POSITIVE_RATE
    ),
    "UserSelection(selected_users=(2,), solution=PowerMinSolution(allocation=PowerAllocation("
    "powers_mw=(1.0,)), rate_pairs=(RatePair(codeword_rate=1.5, confidential_rate=1.0),), "
    "total_power_mw=1.0))": lambda: secnoma.UserSelection(
        (2,), secnoma.PowerMinSolution(secnoma.PowerAllocation((1.0,)), (secnoma.RatePair(1.5, 1.0),), 1.0)
    ),
    "TdmaMaxMin(rate=0.3, time=TimeAllocation(fractions=(0.5, 0.5)))": lambda: secnoma.TdmaMaxMin(
        0.3, secnoma.TimeAllocation((0.5, 0.5))
    ),
}


@pytest.mark.parametrize("text", _REPRS)
def test_result_types_are_immutable_records(text):
    value, twin = _REPRS[text](), _REPRS[text]()
    names = type(value).__match_args__
    fields = tuple(getattr(value, name) for name in names)
    assert repr(value) == text
    assert value == twin and not value != twin and value is not twin
    assert value != fields  # only the same class compares equal
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value) and clone == value and repr(clone) == text
    if isinstance(value, secnoma.SweepSpec):
        # its `fixed` dict makes a spec unhashable
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(fields)
    for name in (names[0], "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


def test_records_match_by_position():
    result = secnoma.TdmaMaxMin(0.3, secnoma.TimeAllocation((0.5, 0.5)))
    match result:
        case secnoma.TdmaMaxMin(rate, secnoma.TimeAllocation(fractions)):
            assert (rate, fractions) == (0.3, (0.5, 0.5))
        case _:
            pytest.fail(f"{result!r} did not match by position")
    assert secnoma.SweepSpec.__match_args__ == ("kind", "axis", "fixed", "trials", "seed")


def test_records_construct_as_written():
    axis = secnoma.SweepAxis("eps", 0.05, 0.45, 9)
    spec = secnoma.SweepSpec("avg_rate_vs_eps", axis)
    keyword = secnoma.SweepSpec(kind="avg_rate_vs_eps", axis=axis)
    written = secnoma.SweepSpec(kind="avg_rate_vs_eps", axis=axis, fixed={}, trials=1, seed=0)
    for value in (spec, keyword):
        assert value == written and (value.fixed, value.trials, value.seed) == ({}, 1, 0)
    # each spec without `fixed` gets a dict of its own
    assert len({id(value.fixed) for value in (spec, keyword, written)}) == 3
    assert spec.fixed is not secnoma.SweepSpec("avg_rate_vs_eps", axis).fixed
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'axis'"):
        secnoma.SweepSpec("avg_rate_vs_eps")
    with pytest.raises(TypeError, match="got multiple values for argument 'codeword_rate'"):
        secnoma.RatePair(1.0, codeword_rate=2.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'rate'"):
        secnoma.RatePair(codeword_rate=1.0, rate=1.0)
    # __post_init__ runs on every construction
    with pytest.raises(ValueError, match="need 0 <= confidential rate <= codeword rate"):
        secnoma.RatePair(confidential_rate=2.0, codeword_rate=1.0)
    # equality needs the same class, not equal fields
    assert secnoma.PowerAllocation((1.0,)) != secnoma.TimeAllocation((1.0,))
    assert secnoma.RatePair(1, 1) == secnoma.RatePair(1.0, 1.0)


def _record_samples():
    """An instance of every public record type: the repr table's values,
    what a worked two-user instance's designs return, and every record
    these hold in a field."""
    channel = secnoma.ChannelRealization((5.0, 10.0), 1.0)
    found, todo = [], [
        *(make() for make in _REPRS.values()),
        channel,
        secnoma.NetworkGeometry((50.0, 60.0), 80.0, 4.0, 1e-7, 1e-7),
        secnoma.SecrecyRequirement(1.0, 0.3),
        secnoma.compare_maxmin(channel, 0.3, 1.0),
        secnoma.solve_maxmin_bisection(channel, 0.3, 1.0),
        secnoma.tdma_min_power(channel, 1.0, 0.3),
        secnoma.noma_rate_region_boundary(channel, 0.3, 1.0, samples=5),
    ]
    while todo:
        value = todo.pop()
        if hasattr(type(value), "__match_args__"):
            found.append(value)
            fields = [getattr(value, name) for name in value.__match_args__]
            todo += [item for field in fields for item in (field if type(field) is tuple else (field,))]
    return found


def test_records_store_their_fields_in_slots():
    samples = _record_samples()
    types = {type(value) for value in samples}
    assert sorted(cls.__name__ for cls in types) == [
        name for name in PUBLIC if hasattr(getattr(secnoma, name), "__match_args__")
    ]
    for value in samples:
        cls, fields = type(value), tuple(getattr(value, name) for name in value.__match_args__)
        # pickle and copy rebuild an instance from this, through __init__
        assert value.__reduce__() == (cls, fields)
        assert cls.__slots__ == cls.__match_args__
        assert not hasattr(value, "__dict__")
        # the class keeps no default: each field name is its slot
        assert all(type(vars(cls)[name]) is MemberDescriptorType for name in cls.__match_args__)


class _Unchecked:
    """Pickles as RatePair(1.0, 2.0), which __post_init__ rejects."""

    def __reduce__(self):
        return secnoma.RatePair, (1.0, 2.0)


def test_unpickling_runs_the_constructor_checks():
    payload = pickle.dumps(_Unchecked())
    with pytest.raises(ValueError, match="need 0 <= confidential rate <= codeword rate"):
        pickle.loads(payload)


@record
class _Pair:
    """A stand-in record with no defaults."""

    left: int
    right: tuple

    def __post_init__(self):
        if self.left < 0:
            raise ValueError("left must be nonnegative")

    def total(self):
        return self.left + sum(self.right)


@record
class _Defaults:
    """A stand-in record with defaults."""

    name: str
    extra: dict = factory(dict)
    count: int = 2

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")


def test_record_on_stand_in_classes(monkeypatch):
    # the decorator alone, on classes of this module: slots with or without
    # defaults, and pickle, copy and deepcopy through the constructor
    pair = _Pair(1, (2, 3))
    assert repr(pair) == "_Pair(left=1, right=(2, 3))" and pair.total() == 6
    assert _Pair.__slots__ == _Pair.__match_args__ == ("left", "right")
    assert not hasattr(pair, "__dict__") and pair.__reduce__() == (_Pair, (1, (2, 3)))
    checked = []
    monkeypatch.setattr(_Pair, "__post_init__", lambda self: checked.append(self.left))
    for clone in (_Pair(1, (2, 3)), pickle.loads(pickle.dumps(pair)), copy.copy(pair), copy.deepcopy(pair)):
        assert type(clone) is _Pair and clone == pair and clone is not pair
    assert checked == [1, 1, 1, 1]
    for name in ("left", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(pair, name, 2)
    spec = _Defaults("a")
    assert repr(spec) == "_Defaults(name='a', extra={}, count=2)"
    assert _Defaults.__slots__ == _Defaults.__match_args__ == ("name", "extra", "count")
    assert not hasattr(spec, "__dict__") and spec.__reduce__() == (_Defaults, ("a", {}, 2))
    assert spec.extra is not _Defaults("a").extra and _Defaults("b", count=0).extra == {}
    with pytest.raises(ValueError, match="count must be nonnegative"):
        _Defaults("a", count=-1)
    checked.clear()
    monkeypatch.setattr(_Defaults, "__post_init__", lambda self: checked.append(self.name))
    clones = pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)
    for clone in clones:
        assert type(clone) is _Defaults and clone == spec and clone is not spec
    assert checked == ["a", "a", "a"]
    # a shallow copy shares the field values; a deep copy does not
    assert clones[1].extra is spec.extra and clones[2].extra is not spec.extra

    @record
    class Local:
        """A record made inside a function keeps its qualified name."""

        value: float

    assert repr(Local(1.0)) == "test_record_on_stand_in_classes.<locals>.Local(value=1.0)"


@pytest.mark.parametrize("name", [n for n in PUBLIC if n[0].isupper() and n != "InfeasibleReason"])
def test_each_result_type_has_a_docstring(name):
    assert getattr(secnoma, name).__doc__.strip()
