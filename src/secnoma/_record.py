"""Immutable record classes.

`record` gives a class whose annotations name its fields: construction by
position or keyword, with the defaults as written, then `__post_init__`; a
`Name(field=value, ...)` repr; `==` only between instances of the same class,
by the field tuple, and the hash of that tuple; `__match_args__`; and an
AttributeError on assigning or deleting an attribute. The class is rebuilt
with `__slots__` naming its fields, so its instances carry no `__dict__`; its
defaults live only in `__init__`, which stores each field through its slot's
descriptor, with no name lookup. Pickling and `copy` reduce an instance to
its class and field tuple and rebuild it through `__init__`, so
`__post_init__` checks every copy. The five methods come from one `exec` per
class. The standard library's frozen-class decorator compiles six, one exec
each, and imports `inspect`: about 20 ms of every CLI process.
"""


class factory:
    """A field default made afresh for each instance by calling `make`."""

    def __init__(self, make):
        self.make = make


def _no_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple(cls.__annotations__)
    namespace = {"__name__": cls.__module__}
    params, body = [], []
    for name in names:
        param = value = name
        if name in cls.__dict__:
            default = namespace[f"_default_{name}"] = cls.__dict__[name]
            param = f"{name}=_default_{name}"
            if isinstance(default, factory):
                # the factory itself stands for "not given"
                value = f"_default_{name}.make() if {name} is _default_{name} else {name}"
        params.append(param)
        body.append(f"  _set_{name}(self, {value})\n")
    # a slot cannot share its name with a class attribute: the defaults leave the class
    attrs = {key: value for key, value in cls.__dict__.items() if key not in (*names, "__dict__", "__weakref__")}
    attrs.update(__slots__=names, __qualname__=cls.__qualname__)
    cls = type(cls)(cls.__name__, cls.__bases__, attrs)
    # each slot's own descriptor stores its field with no name lookup
    namespace.update((f"_set_{name}", cls.__dict__[name].__set__) for name in names)
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()\n")
    own = "".join(f"self.{name}," for name in names)
    other = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    exec(
        f"def __init__(self, {', '.join(params)}):\n{''.join(body)}"
        f"def __repr__(self):\n  return f'{{self.__class__.__qualname__}}({shown})'\n"
        "def __eq__(self, other):\n"
        f"  if other.__class__ is self.__class__:\n    return ({own}) == ({other})\n"
        "  return NotImplemented\n"
        f"def __hash__(self):\n  return hash(({own}))\n"
        f"def __reduce__(self):\n  return self.__class__, ({own})\n",
        namespace,
    )
    for method in ("__init__", "__repr__", "__eq__", "__hash__", "__reduce__"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls.__setattr__, cls.__delattr__ = _no_assign, _no_delete
    cls.__match_args__ = names
    return cls
