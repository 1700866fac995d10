"""Benchmark-lite toolkit: coreset selection, contamination scanning, score aggregation."""

__version__ = "0.1.0"


class CoreliteError(Exception):
    """Data or content error (CLI exit code 1)."""


class Record:
    """Immutable record whose fields are its class's `__slots__`, given in order or
    by keyword; one left out takes its `_defaults` factory's value. `_check` then
    validates them, and may replace one through `object.__setattr__`. It stands in
    for `dataclasses`, whose import (with `inspect` and `ast`) costs a process
    about 1 MiB and 10 ms.
    """

    __slots__ = ()
    _defaults: dict = {}  # field name -> zero-argument factory of its default

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # fields by keyword or left to defaults
            given = dict(zip(names, args), **kwargs)
            known = given.keys() <= set(names) <= given.keys() | self._defaults.keys()
            if not known or len(given) != len(args) + len(kwargs):  # too many, or one twice
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args = [given[n] if n in given else self._defaults[n]() for n in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Validate or convert the fields; the base accepts any values."""

    @classmethod
    def _unchecked(cls, *values):  # fields in order, already checked: no `_check`
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def __reduce__(self):  # copy and pickle: the same fields, not checked again
        return self._unchecked, self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        """Fields by name; records and dicts within them become dicts, for JSON."""
        return {name: _plain(getattr(self, name)) for name in self.__slots__}


def _plain(value):
    if isinstance(value, Record):
        return value._asdict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value
