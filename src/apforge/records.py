"""The base of the records that are plain classes rather than NamedTuples,
because a record checks itself (`curves.HyperCurve`), caches a value
(`HyperCurve.model`, `parametrize.Branch.int_forms`) or accumulates
(`cli.RunReport.records`).

A subclass names its fields in `_fields` and sets them in `__init__`; it is
then compared, hashed, printed and copied (`_asdict`, `_replace`) by those
fields in that order, as a NamedTuple is.  A `FrozenRecord` sets its fields
once through `__dict__` and refuses any assignment after; a cached property
writes to `__dict__` too, so it still caches.
"""

from __future__ import annotations


class Record:
    _fields: tuple = ()

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
