"""Shared records used by all pipelines and the CLI: the immutable value
base and the HHReport."""

from __future__ import annotations

from typing import Optional


class Frozen:
    """Base of the validated value types, whose fields are its `__slots__`.

    An instance equals only an instance of the same class with equal
    fields, hashes by its fields, and refuses assignment once built:
    `__init__` validates, then sets the fields with `Frozen.__init__`.
    The hash is kept in `_hash`, not a field, from the first `__hash__`.
    """

    __slots__ = ("_hash",)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values())
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which assignment would refuse
        return type(self), self._values()


class HHReport(Frozen):
    """One computed Hochschild cohomology dimension.

    method is "ginzburg" (small complex on the dg algebra), "trace"
    (preprojective trace space), or "zigzag" (reduced bar complex).
    Representatives, when present, are printable basis-word names whose
    classes span the group.
    """

    __slots__ = ("p", "q", "method", "dimension", "representatives")
    p: int
    q: int
    method: str
    dimension: int
    representatives: Optional[tuple[str, ...]]

    def __init__(self, p: int, q: int, method: str, dimension: int,
                 representatives: Optional[tuple[str, ...]] = None):
        if dimension < 0:
            raise ValueError("negative dimension")
        super().__init__(p, q, method, dimension, representatives)
