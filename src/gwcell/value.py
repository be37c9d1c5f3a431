"""The equality contract shared by gwcell's value classes, their int rule and their lazy attribute."""

from operator import index


class Value:
    """Base of the value classes: equality and hash by class and fields.

    A value compares equal only to an instance of its own class whose
    ``_values()`` tuple is equal, and hashes as that tuple.  Each class
    names the fields its equality reads once, in ``_values``.  The classes
    are plain classes, not dataclasses, so that importing the package
    stays cheap.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def exact_ints(what: str, *values) -> tuple[int, ...]:
    """``values`` as exact ``int``s through ``operator.index``; a float is a ``ValueError``, as the writer's ``%d`` would truncate it."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


class read_once:
    """A lazy attribute: the first read stores the value on the instance, like the standard library's cached property without the lock it takes before Python 3.12."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value
