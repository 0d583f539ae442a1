"""Frozen records: the base of gfl's parameter, model and result types.

A record declares its fields as class annotations, in constructor order; a
field given a value in the class body takes that value as its default.  The
constructor binds the fields by position or keyword, stores each in the
instance's ``__dict__`` (so ``vars(record)`` holds exactly the fields) and
then runs the class's ``_check``.  A record that converts its arguments, or
is built once per fit, defines its own ``__init__``, which writes its
``__dict__`` directly.

Assigning or deleting an attribute raises ``AttributeError``, and ``repr``
reads ``Name(field=value, ...)``.  A ``Record`` compares and hashes by
identity: the records that hold numpy arrays or dicts, which have no usable
``==`` or hash.  A ``Value`` compares and hashes by its fields.  Every method
here is an ordinary function, so defining a record generates no code.
"""

from __future__ import annotations


class Record:
    """A frozen record that compares by identity."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        values = self.__dict__
        for name, value in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs[name]
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        self._check()

    def _check(self) -> None:
        """Validate the fields; a record with constraints overrides this."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        values = self.__dict__
        fields = ", ".join(f"{name}={values[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A frozen record that compares and hashes by its fields."""

    def _key(self) -> tuple:
        values = self.__dict__
        return tuple(values[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())
