"""Exception types shared across the package, and its lazy imports.

Library code raises UserInputError for domain rejections (bad sizes,
out-of-range shifts, unsupported parameter combinations) so the CLI can
map them to a usage-error exit code without pattern-matching messages.
CertificationError marks a failed verification: a bound that did not
hold, a cross-check that disagreed, a suite that found a counterexample.

Every module that needs mpmath or numpy imports this one, so the lazy
stand-in for them lives here too, and so does the base of the result
records.
"""

import importlib


class UserInputError(ValueError):
    """Invalid input rejected by a precondition check."""


class CertificationError(RuntimeError):
    """A verification suite or certified bound failed to hold."""


class _LazyModule:
    """A module imported at its first attribute use, then bound in its place.

    `np = _LazyModule("numpy", "np", globals())` leaves numpy unimported
    until the module's code first reads `np.<attr>`. That read imports
    numpy and rebinds `np` in the importer's globals, so every later read
    is a plain global lookup. Commands that never reach such a read skip
    the import's time and memory.
    """

    __slots__ = ("_name", "_alias", "_namespace")

    def __init__(self, name: str, alias: str, namespace: dict) -> None:
        self._name, self._alias, self._namespace = name, alias, namespace

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._name)
        self._namespace[self._alias] = module
        return getattr(module, attr)


class _Record:
    """Base of the result records: a frozen dataclass without `dataclasses`,
    whose import loads inspect, dis, ast and tokenize. The fields are the
    class annotations, in order; a class attribute of a field's name is
    its default. Records compare, hash and iterate by field, but are not tuples.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._required = frozenset(name for name in cls._fields if name not in cls.__dict__)

    def __init__(self, *args, **kwargs) -> None:
        values = zip(self._fields, args)
        if kwargs or len(args) != len(self._fields):  # else every field comes by position
            values = dict(values, **kwargs)
            # Fewer values than arguments: too many positionals, or a field passed twice.
            if len(values) < len(args) + len(kwargs) or not (
                self._required <= values.keys() <= set(self._fields)
            ):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __iter__(self):
        return (getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return tuple(self) == tuple(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})
