"""Exception types shared across the package, and its lazy imports.

Library code raises UserInputError for domain rejections (bad sizes,
out-of-range shifts, unsupported parameter combinations) so the CLI can
map them to a usage-error exit code without pattern-matching messages.
CertificationError marks a failed verification: a bound that did not
hold, a cross-check that disagreed, a suite that found a counterexample.

Every module that needs mpmath or numpy imports this one, so the lazy
stand-in for them lives here too.
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
