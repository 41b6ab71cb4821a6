"""Non-Hermitian skin-effect toolkit.

Submodules load lazily, so that each command of the CLI loads only the
modules it runs and the package root stays import-light.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "errors",
    "io",
    "model",
    "realspace",
    "spectral",
    "topology",
    "localization",
    "nonbloch",
    "response",
    "cli",
)


def __getattr__(name):
    if name in _SUBMODULES:
        mod = import_module(f".{name}", __name__)
        globals()[name] = mod
        return mod
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
