"""Entropy-based precision and recall between process models and event logs.

``import entroconf`` registers every layer (``automata``, ``formats``,
``measures``, ``petri``, ``stochastic``, and the private readers and
writers of ``formats``) but runs none; ``errors`` runs at once. A layer's
body is compiled and run on the first attribute access to its module, by
whatever route (``entroconf.Dfa``, ``import entroconf.petri``,
``vars(entroconf.petri)``): once, under one lock, so that threads share one
module object per layer and never read one half run. ``from . import petri``
binds a layer without running it, which is how the layers and the command
line reach each other, so a run compiles and runs only the layers it uses.
The public names below are bound on first access (PEP 562).
"""

import sys
from _thread import RLock
from importlib.util import find_spec, module_from_spec
from types import ModuleType

from . import errors

__version__ = "0.1.0"

# each public name by the module that defines it
_HOMES = {
    name: home
    for home, names in {
        "automata": (
            "UNBOUNDED", "Dfa", "EventLog", "Trace", "log_to_dfa", "product", "trim",
        ),
        "formats": (
            "Dfg", "load_artifact", "parse_dfg", "parse_pnml", "parse_sdfa", "parse_spnml",
            "parse_xes", "read_dfg", "serialize_dfg", "serialize_pnml", "serialize_sdfa",
            "serialize_spnml", "serialize_xes",
        ),
        "measures": (
            "EntropyValue", "PrecisionRecall", "controlled_partial_precision_recall",
            "exact_precision_recall", "partial_precision_recall", "spectral_radius",
            "topological_entropy",
        ),
        "petri": (
            "Marking", "PetriNet", "ReachabilityGraph", "StochasticPetriNet", "is_bounded",
            "reachability_graph", "rg_to_dfa", "stochastic_rg_to_sdfa",
        ),
        "stochastic": (
            "RelevanceValue", "Sdfa", "StochasticEntropy", "conjunction", "entropic_relevance",
            "log_to_sdfa", "sdfa_entropy", "stochastic_precision_recall", "trace_probability",
        ),
    }.items()
    for name in names
}

__all__ = sorted(["errors", *_HOMES])


# held while a layer's body runs: other threads wait, and the running
# thread's own accesses (the loader's, the body's) read the module as it is
_running_lock = RLock()
_running: set[ModuleType] = set()


class _Deferred(ModuleType):
    """A registered layer whose body has not run yet."""

    def __getattribute__(self, attr):
        with _running_lock:
            if type(self) is _Deferred and self not in _running:
                _running.add(self)
                try:
                    ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                finally:
                    _running.discard(self)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


def _lazy(name: str) -> ModuleType:
    """entroconf.<name>, bound here: as imported, or registered to run on first access."""
    qualified = f"{__name__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        module = module_from_spec(find_spec(qualified))
        module.__class__ = _Deferred
        sys.modules[qualified] = globals()[name] = module
    return module


# every layer is registered while the package is imported, under the
# package's import lock, so no thread can import a layer before that; so are
# the readers and writers that formats reaches on first use
for _home in sorted({*_HOMES.values(), "_lines", "_pnml", "_writers"}):
    _lazy(_home)
del _home


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
