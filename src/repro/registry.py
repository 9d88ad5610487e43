"""Named component registries: the lookup layer of the declarative API.

The declarative pipeline specs (:mod:`repro.specs`) describe *what* to run
as data — ``{"name": "token_overlap", "params": {"top_n": 5}}`` — and the
registries resolve those names to component factories.  Three registries
cover the pipeline's pluggable axes:

* **blockings** (:data:`BLOCKINGS`, :func:`register_blocking`) — candidate
  pair generators, keyed by the same name the blocking stamps on its
  candidates (``id_overlap``, ``token_overlap``, ``issuer_match``),
* **matchers** (:data:`MATCHERS`, :func:`register_matcher`) — pairwise
  matcher factories keyed by model *kind* (``transformer``, ``logistic``,
  ``id-overlap``); the named model zoo of
  :data:`repro.matching.models.MODEL_SPECS` layers on top,
* **cleanups** (:data:`CLEANUPS`, :func:`register_cleanup`) — graph clean-up
  strategies ``(edges, config) -> (components, report)`` (``gralmatch``,
  ``bridge_removal``, ``adaptive``).

Third-party components register with the decorators and become available to
every spec by name::

    from repro.registry import register_blocking
    from repro.blocking.base import Blocking

    @register_blocking("name_prefix")
    class NamePrefixBlocking(Blocking):
        name = "name_prefix"

        def prepare(self, dataset): ...                 # global index, built once
        def candidates_for(self, shared, records): ...  # score one record span

A blocking implements :meth:`~repro.blocking.base.Blocking.prepare` and
:meth:`~repro.blocking.base.Blocking.candidates_for`; the base class
derives ``candidate_pairs``, the per-record ``owned_candidates`` and a
rebuild-everything ``delta_update`` from them.

Built-in components live in modules that are only imported on demand, so
the registries stay import-cycle-free and lookups stay lazy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any, TypeVar

FactoryT = TypeVar("FactoryT", bound=Callable[..., Any])


class RegistryError(LookupError):
    """Raised for unknown or duplicate component names."""


class ComponentRegistry:
    """A name → factory mapping with helpful failure modes.

    ``kind`` labels error messages (e.g. ``"blocking"``); ``builtins`` names
    the modules whose import registers the built-in components, resolved
    lazily on first lookup so registration never forces eager imports.
    """

    def __init__(self, kind: str, builtins: Iterable[str] = ()) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}
        self._builtin_modules = tuple(builtins)
        self._builtins_loaded = False

    # -- registration -------------------------------------------------------

    def register(self, name: str) -> Callable[[FactoryT], FactoryT]:
        """Decorator registering ``factory`` under ``name``.

        Duplicate names are rejected — shadowing a registered component
        silently would make specs mean different things in different import
        orders.  Use :meth:`unregister` first to deliberately replace one.
        The built-in modules are imported before the duplicate check so that
        shadowing a builtin fails *here*, at the offending registration, not
        later from inside an unrelated lookup.  (Re-entrant registrations
        from those imports are safe: the loaded flag is set first.)
        """
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string")
        self._load_builtins()

        def decorator(factory: FactoryT) -> FactoryT:
            if name in self._factories:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered "
                    f"(to {self._factories[name]!r}); unregister it first "
                    f"to replace it"
                )
            self._factories[name] = factory
            return factory

        return decorator

    def unregister(self, name: str) -> None:
        """Remove ``name`` (KeyError via :class:`RegistryError` if absent)."""
        self._load_builtins()
        if name not in self._factories:
            raise RegistryError(self._unknown_message(name))
        del self._factories[name]

    # -- lookup -------------------------------------------------------------

    def get(self, name: str) -> Callable[..., Any]:
        """Return the factory registered under ``name``."""
        self._load_builtins()
        try:
            return self._factories[name]
        except KeyError:
            raise RegistryError(self._unknown_message(name)) from None

    def create(self, name: str, /, **params: Any) -> Any:
        """Instantiate the component ``name`` with keyword ``params``."""
        factory = self.get(name)
        try:
            return factory(**params)
        except TypeError as error:
            raise RegistryError(
                f"invalid params for {self.kind} {name!r}: {error}"
            ) from error

    def names(self) -> list[str]:
        """Sorted names of every registered component."""
        self._load_builtins()
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        self._load_builtins()
        return name in self._factories

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentRegistry({self.kind!r}, names={self.names()})"

    # -- internals ----------------------------------------------------------

    def _unknown_message(self, name: str) -> str:
        registered = ", ".join(repr(n) for n in sorted(self._factories)) or "none"
        return f"unknown {self.kind} {name!r}; registered: {registered}"

    def _load_builtins(self) -> None:
        if self._builtins_loaded:
            return
        import sys

        # A builtin module that is itself mid-import (its decorators are
        # running right now) may not have defined all its names yet, so
        # importing its siblings here could read partially initialized
        # modules.  Defer — the next lookup retries, and by then the
        # in-flight import has finished.
        for module in self._builtin_modules:
            existing = sys.modules.get(module)
            spec = getattr(existing, "__spec__", None)
            if existing is not None and getattr(spec, "_initializing", False):
                return
        self._builtins_loaded = True
        from importlib import import_module

        for module in self._builtin_modules:
            import_module(module)


#: Candidate pair generators (see :mod:`repro.blocking`).
BLOCKINGS = ComponentRegistry(
    "blocking",
    builtins=(
        "repro.blocking.id_overlap",
        "repro.blocking.token_overlap",
        "repro.blocking.issuer_match",
        "repro.blocking.combine",
    ),
)

#: Pairwise matcher factories by model kind (see :mod:`repro.matching.models`).
MATCHERS = ComponentRegistry("matcher", builtins=("repro.matching.models",))

#: Graph clean-up strategies ``(edges, config) -> (components, report)``.
CLEANUPS = ComponentRegistry(
    "cleanup",
    builtins=("repro.core.cleanup", "repro.core.cleanup_variants"),
)


def register_blocking(name: str):
    """Register a :class:`~repro.blocking.base.Blocking` factory under ``name``."""
    return BLOCKINGS.register(name)


def register_matcher(name: str):
    """Register a pairwise matcher factory under model-kind ``name``."""
    return MATCHERS.register(name)


def register_cleanup(name: str):
    """Register a clean-up strategy ``(edges, config) -> (components, report)``."""
    return CLEANUPS.register(name)
