"""Every memo of ``viewflux`` sits in one of two tiers on purpose.

A per-pass memo (``morphisms.per_pass``) holds arrows, or results keyed on
arrows or on an arrow lookup (the pullback kernel's mediator tables and pair
steps), and is emptied by ``morphisms.clear_arrows`` when a law pass starts;
a process memo holds values (closed sets, relations, instances) and lives as
long as the process.  A new ``lru_cache`` fails this test until it is listed
here.  Two plain tables in ``closure`` are not memos: ``_serial``, the bit of
each support row, which only grows, and ``_closed``, the one closed set of
each mask, which the tests empty with the process memos.
"""

import importlib
import pkgutil

import viewflux
from viewflux import morphisms

PER_PASS = {
    "viewflux.morphisms.compose",
    "viewflux.catops.merge_arrow",
    "viewflux.catops.arrow_coproduct",
    "viewflux.catops.copair",
    "viewflux.topos._mediators",
    "viewflux.topos._combined_legs",
}

PROCESS = {
    "viewflux.core.universe_relations",
    "viewflux.closure._power_view_cached",
    "viewflux.closure._matching_cached",
    "viewflux.closure._closed_subsets_cached",
    "viewflux.catops._merging_cached",
    "viewflux.catops._retag",
    "viewflux.catops._coproduct_cached",
    "viewflux.catops.tagged_flux",
}


def _name(memo) -> str:
    return f"{memo.__module__}.{memo.__qualname__}"


def _memos() -> set[str]:
    """The qualified name of each object with ``cache_info`` bound in a module."""
    found = set()
    for info in pkgutil.iter_modules(viewflux.__path__):
        module = importlib.import_module(f"viewflux.{info.name}")
        found.update(_name(value) for value in vars(module).values() if hasattr(value, "cache_info"))
    return found


def test_per_pass_registry_is_the_arrow_constructors_and_pullback_steps():
    registry = [_name(memo) for memo in morphisms._pass_memos]
    assert len(registry) == len(PER_PASS) and set(registry) == PER_PASS


def test_every_memo_is_per_pass_or_per_process():
    assert len(PROCESS) == 8 and not PROCESS & PER_PASS
    assert _memos() == PER_PASS | PROCESS
