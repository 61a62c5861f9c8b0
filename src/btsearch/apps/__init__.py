"""Bundled applications and the name registry the CLI dispatches on."""

from __future__ import annotations

from typing import Any

from ..search_api import Application


def build_application(name: str, **options: Any) -> Application:
    """Construct a bundled application by name.

    Options are application-specific (``prune`` and ``count_only`` for the
    enumeration apps; ``budget_kind`` for sat, whose jobs always branch by
    activity and start afresh at their assumption).
    """
    if name == "topsorts":
        from .topsorts import TopsortsApplication

        return TopsortsApplication(**options)
    if name == "spantree":
        from .spantree import SpantreeApplication

        return SpantreeApplication(**options)
    if name == "gwtree":
        from .gwtree import GWTreeApplication

        return GWTreeApplication(**options)
    if name == "sat":
        from .sat.app import SatApplication

        return SatApplication(**options)
    raise KeyError(f"unknown application {name!r}")


APPLICATION_NAMES = ("topsorts", "spantree", "gwtree", "sat")
