"""Size limits and run configuration.

All exact routines are exponential somewhere, so each refuses to start
past a size cap rather than run unbounded.  Limits holds the four caps
that report, search and the command line take from a ToolConfig; all
but search_space are also the defaults of their routines' own limit
arguments.  Every other cap is fixed in the module that enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VERSION", "Limits", "LIMITS", "ToolConfig"]

VERSION = "0.1.0"


@dataclass(frozen=True)
class Limits:
    # columns for the exact max-solution search
    opt_n: int = 16
    # total stars for completion enumeration and enumeration-based
    # oracles, and starred lines for max_rank's line-cover scan
    stars: int = 24
    # rows (after deduplication) for the row/column minimum-rank search
    subset_rows: int = 20
    # matrices for an exhaustive search sweep
    search_space: int = 10_000_000


LIMITS = Limits()


@dataclass(frozen=True)
class ToolConfig:
    """Knobs shared by report, search and the command line tools: size
    limits, the random search's seed, the search log path, and the
    epsilon below which a search record is flagged.  Deadlines are not
    part of it; the routines that honour one take it as an argument."""

    limits: Limits = LIMITS
    seed: int | None = None
    out: str | None = None
    # a search record whose epsilon drops below this value gets flagged
    epsilon_alarm: float = 0.5
