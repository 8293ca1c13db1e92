"""Run configuration.

All exact routines are exponential somewhere, so each refuses to start
past a size cap rather than run unbounded.  Every cap is fixed in the
module that enforces it, except opt_exact's column limit, which report,
search and the command line (`--limit-n`) take from ToolConfig.opt_n.
The epsilon alarm is a class constant, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .solutions import _OPT_N

__all__ = ["VERSION", "ToolConfig"]

VERSION = "0.1.0"


@dataclass(frozen=True)
class ToolConfig:
    """Settings shared by report, search and the command line tools:
    opt_exact's column limit, the random search's seed and the search
    log path.  Deadlines are not part of it; the routines that honour
    one take it as an argument."""

    opt_n: int = _OPT_N
    seed: int | None = None
    out: str | None = None
    # a search record whose epsilon drops below this value gets flagged
    epsilon_alarm: ClassVar[float] = 0.5
