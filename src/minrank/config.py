"""Size limits and run configuration.

All exact routines are exponential somewhere.  The limits below are the
points where each routine refuses to start rather than run unbounded;
callers can pass larger values explicitly when they know what they are
asking for.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VERSION", "Limits", "LIMITS", "ToolConfig"]

VERSION = "0.1.0"


@dataclass(frozen=True)
class Limits:
    # columns for materializing a forbidden-set bitmap (2^n bits)
    ka_bitmap_n: int = 24
    # columns for the exact max-solution search
    opt_n: int = 16
    # total stars for completion enumeration and enumeration-based oracles
    stars: int = 24
    # columns for enumerate_subspaces and separating_min_rank
    subspace_n: int = 8
    # dimension for minimum-weight scans over a subspace
    min_weight_dim: int = 24
    # vectors for the star-independence subset check
    independent_vectors: int = 24
    # rows (after deduplication) for the row/column minimum-rank search
    subset_rows: int = 20
    # entries of a full matrix for the rigidity search, and its change cap
    rigidity_cells: int = 25
    rigidity_changes: int = 8
    # wires per gate truth table
    gate_wires: int = 16
    # rows of a generated code matrix
    code_rows: int = 1_000_000
    # matrices for an exhaustive search sweep
    search_space: int = 10_000_000
    # per-row projection size used by tiny brute force
    tiny_n: int = 4
    tiny_m: int = 3
    tiny_stars_per_row: int = 2


LIMITS = Limits()


@dataclass(frozen=True)
class ToolConfig:
    """Knobs shared by report, search and the command line tools: size
    limits, the random search's seed, the search log path, and the
    epsilon below which a search record is flagged.  Deadlines are not
    part of it; the routines that honour one take it as an argument.

    Of the limits, report, search and the command line read only opt_n,
    subset_rows, stars and search_space.  Some others are the default of
    a routine's own limit argument; pass that argument to raise one.
    The README's Limits section says which."""

    limits: Limits = LIMITS
    seed: int | None = None
    out: str | None = None
    # a search record whose epsilon drops below this value gets flagged
    epsilon_alarm: float = 0.5
