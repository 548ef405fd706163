"""Resource guards for saturation and enumeration."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Caps that keep the checker responsive on hostile inputs.

    max_iters bounds saturation in both directions; tripping it is
    'exhausted', never 'unbounded'.  overlap_nodes caps the node count
    of enumerated overlap graphs (None means the natural bound |A|+|B|).
    overlap_count caps how many overlaps a single enumeration may
    produce.  In the graph steps both overlap caps see only the overlaps
    left after pruning by the dangling condition and the class's node
    counts.  The forward caps bound breadth-first exploration used by
    the under-approximation and the `post` command.
    """

    max_iters: int = 10_000
    overlap_nodes: int | None = None
    overlap_count: int = 250_000
    forward_depth_cap: int = 64
    forward_state_cap: int = 100_000


DEFAULT_LIMITS = Limits()
