"""Problem variant selection: restricted vs K^p_q-free t-matchings."""

from __future__ import annotations

from .errors import InputFormatError


class Variant:
    """Which family of subgraphs is forbidden.

    ``restricted`` forbids both cliques on t+1 vertices and balanced
    bicliques K_{t,t}.  ``kpq`` forbids t-regular complete partite graphs
    with p classes of size q; the degenerate shapes q = 1 and p = 2 reduce
    to the clique-only and biclique-only pipelines.
    """

    __slots__ = ("kind", "p", "q")

    def __init__(self, kind: str, p: int = 0, q: int = 0):
        self.kind = kind  # "restricted" | "kpq"
        self.p = p
        self.q = q

    @staticmethod
    def restricted() -> "Variant":
        return Variant("restricted")

    @staticmethod
    def kpq(p: int, q: int) -> "Variant":
        if p < 2 or q < 1:
            raise InputFormatError(f"invalid partite shape p={p}, q={q}")
        return Variant("kpq", p, q)

    def validate(self, t: int) -> None:
        if self.kind == "kpq" and (self.p - 1) * self.q != t:
            raise InputFormatError(
                f"(p-1)*q must equal t: got ({self.p}-1)*{self.q} != {t}"
            )

    def shapes(self, t: int) -> list[tuple[int, int]]:
        """Forbidden shapes as (p, q) pairs with (p-1)*q == t."""
        if self.kind == "restricted":
            return [(t + 1, 1), (2, t)]
        return [(self.p, self.q)]

    def describe(self) -> str:
        if self.kind == "restricted":
            return "restricted"
        return f"K^{self.p}_{self.q}-free"
