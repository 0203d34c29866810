"""Regular section descriptors (RSDs).

Communication unioning (paper section 3.3) attaches an RSD as the optional
fourth argument of ``OVERLAP_SHIFT``.  The RSD widens the transferred slab
in the *non*-shifted dimensions so that a later shift also carries overlap
cells filled by earlier (lower-dimension) shifts — this is how "corner"
elements of a stencil are communicated with no extra messages.

In the paper's notation the 9-point stencil's second-dimension shifts carry
``[0:N+1,*]``: the slab spans local rows ``0 .. N+1`` (one overlap row on
each side of the ``1..N`` subgrid) while ``*`` marks the shifted dimension.
We store, per non-shifted dimension, how many overlap cells beyond each
subgrid edge are included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RSDim:
    """Extension of the transfer slab in one non-shifted dimension.

    ``lo``/``hi`` count overlap cells included below/above the local
    subgrid extent.  ``RSDim(0, 0)`` is the plain subgrid extent.
    """

    lo: int = 0
    hi: int = 0

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < 0:
            raise ValueError("RSD extensions must be non-negative")

    def union(self, other: "RSDim") -> "RSDim":
        return RSDim(max(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, other: "RSDim") -> bool:
        return self.lo >= other.lo and self.hi >= other.hi

    def widen(self, offset: int) -> "RSDim":
        """Add an offset annotation (paper 3.3, step 2): a negative shift
        annotation widens the lower bound, a positive one the upper."""
        if offset < 0:
            return RSDim(max(self.lo, -offset), self.hi)
        if offset > 0:
            return RSDim(self.lo, max(self.hi, offset))
        return self


@dataclass(frozen=True)
class RSD:
    """A per-dimension section descriptor for an ``OVERLAP_SHIFT``.

    ``dims[k]`` is an :class:`RSDim` for non-shifted dimensions and
    ``None`` (printed ``*``) for the shifted dimension itself.
    """

    dims: tuple[RSDim | None, ...]

    @staticmethod
    @lru_cache(maxsize=64)
    def trivial(rank: int, shift_dim: int) -> "RSD":
        """The RSD carrying exactly the subgrid slab (no overlap cells).

        ``shift_dim`` is 0-based.
        """
        return RSD(tuple(None if k == shift_dim else RSDim()
                         for k in range(rank)))

    @staticmethod
    def from_offsets(offsets: Sequence[int], shift_dim: int) -> "RSD":
        """Build the RSD needed so a shift along ``shift_dim`` also carries
        the overlap cells referenced by the per-dimension ``offsets`` of a
        multi-offset array (0-based ``shift_dim``)."""
        dims: list[RSDim | None] = []
        for k, off in enumerate(offsets):
            if k == shift_dim:
                dims.append(None)
            else:
                dims.append(RSDim().widen(off))
        return RSD(tuple(dims))

    @staticmethod
    def slab(rsd: "RSD | None", base_offsets: Sequence[int] | None,
             rank: int, shift_dim: int) -> "RSD":
        """The slab an ``OVERLAP_SHIFT`` along ``shift_dim`` (0-based)
        sends: its RSD if it has one, else the widening its base offsets
        imply, else the plain subgrid slab.

        Raises ``ValueError`` when the result does not describe a shift of
        a rank-``rank`` array along ``shift_dim``.
        """
        if rsd is not None:
            eff = rsd
        elif base_offsets:
            eff = RSD.from_offsets(base_offsets, shift_dim)
        else:
            eff = RSD.trivial(rank, shift_dim)
        if eff.rank != rank or eff.shift_dim != shift_dim:
            raise ValueError(
                f"RSD {eff} incompatible with shift dim {shift_dim + 1}")
        return eff

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def shift_dim(self) -> int:
        for k, d in enumerate(self.dims):
            if d is None:
                return k
        raise ValueError("RSD has no shifted dimension")

    @property
    def is_trivial(self) -> bool:
        return all(d is None or (d.lo == 0 and d.hi == 0)
                   for d in self.dims)

    def union(self, other: "RSD") -> "RSD":
        """Pointwise union; larger RSDs subsume smaller ones (paper 3.3)."""
        self._check_compatible(other)
        dims = tuple(None if a is None else a.union(b)  # type: ignore[union-attr]
                     for a, b in zip(self.dims, other.dims))
        return RSD(dims)

    def contains(self, other: "RSD") -> bool:
        self._check_compatible(other)
        return all(a is None or a.contains(b)  # type: ignore[arg-type]
                   for a, b in zip(self.dims, other.dims))

    def _check_compatible(self, other: "RSD") -> None:
        if self.rank != other.rank or self.shift_dim != other.shift_dim:
            raise ValueError(
                f"incompatible RSDs: {self} vs {other}")

    def format(self, extents: Iterable[object] | None = None) -> str:
        """Fortran-style rendering, e.g. ``[0:N+1,*]``.

        ``extents`` optionally supplies per-dimension extent expressions
        (symbol names or ints) for pretty bounds; defaults to ``n<k>``.
        """
        exts = list(extents) if extents is not None else [
            f"n{k + 1}" for k in range(self.rank)]
        parts = []
        for k, d in enumerate(self.dims):
            if d is None:
                parts.append("*")
            elif d.lo == 0 and d.hi == 0:
                parts.append(f"1:{exts[k]}")
            else:
                lo = str(1 - d.lo)
                hi = f"{exts[k]}+{d.hi}" if d.hi else str(exts[k])
                parts.append(f"{lo}:{hi}")
        return "[" + ",".join(parts) + "]"

    def __str__(self) -> str:
        return self.format()
