"""Finite pair groupoids and their global bisections.

Objects are labelled ``1..p``.  The arrow ``(i, j)`` is the morphism from
object ``j`` to object ``i`` — domain ``j``, range ``i`` — so that fibres
placed over arrows compose like matrix blocks (row ``i``, column ``j``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InputError

Arrow = tuple[int, int]


@dataclass(frozen=True)
class PairGroupoid:
    """The pair groupoid on ``p`` objects: all ordered pairs ``(i, j)``."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise InputError("PairGroupoid: p must be >= 1")

    def objects(self) -> range:
        return range(1, self.p + 1)

    def arrows(self) -> Iterator[Arrow]:
        for i in self.objects():
            for j in self.objects():
                yield (i, j)

    def contains(self, g: Arrow) -> bool:
        i, j = g
        return 1 <= i <= self.p and 1 <= j <= self.p

    def require(self, g: Arrow) -> Arrow:
        if not self.contains(g):
            raise InputError(f"arrow {g} is not in the pair groupoid on "
                             f"{self.p} objects")
        return (int(g[0]), int(g[1]))

    def inverse(self, g: Arrow) -> Arrow:
        i, j = self.require(g)
        return (j, i)

    def compose_arrows(self, g: Arrow, h: Arrow) -> Optional[Arrow]:
        """``(i, j) ∘ (j, k) = (i, k)``; ``None`` when not composable."""
        i, j = self.require(g)
        j2, k = self.require(h)
        if j != j2:
            return None
        return (i, k)


@dataclass(frozen=True)
class Bisection:
    """A global bisection: a permutation ``j -> images[j-1]`` of the
    objects, i.e. the arrow set ``{(π(j), j)}``."""

    images: tuple[int, ...]

    def __post_init__(self):
        p = len(self.images)
        if p < 1 or sorted(self.images) != list(range(1, p + 1)):
            raise InputError(f"Bisection: {self.images} is not a "
                             f"permutation of 1..{p}")

    @classmethod
    def identity(cls, p: int) -> "Bisection":
        return cls(tuple(range(1, p + 1)))

    @classmethod
    def transposition(cls, p: int, a: int, b: int) -> "Bisection":
        images = list(range(1, p + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @property
    def p(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def arrows(self) -> list[Arrow]:
        return [(self(j), j) for j in range(1, self.p + 1)]

    def inverse(self) -> "Bisection":
        inv = [0] * self.p
        for j, i in enumerate(self.images, start=1):
            inv[i - 1] = j
        return Bisection(tuple(inv))

    def to_json(self) -> list[int]:
        return list(self.images)
