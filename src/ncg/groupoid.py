"""Finite pair groupoids and their (local) bisections.

Objects are labelled ``1..p``.  The arrow ``(i, j)`` is the morphism from
object ``j`` to object ``i`` — domain ``j``, range ``i`` — so that fibres
placed over arrows compose like matrix blocks (row ``i``, column ``j``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

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


def compose_bisections(x: Bisection, y: Bisection) -> Bisection:
    """Permutation composition ``(x ∘ y)(j) = x(y(j))``.

    The global bisections of the pair groupoid on ``p`` objects form the
    symmetric group on ``p`` symbols under this product.
    """
    if x.p != y.p:
        raise InputError("compose_bisections: different object counts")
    return Bisection(tuple(x(y(j)) for j in range(1, x.p + 1)))


@dataclass(frozen=True)
class LocalBisection:
    """A partial injective map on the objects; these form an inverse
    semigroup under partial composition."""

    p: int
    pairs: tuple[tuple[int, int], ...]  # sorted (source j, target i) pairs

    def __post_init__(self):
        mapping = dict(self.pairs)
        if len(mapping) != len(self.pairs):
            raise InputError("LocalBisection: duplicate sources")
        if not is_local_bisection(mapping, self.p):
            raise InputError(f"LocalBisection: {mapping} is not injective")

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], p: int) -> "LocalBisection":
        return cls(p, tuple(sorted((int(j), int(i))
                                   for j, i in mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def inverse(self) -> "LocalBisection":
        return LocalBisection(self.p,
                              tuple(sorted((i, j) for j, i in self.pairs)))

    def compose(self, other: "LocalBisection") -> "LocalBisection":
        """``(self ∘ other)(j) = self(other(j))`` where both are defined."""
        if self.p != other.p:
            raise InputError("compose: different object counts")
        mine = self.as_dict()
        out = {}
        for j, i in other.pairs:
            if i in mine:
                out[j] = mine[i]
        return LocalBisection.from_mapping(out, self.p)


def is_local_bisection(mapping: Mapping[int, int], p: int) -> bool:
    """True iff the partial map is injective on its domain.

    Out-of-range labels are an input error, not ``False``.
    """
    for j, i in mapping.items():
        if not (1 <= j <= p and 1 <= i <= p):
            raise InputError(f"label out of range in {j} -> {i} (p={p})")
    values = list(mapping.values())
    return len(set(values)) == len(values)


def all_local_bisections(p: int) -> Iterator[LocalBisection]:
    """Enumerate every partial injective map on ``{1..p}``."""
    objects = list(range(1, p + 1))
    for k in range(p + 1):
        for domain in itertools.combinations(objects, k):
            for image in itertools.permutations(objects, k):
                yield LocalBisection.from_mapping(dict(zip(domain, image)), p)


def all_bisections(p: int) -> Iterator[Bisection]:
    for perm in itertools.permutations(range(1, p + 1)):
        yield Bisection(perm)
