"""Permutations of {1, ..., n} in one-line notation.

images[j-1] is the image of j.  Composition follows function application,
(a * b)(j) = a(b(j)), and permutations act on set partitions by relabeling
entries.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .setpartitions import SetPartition, relabel
from .value import Value


class Permutation(Value):
    """A bijection of {1..n} stored in one-line notation.

    >>> Permutation((3, 2, 1))(1)
    3
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Iterable[int] = ()) -> None:
        images = tuple(images)
        if not set(map(type, images)) <= {int}:
            raise ValueError(f"permutation entries must be integers, got {images!r}")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    @property
    def size(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reversal(cls, n: int) -> Permutation:
        """j maps to n+1-j."""
        return cls(tuple(range(n, 0, -1)))

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """(self * other)(j) = self(other(j))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.size
        for j, v in enumerate(self.images, start=1):
            inv[v - 1] = j
        return Permutation(tuple(inv))

    def bar(self) -> Permutation:
        """The complemented permutation j -> n+1-self(j).

        Equals reversal(n) * self, and applying it twice gives self back.

        >>> Permutation((2, 1, 4, 3)).bar().images
        (3, 4, 1, 2)
        """
        n = self.size
        return Permutation(tuple(n + 1 - v for v in self.images))

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd ones."""
        inversions = sum(
            1
            for i in range(self.size)
            for j in range(i + 1, self.size)
            if self.images[i] > self.images[j]
        )
        return -1 if inversions % 2 else 1

    def act(self, pi: SetPartition) -> SetPartition:
        """Relabel every entry of pi through self.

        >>> delta = Permutation((3, 2, 1))
        >>> delta.act(SetPartition(((1, 2), (3,)))).blocks
        ((1,), (2, 3))
        """
        if self.size != pi.size:
            raise ValueError("permutation and set partition sizes differ")
        return SetPartition._trusted(relabel(self.images, pi.blocks))

    def preserves_blocks(self, pi: SetPartition) -> bool:
        """True if self maps every block of pi onto itself."""
        if self.size != pi.size:
            raise ValueError("permutation and set partition sizes differ")
        return all({self.images[e - 1] for e in block} == set(block) for block in pi.blocks)


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All n! permutations of {1..n}, in itertools.permutations order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)

