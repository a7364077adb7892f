"""Set partitions of {1, ..., n} in a canonical form.

Blocks are stored sorted internally and ordered by least element, so two
equal set partitions are equal as values.  The noncommutative product of
complete homogeneous elements is driven by the slash product defined here:
shift the second partition up by the size of the first and take the union
of blocks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .compositions import Composition, Partition
from .value import Value

Blocks = tuple[tuple[int, ...], ...]


class SetPartition(Value):
    """A partition of {1, ..., n} into disjoint nonempty blocks."""

    __slots__ = ("blocks",)
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]] = ()) -> None:
        tupled = tuple(map(tuple, blocks))
        if not all(tupled):
            raise ValueError("set partition blocks must be nonempty")
        seen = list(itertools.chain.from_iterable(tupled))
        if not set(map(type, seen)) <= {int}:
            raise ValueError(f"set partition entries must be integers, got {blocks!r}")
        cleaned = tuple(sorted(tuple(sorted(b)) for b in tupled))
        n = len(seen)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks must partition 1..n exactly once, got {cleaned!r}")
        object.__setattr__(self, "blocks", cleaned)

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def _trusted(cls, blocks: Blocks) -> SetPartition:
        """Wrap blocks already in canonical form, skipping validation."""
        pi = object.__new__(cls)
        object.__setattr__(pi, "blocks", blocks)
        return pi

    @classmethod
    def from_composition(cls, alpha: Composition) -> SetPartition:
        """The set partition of {1..n} into consecutive intervals with the
        given lengths.

        >>> SetPartition.from_composition(Composition((1, 2, 1, 3, 2))).blocks
        ((1,), (2, 3), (4,), (5, 6, 7), (8, 9))
        """
        return cls._trusted(interval_blocks(alpha.parts))

    def shape(self) -> Partition:
        """Block sizes sorted weakly decreasing."""
        return Partition._trusted(tuple(sorted((len(b) for b in self.blocks), reverse=True)))

    def shape_factorial(self) -> int:
        """Product of the factorials of the block sizes."""
        return self.shape().factorial()

    def slash(self, other: SetPartition) -> SetPartition:
        """Union with all of other's entries shifted up by self's size.

        >>> a = SetPartition(((1,), (2, 4), (3,)))
        >>> b = SetPartition(((1, 2, 3), (4, 5)))
        >>> a.slash(b).blocks
        ((1,), (2, 4), (3,), (5, 6, 7), (8, 9))
        """
        n = self.size
        shifted = tuple(tuple(e + n for e in block) for block in other.blocks)
        return SetPartition._trusted(self.blocks + shifted)

    def refines(self, other: SetPartition) -> bool:
        """True if every block of self sits inside some block of other.

        Both set partitions must be of the same ground set.
        """
        if self.size != other.size:
            raise ValueError("set partitions of different ground sets are incomparable")
        where = {}
        for i, block in enumerate(other.blocks):
            for e in block:
                where[e] = i
        return all(len({where[e] for e in block}) == 1 for block in self.blocks)


def interval_blocks(parts: Iterable[int]) -> Blocks:
    """Canonical blocks of the consecutive intervals of {1..n} with the
    given positive lengths."""
    blocks = []
    start = 1
    for part in parts:
        blocks.append(tuple(range(start, start + part)))
        start += part
    return tuple(blocks)


def relabel(images: tuple[int, ...], blocks: Blocks) -> Blocks:
    """Canonical blocks of a set partition relabeled entry by entry, e to
    images[e - 1]; Permutation.act calls it for one key, and relabel_keys
    gives the same for every key of an expansion.

    >>> relabel((3, 2, 1), ((1, 2), (3,)))
    ((1,), (2, 3))
    """
    return tuple(sorted([tuple(sorted([images[e - 1] for e in block])) for block in blocks]))


def relabel_keys(images: tuple[int, ...], keys: Iterable[Blocks]) -> Iterator[Blocks]:
    """relabel(images, raw) for each raw key in turn, lazily; ncsym.act and
    NCExpansion.relabels_to relabel an expansion's keys through it.

    The keys of an expansion share their blocks: a Jacobi-Trudi expansion
    of n cells holds at most n(n+1)/2 distinct interval blocks among all its
    terms.  So each distinct block's sorted image is computed once, when it
    is first met, and reused for every later key that holds the block.  The
    memo lives for one call only.

    >>> list(relabel_keys((3, 2, 1), [((1, 2), (3,)), ((1, 2, 3),)]))
    [((1,), (2, 3)), ((1, 2, 3),)]
    """
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}
    get = memo.get
    for raw in keys:
        relabeled = []
        for block in raw:
            image = get(block)
            if image is None:
                image = memo[block] = tuple(sorted([images[e - 1] for e in block]))
            relabeled.append(image)
        relabeled.sort()
        yield tuple(relabeled)


def set_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of {1..n}, in restricted-growth order.

    >>> sum(1 for _ in set_partitions(4))
    15
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield SetPartition(())
        return

    def rec(i: int, blocks: list[list[int]]) -> Iterator[SetPartition]:
        if i > n:
            yield SetPartition(tuple(tuple(b) for b in blocks))
            return
        for block in blocks:
            block.append(i)
            yield from rec(i + 1, blocks)
            block.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(2, [[1]])
