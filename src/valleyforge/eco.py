"""ECO operator, path labels, exhaustive generation, and label dynamics.

The growth operator inserts a UD peak at the active sites of a path, so
that every path of semilength n+1 in the class is produced exactly once
from a path of semilength n.  :func:`walk` visits this ECO tree depth
first, growing at most BLOCK parents at a time, so counting the tree
(:func:`tree_totals_upto`) holds a few blocks per depth rather than whole
levels.  The count builds every path up to depth n-1 and counts depth n
from their labels, so its time grows with the paths above the last
level.  Label dynamics reproduce the same counts without touching any
concrete path.

The labels (0), (1), ..., (h), (h_0), ..., (h_{k-3}) form a chain, and
inside this module a label is its position p = -1 .. h+k-3 on it.  A label
with c = min(p+1, h) children produces (2), ..., (c) and the next label on
the chain; the last one goes back to (h-1), which at h = 1 is (0), a label
with no children.  One rule step on the h+k-1 multiplicities is therefore
a shift along the chain plus suffix sums.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .errors import EmptyPath, NotInClass
from .paths import EMPTY_PATH, ClassParams, DyckPath, is_in_class


@dataclass(frozen=True)
class EcoLabel:
    """Succession-rule label: numeric (0)..(h) or indexed (h_0)..(h_{k-3}).

    ``kind`` is "num" or "hdx"; ``index`` is l for (l) and j for (h_j).
    A path labelled (l) has exactly l children; one labelled (h_j) has h.
    """

    kind: str
    index: int

    # Interned: label_of asks for a label per path, and labels are immutable.
    @staticmethod
    @cache
    def num(l: int) -> "EcoLabel":
        return EcoLabel("num", l)

    @staticmethod
    @cache
    def hdx(j: int) -> "EcoLabel":
        return EcoLabel("hdx", j)

    def child_count(self, h: int) -> int:
        return self.index if self.kind == "num" else h

    def __str__(self) -> str:
        if self.kind == "num":
            return f"({self.index})"
        return f"(h_{self.index})"


def _up_run(bits: int, n2: int) -> int:
    """Length t of the initial up-run of ``n2`` steps; the first peak is the UD at step t-1."""
    return n2 - (bits ^ ((1 << n2) - 1)).bit_length()


def _label(bits: int, n2: int, h: int, k: int) -> int:
    """Chain position of :func:`label_of`, read from the bits of a class path of 2n steps.

    No checks.  An initial up-run t < h gives t, a full run followed by l < k-2
    valleys at height h-1 gives h + l, and the saturated run wraps to
    h - 2, the position of (h-1), which is (0) at h = 1.
    """
    t = _up_run(bits, n2)
    if t < h:
        return t
    shift = n2 - t - 2  # low bit of the DU window after the run
    ell = 0
    while ell < k - 2 and shift >= 0 and (bits >> shift) & 0b11 == 0b01:
        ell += 1
        shift -= 2
    return h + ell if ell < k - 2 else h - 2


def _chain_label(p: int, h: int) -> EcoLabel:
    """The label at chain position p."""
    return EcoLabel.num(p + 1) if p < h else EcoLabel.hdx(p - h)


def label_of(path: DyckPath, params: ClassParams) -> EcoLabel:
    """Succession-rule label of a path in the class.

    Initial up-run of length t < h gives (t+1), chain position t.  A full
    run t = h gives (h_l), position h + l, where l counts the valleys at
    height h-1 right after the run; the saturated case l = k-2 (the only
    one possible when k = 2) wraps to (h-1), since inserting a peak at
    ordinate h-1 would make a run of k-1 valleys.  At h = 1 that label
    is (0).
    """
    if not is_in_class(path, params):
        raise NotInClass(f"{path.word!r} is not in the (h={params.h}, k={params.k}) class")
    return _chain_label(_label(path.bits, 2 * path.semilength, params.h, params.k), params.h)


def _child_count(bits: int, n2: int, h: int, k: int) -> int:
    """Number of children of a class path of 2n steps: c = min(q+1, h) at chain position q."""
    c = _label(bits, n2, h, k) + 1  # a conditional, not min(): this runs once per tree node
    return c if c < h else h


def _grow(bits: int, n2: int, h: int, k: int) -> list[int]:
    """Bit patterns of the children of a class path of 2n steps, in site order.

    Child i has a UD inserted before step i, for i = 0 .. c-1, where c is
    :func:`_child_count`.  Child 0 is UD followed by the path.  Every site
    lies on the initial up-run, so step i is a U and child i+1 is child i
    with its inserted D moved one step right, past that U.  A path with
    label (0) has no child.
    """
    c = _child_count(bits, n2, h, k)
    child = (0b10 << n2) | bits
    kids = [child] if c else []
    for s in range(n2 - 1, n2 - c, -1):
        child ^= 0b11 << s
        kids.append(child)
    return kids


def children(path: DyckPath, params: ClassParams) -> list[DyckPath]:
    """Paths of semilength n+1 produced from ``path`` by the growth operator.

    Precondition: ``path`` is in the class of ``params``; that is not
    checked here (:func:`label_of` checks it).  Active sites
    sit along the initial up-run, one per child the label allows; children
    are emitted in increasing ordinate of the insertion point, so the list
    order is deterministic.
    """
    m = path.semilength + 1
    return [DyckPath(bits, m) for bits in _grow(path.bits, 2 * path.semilength, params.h, params.k)]


# Parents grown into one block of children: the walk holds about
# BLOCK * h paths per depth, whatever n is.
BLOCK = 1024


def walk(params: ClassParams, n: int) -> Iterator[tuple[int, list[int]]]:
    """The class paths of semilength 0, 1, ..., n as bit patterns, in blocks, depth first.

    Yields ``(m, block)`` pairs: ``block`` lists, as ints (U = 1, D = 0,
    first step in the most significant of 2m bits), the children of at most
    BLOCK paths of semilength m - 1, in site order.  A block is yielded
    before the blocks below it, so the blocks at one depth, taken in walk
    order, concatenate to the whole level in breadth-first order.  No
    ``DyckPath`` is built.  Parameters are checked here, before the first
    block.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _walk(params.h, params.k, n)


def _walk(h: int, k: int, n: int) -> Iterator[tuple[int, list[int]]]:
    root = [EMPTY_PATH.bits]
    yield 0, root
    # (depth, block, offset of the next parents to grow), deepest on top.
    stack = [(0, root, 0)] if n else []
    while stack:
        m, block, start = stack.pop()
        if start + BLOCK < len(block):
            stack.append((m, block, start + BLOCK))
        kids = [child for bits in block[start:start + BLOCK] for child in _grow(bits, 2 * m, h, k)]
        yield m + 1, kids
        if m + 1 < n:
            stack.append((m + 1, kids, 0))


def tree_totals_upto(params: ClassParams, nmax: int) -> list[int]:
    """ECO-tree class counts for every semilength 0..nmax.

    The walk builds every class path up to depth nmax-1 and sums the block
    lengths per depth.  Depth nmax is not built: its count is the sum of
    the child counts of the paths at depth nmax-1, read from their bits.
    """
    if nmax <= 0:  # the root alone, or walk's ValueError
        return [len(block) for _, block in walk(params, nmax)]
    h, k, last = params.h, params.k, nmax - 1
    totals = [0] * (nmax + 1)
    for m, block in walk(params, last):
        totals[m] += len(block)
        if m == last:
            n2 = 2 * m
            totals[nmax] += sum(_child_count(bits, n2, h, k) for bits in block)
    return totals


def generate(params: ClassParams, n: int) -> list[DyckPath]:
    """All class paths of semilength n, each exactly once, sorted by word."""
    # The bit patterns first: building paths inside the walk would hold the
    # walk's blocks beside them.  The paths then go to sorted() through a
    # generator, so no list of them is held beside sorted()'s own, and the
    # bit-pattern list is let go before the sort keys are made.
    level = [bits for m, block in walk(params, n) if m == n for bits in block]
    level = (DyckPath(bits, n) for bits in level)
    return sorted(level, key=lambda p: p.word)


def invert_first_peak(path: DyckPath) -> DyckPath:
    """Remove the leftmost UD factor; the reverse of the growth operator."""
    if path.semilength == 0:
        raise EmptyPath("the empty path has no peak to remove")
    n2 = 2 * path.semilength
    shift = n2 - _up_run(path.bits, n2) - 1
    high = path.bits >> (shift + 2)
    low = path.bits & ((1 << shift) - 1)
    return DyckPath((high << shift) | low, path.semilength - 1)


def _rule_steps(params: ClassParams, n: int) -> Iterator[list[int]]:
    """Multiplicities after 0, 1, ..., n steps of the succession rule.

    Entry p+1 holds chain position p, so entry i holds (i) for i <= h.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    h = params.h
    v = [0, 1] + [0] * (h + params.k - 3)
    yield v
    for _ in range(n):
        nxt = [0, 0, *v[1:-1]]  # each label's next label on the chain; (0) has none
        nxt[h - 1] += v[-1]  # the last label's goes back to (h-1)
        suffix = sum(v[h + 1:])
        for i in range(h, 1, -1):  # (i) comes from every label at entry >= i
            suffix += v[i]
            nxt[i] += suffix
        v = nxt
        yield v


def rule_counts(params: ClassParams, n: int) -> Counter[EcoLabel]:
    """Label multiplicities after n steps of the succession rule.

    Starts from one copy of the axiom (1); labels of multiplicity 0 are left
    out, and ``total()`` equals the number of class paths of semilength n.
    """
    for v in _rule_steps(params, n):
        pass
    return Counter({_chain_label(p, params.h): c for p, c in enumerate(v, -1) if c})


def rule_totals_upto(params: ClassParams, nmax: int) -> list[int]:
    """Succession-rule class counts for every semilength 0..nmax, in one sweep."""
    return [sum(v) for v in _rule_steps(params, nmax)]
