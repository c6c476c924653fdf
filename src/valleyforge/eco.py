"""ECO operator, path labels, exhaustive generation, and label dynamics.

The growth operator inserts a UD peak at the active sites of a path, so
that every path of semilength n+1 in the class is produced exactly once
from a path of semilength n.  :func:`walk` visits this ECO tree depth
first, growing at most BLOCK parents at a time, so counting the tree
(:func:`tree_totals_upto`) holds a few blocks per depth rather than whole
levels.  Every site lies on the initial up-run, so a child is UU followed
by its parent with one step turned into a D: one bit flip.  A block grows
in one comprehension: its up-runs are read together, and a parent's
valleys are read (by :func:`_label`) only when its up-run is full.  The
count builds every path up to depth n-1 and counts depth n from their
labels, so its time grows with the paths above the last level.  A path of
the class (h, k) lies in (h+1, k') for every k', and a larger k is a
weaker restriction, so one walk of the (h_hi, k_hi) tree counts a whole
grid of cells (:func:`grid_totals_upto`).  The cells are taken on one
chain, k inside h, and each block carries the least cell whose class
holds its paths.  A block's children keep its cell, except two kinds,
raised to a later one by the one rule of :func:`_raised`: the child that
lengthens a saturated run of valleys goes to the next cell, and the child
above a full up-run goes to the next h.  Label dynamics reproduce the
same counts without touching any concrete path.

The labels (0), (1), ..., (h), (h_0), ..., (h_{k-3}) form a chain.  Outside
this module a label is its text, such as "(3)" or "(h_0)", as the paper
writes it and ``generate`` prints it; inside, it is its position
p = -1 .. h+k-3 on the chain.  A label with c = min(p+1, h) children
produces (2), ..., (c) and the next label on the chain; the last one goes
back to (h-1), which at h = 1 is (0), a label with no children.  One rule
step on the h+k-1 multiplicities is therefore a shift along the chain plus
suffix sums.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, compress
from operator import add
from typing import Iterator

from .errors import EmptyPath, NotInClass
from .paths import EMPTY_PATH, ClassParams, DyckPath, is_in_class


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


def _label_text(p: int, h: int) -> str:
    """The paper's name of the label at chain position p: (p+1) below h, (h_{p-h}) from h on."""
    return f"({p + 1})" if p < h else f"(h_{p - h})"


def label_of(path: DyckPath, params: ClassParams) -> str:
    """Succession-rule label of a path in the class, as text: "(3)", "(h_0)".

    Initial up-run of length t < h gives (t+1), chain position t.  A full
    run t = h gives (h_l), position h + l, where l counts the valleys at
    height h-1 right after the run; the saturated case l = k-2 (the only
    one possible when k = 2) wraps to (h-1), since inserting a peak at
    ordinate h-1 would make a run of k-1 valleys.  At h = 1 that label
    is (0).
    """
    if not is_in_class(path, params):
        raise NotInClass(f"{path.word!r} is not in the (h={params.h}, k={params.k}) class")
    return _label_text(_label(path.bits, 2 * path.semilength, params.h, params.k), params.h)


def _child_counts(block: list[int], n2: int, h: int, k: int) -> list[int]:
    """Child counts of a block of class paths of 2n steps: c = min(q+1, h) at chain position q.

    One comprehension reads every initial up-run t of the block; a run
    t < h gives t+1 children.  Only a full run (t = h) needs the valleys
    after it, so only there is :func:`_label` called.
    """
    full = (1 << n2) - 1
    return [t + 1 if (t := n2 - (bits ^ full).bit_length()) < h
            else min(_label(bits, n2, h, k) + 1, h)
            for bits in block]


def _grow(block: list[int], n2: int, h: int, k: int) -> list[int]:
    """Bit patterns of the children of a block of class paths of 2n steps.

    The children of each parent, in site order, follow those of the parent
    before it.  Child i has a UD inserted before step i, for i = 0 .. c-1,
    where c is the parent's count from :func:`_child_counts`.  Every site
    lies on the initial up-run, so child i is UU followed by the path, with
    step i+1 of the child turned into a D: one bit flip.  The at most h
    flips are the same for every parent of the block and are built once.
    A path with label (0) has no child.
    """
    flips = [1 << s for s in range(n2, max(n2 - h, -1), -1)]
    base = 0b11 << n2
    return [(base | bits) ^ flip
            for bits, c in zip(block, _child_counts(block, n2, h, k)) for flip in flips[:c]]


def _with_head(block: list[int], n2: int, head: int) -> list[int]:
    """The paths of a block of 2n steps that begin with the steps of ``head``.

    ``head`` is read as a path of ``head.bit_length()`` steps, so it begins
    with U.  The heads are compared without a Python-level step per path.
    """
    shift = n2 - head.bit_length()
    if shift < 0:
        return []
    return list(compress(block, map(head.__eq__, map(shift.__rrshift__, block))))


def children(path: DyckPath, params: ClassParams) -> list[DyckPath]:
    """Paths of semilength n+1 produced from ``path`` by the growth operator.

    Precondition: ``path`` is in the class of ``params``; that is not
    checked here (:func:`label_of` checks it).  Active sites
    sit along the initial up-run, one per child the label allows; children
    are emitted in increasing ordinate of the insertion point, so the list
    order is deterministic.
    """
    m = path.semilength + 1
    return [DyckPath(bits, m) for bits in _grow([path.bits], 2 * path.semilength, params.h, params.k)]


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
    h, k = params.h, params.k
    return ((m, block) for m, _, _, block in _walk(h, h, k, k, n))


def _raised(parents: list[int], n2: int, hm: int, km: int, h_hi: int, k_lo: int,
            k_hi: int) -> list[tuple[int, int, list[int], int]]:
    """Paths of a block whose child at ``site`` lies only in a later cell, as ``(h, k, paths, site)``.

    (hm, km) is the block's least cell on :func:`_walk`'s chain.  Saturated
    paths, U^hm (DU)^(km-2) ..., use site hm-1, whose child has km-1 valleys
    at hm-1: it moves to the next cell.  Below h_hi, paths with a full
    up-run, U^hm D ..., use site hm, whose child has height hm+1: it moves
    to (hm+1, k_lo).  Empty lists are left out.
    """
    heads = []
    if hm < h_hi or km < k_hi:
        j = km - 2
        saturated = ((1 << hm) - 1) << 2 * j | (4 ** j - 1) // 3  # U^hm, then j times DU = 0b01
        heads.append(((hm, km + 1) if km < k_hi else (hm + 1, k_lo), saturated, hm - 1))
    if hm < h_hi:
        heads.append(((hm + 1, k_lo), (1 << hm + 1) - 2, hm))  # U^hm D
    return [(*cell, paths, site) for cell, head, site in heads if (paths := _with_head(parents, n2, head))]


def _walk(h_lo: int, h_hi: int, k_lo: int, k_hi: int,
          n: int) -> Iterator[tuple[int, int, int, list[int]]]:
    """The (h_hi, k_hi) tree to depth n, as ``(m, hm, km, block)``.

    The cells (h, k) are taken on one chain, (h_lo, k_lo) .. (h_lo, k_hi),
    (h_lo+1, k_lo) .. (h_hi, k_hi).  A path of height H whose longest run
    of valleys at H-1 is r lies in every cell with h > H and in the cells
    (H, k) with k >= r+2: an up-set of the chain.  (hm, km) is the least
    cell of that set, the same for every path of the block.  Removing the
    first peak depends on neither h nor k, so a block's children in the
    (hm, km) tree (:func:`_grow`) keep (hm, km).  Its only other children
    are raised: the paths and site :func:`_raised` names for each later
    cell, grown by the same bit flip.  On a chain of one cell, as for
    :func:`walk`, nothing is raised, and the walk order is the tree's.
    """
    root = [EMPTY_PATH.bits]
    yield 0, h_lo, k_lo, root
    # (depth, hm, km, block, offset of the next parents to grow), deepest on top.
    stack = [(0, h_lo, k_lo, root, 0)] if n else []
    while stack:
        m, hm, km, block, start = stack.pop()
        if start + BLOCK < len(block):
            stack.append((m, hm, km, block, start + BLOCK))
        n2, parents = 2 * m, block[start:start + BLOCK]
        grown = [(hm, km, _grow(parents, n2, hm, km))]
        base = 0b11 << n2
        for g_h, g_k, paths, site in _raised(parents, n2, hm, km, h_hi, k_lo, k_hi):
            flip = 1 << n2 - site
            grown.append((g_h, g_k, [(base | bits) ^ flip for bits in paths]))
        for g_h, g_k, kids in grown:
            yield m + 1, g_h, g_k, kids
            if m + 1 < n:
                stack.append((m + 1, g_h, g_k, kids, 0))


def grid_totals_upto(h_lo: int, h_hi: int, k_lo: int, k_hi: int, nmax: int) -> list[list[list[int]]]:
    """ECO-tree class counts for n = 0..nmax, indexed [h - h_lo][k - k_lo][n], from one walk.

    Every cell's tree is the part of the (h_hi, k_hi) tree whose blocks have
    a least cell (hm, km) no later on the chain of :func:`_walk`, so depth m
    of a cell counts the paths at depth m of the blocks up to it: one
    running sum over the chain.  The walk builds the tree up to depth
    nmax-1.  Depth nmax is not built: a block's paths have, summed, the
    child counts of :func:`_child_counts` in the (hm, km) tree, and one
    child more per path that :func:`_raised` names, from the cell it names
    on.  Those paths are only counted.
    """
    ClassParams(h_lo, k_lo)  # refuses h_lo < 1 and k_lo < 2
    if h_hi < h_lo:
        raise ValueError(f"empty h range {h_lo}..{h_hi}")
    if k_hi < k_lo:
        raise ValueError(f"empty k range {k_lo}..{k_hi}")
    if nmax < 0:
        raise ValueError("n must be >= 0")
    width = k_hi - k_lo + 1
    # rows[c][m]: the paths at depth m of the blocks whose least cell is the
    # c-th of the chain, and at depth nmax, the children whose least cell it
    # is.  Their running sums over c are the counts.
    rows = [[0] * (nmax + 1) for _ in range(width * (h_hi - h_lo + 1))]
    last = nmax - 1
    for m, hm, km, block in _walk(h_lo, h_hi, k_lo, k_hi, max(last, 0)):
        c = (hm - h_lo) * width + km - k_lo
        rows[c][m] += len(block)
        if m == last:
            n2 = 2 * m
            rows[c][nmax] += sum(_child_counts(block, n2, hm, km))
            for h, k, paths, _ in _raised(block, n2, hm, km, h_hi, k_lo, k_hi):
                rows[(h - h_lo) * width + k - k_lo][nmax] += len(paths)
    cells = list(accumulate(rows, lambda acc, row: list(map(add, acc, row))))
    return [cells[i:i + width] for i in range(0, len(cells), width)]


def tree_totals_upto(params: ClassParams, nmax: int) -> list[int]:
    """ECO-tree class counts for every semilength 0..nmax: a grid of one cell."""
    h, k = params.h, params.k
    return grid_totals_upto(h, h, k, k, nmax)[0][0]


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
    """Remove the leftmost UD factor; the reverse of the growth operator.

    The growth's bit flip undone: turning the first D into a U gives UU
    followed by the parent, and the parent is the low 2n-2 bits.
    """
    if path.semilength == 0:
        raise EmptyPath("the empty path has no peak to remove")
    n2 = 2 * path.semilength
    up = path.bits ^ 1 << n2 - 1 - _up_run(path.bits, n2)
    return DyckPath(up & (1 << n2 - 2) - 1, path.semilength - 1)


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


def rule_counts(params: ClassParams, n: int) -> Counter[str]:
    """Label multiplicities after n steps of the succession rule, keyed by label text.

    Starts from one copy of the axiom (1); labels of multiplicity 0 are left
    out, and ``total()`` equals the number of class paths of semilength n.
    """
    for v in _rule_steps(params, n):
        pass
    return Counter({_label_text(p, params.h): c for p, c in enumerate(v, -1) if c})


def rule_totals_upto(params: ClassParams, nmax: int) -> list[int]:
    """Succession-rule class counts for every semilength 0..nmax, in one sweep."""
    return [sum(v) for v in _rule_steps(params, nmax)]
