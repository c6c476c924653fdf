"""ECO operator, path labels, exhaustive generation, and label dynamics.

The growth operator inserts a UD peak at the active sites of a path, so
that every path of semilength n+1 in the class is produced exactly once
from a path of semilength n.  :func:`walk` lists this ECO tree depth
first, growing at most BLOCK parents at a time.  Every site lies on the
initial up-run, so a child is UU followed by its parent with one step
turned into a D: one bit flip.  A block grows in one comprehension: an
up-run t < h gives t+1 children, a full run h, and h-1 when the path
begins with the saturated head U^h (DU)^(k-2).  A path of the class
(h, k) lies in (h+1, k') for every k', and a larger k is a weaker
restriction, so one (h_hi, k_hi) tree counts a whole grid of cells
(:func:`grid_totals_upto`).  The cells are taken on one chain, k inside
h, and each block carries the least cell whose class holds its paths.
A block's children keep its cell, except two kinds, raised to a later
one by :func:`_raised`: the child that lengthens a saturated run of
valleys goes to the next cell, and the child above a full up-run goes
to the next h.  Child i has up-run i+1, so the count builds only the
paths whose subtree can reach a full run, counts the rest by up-run,
and merges a cell's paths on their first h + 2k - 4 steps, all it reads.
The walk and the count to n clamp (h, k) at (n+1, n+2): no cost past them.
Label dynamics reproduce the counts without touching a concrete path.

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

from collections import Counter, defaultdict
from itertools import accumulate, islice, repeat
from operator import add
from typing import Iterable, Iterator

from .errors import EmptyPath, NotInClass
from .paths import EMPTY_PATH, ClassParams, DyckPath, clamped_grid, is_in_class


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
    return _label_text(_label(path.bits, path.bits.bit_length(), params.h, params.k), params.h)


def _saturated_head(h: int, k: int) -> int:
    """U^h (DU)^(k-2) as bits: the head of the saturated paths, whose label wraps to (h-1)."""
    j = k - 2
    return ((1 << h) - 1) << 2 * j | (4 ** j - 1) // 3  # U^h, then j times DU = 0b01


def _child_counts(block: list[int], n2: int, h: int, k: int) -> list[int]:
    """Child counts of a block of class paths of 2n steps: c = min(q+1, h) at chain position q.

    One comprehension reads every initial up-run t of the block.  A run
    t < h gives t+1 children, a full run (t = h) gives h, and h-1 when the
    path begins with the saturated head U^h (DU)^(k-2): one shift-compare
    per full-run parent.  So a count depends on the first h + 2k - 4 steps
    only, inside the window of W = h + 2k - 1 steps that decides the children.
    """
    full = (1 << n2) - 1
    head = _saturated_head(h, k)
    shift = max(n2 - head.bit_length(), 0)  # a head longer than the paths matches none
    return [t + 1 if (t := n2 - (bits ^ full).bit_length()) < h
            else h - (bits >> shift == head)
            for bits in block]


def _grow(block: list[int], n2: int, h: int, k: int, first: int = 0,
          counts: list[int] | None = None) -> list[int]:
    """Bit patterns of the children of a block of class paths of 2n steps.

    The children of each parent, in site order, follow those of the parent
    before it.  Child i has a UD inserted before step i, for i = ``first`` ..
    c-1, with c the parent's count in ``counts`` or from :func:`_child_counts`.
    Every site lies on the initial up-run, so child i is UU followed by the
    path with step i+1 turned into a D: one bit flip, and up-run i+1, which
    lets :func:`_count` count the sites below ``first`` unbuilt.  A path with
    label (0) has no child.  The children depend on the first W = h + 2k - 1
    steps only (:func:`_child_counts`), their counts on the first h + 2k - 4.
    """
    counts = _child_counts(block, n2, h, k) if counts is None else counts
    flips = [1 << s for s in range(n2, max(n2 - h, -1), -1)]
    base = 0b11 << n2
    return [(base | bits) ^ flip for bits, c in zip(block, counts) for flip in flips[first:c]]


def _with_head(block: list[int], n2: int, head: int) -> list[int]:
    """The paths of a block of 2n steps whose first ``head.bit_length()`` steps are ``head``."""
    shift = max(n2 - head.bit_length(), 0)  # a head longer than the paths matches none
    return [bits for bits in block if bits >> shift == head]


def children(path: DyckPath, params: ClassParams) -> list[DyckPath]:
    """Paths of semilength n+1 produced from ``path`` by the growth operator.

    Precondition: ``path`` is in the class of ``params``; that is not
    checked here (:func:`label_of` checks it).  Active sites
    sit along the initial up-run, one per child the label allows; children
    are emitted in increasing ordinate of the insertion point, so the list
    order is deterministic.
    """
    return [DyckPath(bits) for bits in _grow([path.bits], path.bits.bit_length(), params.h, params.k)]


# Parents grown into one block of children: the walk, and the count while
# its paths are whole, hold about BLOCK * h paths per depth, whatever n is.
BLOCK = 1024


def walk(params: ClassParams, n: int) -> Iterator[tuple[int, list[int]]]:
    """The class paths of semilength 0, 1, ..., n as bit patterns, in blocks, depth first.

    Yields ``(m, block)`` pairs: ``block`` lists, as ints (U = 1, D = 0,
    first step in the most significant of 2m bits), the children of at most
    BLOCK paths of semilength m - 1, in site order.  A block is yielded
    before the blocks below it, so the blocks at one depth, taken in walk
    order, concatenate to the whole level in breadth-first order.  No
    ``DyckPath`` is built.  Parameters are checked here, before the first
    block.  To depth n the ``params.clamped(n)`` tree is the same tree.
    """
    c = params.clamped(n)
    return ((m, block) for m, _, _, block in _walk(c.h, c.h, c.k, c.k, n))


def _raised(parents: list[int], n2: int, hm: int, km: int, h_hi: int, k_lo: int,
            k_hi: int) -> list[tuple[int, int, list[int]]]:
    """Children of a block that lie only in a later cell, as ``(h, k, children)``.

    (hm, km) is the block's least cell on :func:`_walk`'s chain.  Saturated
    paths, U^hm (DU)^(km-2) ..., have a site hm-1 child with km-1 valleys at
    hm-1: it moves to the next cell.  Below h_hi, paths with a full up-run,
    U^hm D ..., have a site hm child of height hm+1: it moves to (hm+1, k_lo).
    Both are the bit flip of :func:`_grow`.  Saturated paths are sought only
    among the full-run ones (at km = 2 the saturated head is U^hm).  Both
    heads lie inside the window of W = hm + 2km - 1 steps.  Empty lists are
    left out.
    """
    if hm == h_hi and km == k_hi:
        return []
    full = _with_head(parents, n2, (1 << hm + 1) - 2)  # U^hm D
    saturated = _with_head(full, n2, _saturated_head(hm, km))
    heads = [((hm, km + 1) if km < k_hi else (hm + 1, k_lo), saturated, hm - 1)]
    if hm < h_hi:
        heads.append(((hm + 1, k_lo), full, hm))
    base = 0b11 << n2
    return [(*cell, [(base | bits) ^ 1 << n2 - site for bits in paths])
            for cell, paths, site in heads if paths]


def _walk(h_lo: int, h_hi: int, k_lo: int, k_hi: int,
          n: int) -> Iterator[tuple[int, int, int, list[int]]]:
    """The (h_hi, k_hi) tree to depth n, as ``(m, hm, km, block)``: the listing walk of
    :func:`walk`, and the tests' reference for the counts of :func:`_count`.

    The cells (h, k) are taken on one chain, (h_lo, k_lo) .. (h_lo, k_hi),
    (h_lo+1, k_lo) .. (h_hi, k_hi).  A path of height H whose longest run
    of valleys at H-1 is r lies in every cell with h > H and in the cells
    (H, k) with k >= r+2: an up-set of the chain.  (hm, km) is the least
    cell of that set, the same for every path of the block.  Removing the
    first peak depends on neither h nor k, so a block's children in the
    (hm, km) tree (:func:`_grow`) keep (hm, km).  Its only other children
    are raised: :func:`_raised` returns them with the later cell of each.
    On one cell, as for :func:`walk`, nothing is raised: the walk order is the tree's.
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
        for g_h, g_k, kids in [(hm, km, _grow(parents, n2, hm, km)),
                               *_raised(parents, n2, hm, km, h_hi, k_lo, k_hi)]:
            yield m + 1, g_h, g_k, kids
            if m + 1 < n:
                stack.append((m + 1, g_h, g_k, kids, 0))


def _below(h: int, n: int) -> list[list[int]]:
    """below[u][d], u + d <= h, d <= n: the paths d levels under a path of up-run u in a cell
    (h', k), h' >= u + d, where each path above them has up-run < h': child i has up-run i+1."""
    cols = [[1] * (h + 1)]  # cols[d][u], for u <= h - d
    for _ in range(min(n, h)):
        cols.append(list(accumulate(cols[-1][1:])))
    return [[col[u] for col in cols if u < len(col)] for u in range(h + 1)]


def _add(sums: dict[int, int], keys: Iterable[int], weights: Iterable[int]) -> dict[int, int]:
    """``sums`` with each key's weight added to it."""
    for key, weight in zip(keys, weights):
        sums[key] = sums.get(key, 0) + weight
    return sums


def _window(h: int, k: int) -> int:
    """w = h + 2k - 4: the first steps of a path in the cell (h, k) that :func:`_count` reads."""
    return h + 2 * k - 4


def _count(fragment: dict[tuple[int, int], list[int]], m0: int, nmax: int, h_lo: int, h_hi: int,
           k_lo: int, k_hi: int) -> list[list[list[int]]]:
    """Counts [h - h_lo][k - k_lo][n <= nmax] of ``fragment``'s paths, at depth m0 and keyed by
    their least cells (h, k), and of the paths below them in the (h_hi, k_hi) tree.

    Child i of a parent at depth nmax - r in (hm, km) has up-run i+1, so below it no full
    run comes before nmax if i < s0 = max(hm - r + 1, 0).  Such children are tallied by
    min(c, s0), c the parent's child count, and expanded from :func:`_below` at the end, as
    is a raised child of up-run u at depth m in (h, k) if u + nmax - m <= h.  Of a path in
    (h, k) the count reads the up-run, the head U^h D and the saturated head U^h (DU)^(k-2),
    all in its first w = h + 2k - 4 steps: a longer path is cut to them, the rest set to 0,
    and merged per depth and cell into a level of {prefix: paths}, taken up shallowest first
    once no whole path is left.  The cut is exact: a child kept in (h, k) is UU and its
    parent's first w - 2 steps, one raised to (h, k+1) UU and its parent's first w, its own
    window, and one raised to (h+1, k_lo) needs fewer.  At k = 2 the window is U^h, and a
    class path that begins U^h takes a D next, the 0 the cut pads with.  Whole paths go
    depth first, a step growing up to BLOCK of one depth's parents across cells.
    """
    rows = defaultdict(lambda: [0] * (nmax + 1))  # rows[h, k][m]: paths at depth m, least cell (h, k)
    tally = Counter()  # (h, k, m, q): parents at depth m, least cell (h, k), with q children tallied
    levels = defaultdict(lambda: defaultdict(dict))  # levels[m][h, k][prefix]: paths, 2m > w

    def keep(m, h, k, paths, weights, kids, q=0):
        """Counts paths at depth m in (h, k), and tallies them by ``q`` or keeps them below nmax."""
        n = len(paths) if weights is None else sum(weights)
        rows[h, k][m] += n
        if q:
            tally[h, k, m, q] += n
        elif paths and m < nmax and 2 * m <= (w := _window(h, k)):
            kids.setdefault((h, k), []).extend(paths)
        elif paths and m < nmax:
            drop = -(1 << 2 * m - w)  # keeps the first w steps
            _add(levels[m][h, k], [bits & drop for bits in paths], weights or repeat(1))

    stack = [(m0, {})]
    for (h, k), paths in fragment.items():
        keep(m0, h, k, paths, None, stack[0][1])
    while stack or levels:
        m, frag = stack.pop() if stack else (m := min(levels), levels.pop(m))
        step, room = [], BLOCK
        while frag and room > 0:
            (h, k), paths = frag.popitem()
            if len(paths) > room and 2 * m <= _window(h, k):  # a level's cell is taken whole
                frag[h, k], paths = paths[room:], paths[:room]
            step.append((h, k, paths))
            room -= len(paths)
        if frag:
            stack.append((m, frag))
        n2, r, kids = 2 * m, nmax - m, {}
        for hm, km, parents in step:
            weights = parents.values() if n2 > _window(hm, km) else None  # None: whole, one each
            counts = _child_counts(parents, n2, hm, km)
            s0 = max(hm - r + 1, 0)
            if s0:
                for c, n in (Counter(counts) if weights is None else _add({}, counts, weights)).items():
                    tally[hm, km, m, min(c, s0)] += n
            if s0 < hm:
                keep(m + 1, hm, km, _grow(parents, n2, hm, km, s0, counts),
                     weights and [w for w, c in zip(weights, counts) for _ in range(s0, c)], kids)
            for h, k, paths in _raised(parents, n2, hm, km, h_hi, k_lo, k_hi):
                u = _up_run(paths[0], n2 + 2)  # the children of one head share a site
                undo = 1 << n2 + 1 - u ^ 0b11 << n2  # a child back to its parent
                keep(m + 1, h, k, paths, weights and [parents[bits ^ undo] for bits in paths],
                     kids, u + 1 if 1 < r <= h - u + 1 else 0)  # tallied: u + nmax - (m+1) <= h
        if kids:
            stack.append((m + 1, kids))
    below = _below(h_hi, nmax)
    for (h, k, m, q), parents in tally.items():
        for d, paths in enumerate(below[q - 1][1:nmax - m + 1] if q else (), m + 1):
            rows[h, k][d] += parents * paths
    sums = accumulate((rows[h, k] for h in range(h_lo, h_hi + 1) for k in range(k_lo, k_hi + 1)),
                      lambda acc, row: list(map(add, acc, row)))
    return [list(islice(sums, k_hi - k_lo + 1)) for _ in range(h_lo, h_hi + 1)]


def grid_totals_upto(h_lo: int, h_hi: int, k_lo: int, k_hi: int, nmax: int) -> list[list[list[int]]]:
    """ECO-tree class counts for n = 0..nmax, indexed [h - h_lo][k - k_lo][n], from one tree.

    A cell's tree is the part of the (h_hi, k_hi) tree whose paths have a
    least cell no later on :func:`_walk`'s chain: one running sum over the
    chain.  Only the paths whose subtree can reach a full up-run before depth
    nmax are built, those in (h, k) past h + 2k - 4 steps cut to them and
    merged; the others are counted by up-run (:func:`_count`).  Past ``ClassParams.clamped`` a
    cell shares its clamped cell's row, and an h its clamped h's list, through :func:`clamped_grid`.
    """
    lo = ClassParams(h_lo, k_lo)  # refuses h_lo < 1 and k_lo < 2
    if h_hi < h_lo:
        raise ValueError(f"empty h range {h_lo}..{h_hi}")
    if k_hi < k_lo:
        raise ValueError(f"empty k range {k_lo}..{k_hi}")
    lo, hi = lo.clamped(nmax), ClassParams(h_hi, k_hi).clamped(nmax)
    rows = _count({(lo.h, lo.k): [EMPTY_PATH.bits]}, 0, nmax, lo.h, hi.h, lo.k, hi.k)
    return clamped_grid(h_lo, h_hi, k_lo, k_hi, nmax, lambda cell: rows[cell.h - lo.h][cell.k - lo.k])


def tree_totals_upto(params: ClassParams, nmax: int) -> list[int]:
    """ECO-tree class counts for every semilength 0..nmax: a grid of one cell."""
    return grid_totals_upto(params.h, params.h, params.k, params.k, nmax)[0][0]


def generate(params: ClassParams, n: int) -> list[DyckPath]:
    """All class paths of semilength n, each exactly once, sorted by word."""
    # The bit patterns first: building paths inside the walk would hold the
    # walk's blocks beside them.  They are sorted as ints: for one length,
    # numeric order on bits is word order (D = 0 < U = 1), so the word sort
    # below meets one ascending run, a linear pass with no merge buffer.  It
    # stays keyed on the word because the benchmark's tests patch that line
    # (ROADMAP item 2 moves it to bits).  The paths go to sorted() through a
    # generator, so no list of them is held beside sorted()'s own, and the
    # bit-pattern list is let go before the sort keys are made.
    level = [bits for m, block in walk(params, n) if m == n for bits in block]
    level.sort()
    level = (DyckPath(bits) for bits in level)
    return sorted(level, key=lambda p: p.word)


def invert_first_peak(path: DyckPath) -> DyckPath:
    """Remove the leftmost UD factor; the reverse of the growth operator.

    The growth's bit flip undone: turning the first D into a U gives UU
    followed by the parent, and the parent is the low 2n-2 bits.
    """
    n2 = path.bits.bit_length()
    if n2 == 0:
        raise EmptyPath("the empty path has no peak to remove")
    up = path.bits ^ 1 << n2 - 1 - _up_run(path.bits, n2)
    return DyckPath(up & (1 << n2 - 2) - 1)


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
    """Succession-rule class counts for every semilength 0..nmax, in one sweep,
    taken at ``params.clamped(nmax)``."""
    return [sum(v) for v in _rule_steps(params.clamped(nmax), nmax)]
