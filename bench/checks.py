"""
Reference computations the benchmark checks the package against.

Everything here works on plain data (a strand count and a list of signed
generator indices) and uses nothing from ``braidskein``, so the checks stay
valid when a later change corrects or replaces the package's engine:

* ``walk`` relabels a word with its own basepoint walk, which gives the
  bad-crossing counts the B-free exponent must equal.
* ``component_count`` counts cycles of the underlying permutation.
* ``jones_state_sum`` is a Kauffman-bracket state sum over the closed
  braid, evaluated row by row on planar matchings of the boundary points.
* ``delta_power`` and ``split_jones_factor`` give the closed forms of the
  value of k extra split unknots.
* ``split_blocks`` cuts a word into its strand intervals.

Polynomials are dicts from exponent to integer coefficient.  HOMFLY terms
are keyed by ``(l_exp, m_exp)``; Jones terms by the exponent of t^(1/2),
the same keys ``braidskein`` uses in its JSON output.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb


def walk(n: int, letters: list[int], basepoint: int = 1) -> list[bool]:
    """Label each crossing good (True) or bad (False) by a basepoint walk.

    The walk starts on strand ``basepoint``, follows the closure, and after
    each closed component restarts on the smallest strand not yet visited.
    A crossing first met on its over-strand is good.  A positive letter
    ``i`` passes the strand entering at position ``i`` over.
    """
    rows_at: list[list[int]] = [[] for _ in range(n + 2)]
    for row, s in enumerate(letters):
        rows_at[abs(s)].append(row)
        rows_at[abs(s) + 1].append(row)
    good: list[bool | None] = [None] * len(letters)
    visited = [False] * (n + 1)
    lowest = 1
    start = basepoint
    while start is not None:
        visited[start] = True
        pos, row = start, 0
        while True:
            rows = rows_at[pos]
            k = bisect_left(rows, row)
            if k == len(rows):
                if pos == start:
                    break
                visited[pos] = True
                row = 0
                continue
            r = rows[k]
            s = letters[r]
            i = abs(s)
            if good[r] is None:
                good[r] = pos == (i if s > 0 else i + 1)
            pos = i + 1 if pos == i else i
            row = r + 1
        while lowest <= n and visited[lowest]:
            lowest += 1
        start = lowest if lowest <= n else None
    return good  # type: ignore[return-value]


def bad_balance(letters: list[int], good: list[bool]) -> int:
    """Positive bad crossings minus negative bad crossings."""
    return sum((1 if s > 0 else -1) for s, g in zip(letters, good) if not g)


def component_count(n: int, letters: list[int]) -> int:
    """Number of closure components: cycles of the word's permutation."""
    at = list(range(n + 1))
    for s in letters:
        i = abs(s)
        at[i], at[i + 1] = at[i + 1], at[i]
    seen = [False] * (n + 1)
    cycles = 0
    for p in range(1, n + 1):
        if not seen[p]:
            cycles += 1
            while not seen[p]:
                seen[p] = True
                p = at[p]
    return cycles


# -- Laurent polynomial helpers ------------------------------------------------


def poly_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            key = (ex[0] + ey[0], ex[1] + ey[1]) if isinstance(ex, tuple) else ex + ey
            out[key] = out.get(key, 0) + cx * cy
    return {k: c for k, c in out.items() if c}


def poly_add_into(acc: dict, x: dict, shift: int = 0, scale: int = 1) -> None:
    for e, c in x.items():
        acc[e + shift] = acc.get(e + shift, 0) + scale * c


# -- Kauffman bracket ----------------------------------------------------------

_LOOP = {2: -1, -2: -1}  # d = -A^2 - A^-2, the value of one extra loop


def jones_state_sum(n: int, letters: list[int]) -> dict[int, int]:
    """Jones polynomial of the closure, keyed by exponents of t^(1/2).

    Each crossing is smoothed either along the strands (weight A at a
    positive letter, A^-1 at a negative one) or across them (the other
    weight).  States are planar matchings of the n top points with the n
    points at the current row, so the sum costs rows x matchings, not
    2^crossings.  V = (-A^3)^-writhe * <D> with t = A^-4.
    """
    start = tuple(list(range(n, 2 * n)) + list(range(n)))
    states: dict[tuple[int, ...], dict[int, int]] = {start: {0: 1}}
    for s in letters:
        b1, b2 = n + abs(s) - 1, n + abs(s)
        along, across = (1, -1) if s > 0 else (-1, 1)
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for match, weight in states.items():
            poly_add_into(nxt.setdefault(match, {}), weight, along)
            cut = list(match)
            x, y = match[b1], match[b2]
            w = {e + across: c for e, c in weight.items()}
            if x == b2:
                w = poly_mul(w, _LOOP)
            else:
                cut[x], cut[y] = y, x
            cut[b1], cut[b2] = b2, b1
            poly_add_into(nxt.setdefault(tuple(cut), {}), w)
        states = {m: {e: c for e, c in w.items() if c} for m, w in nxt.items()}
    bracket: dict[int, int] = {}
    for match, weight in states.items():
        loops = _closed_loops(n, match)
        for _ in range(loops - 1):
            weight = poly_mul(weight, _LOOP)
        poly_add_into(bracket, weight)
    writhe = sum(1 if s > 0 else -1 for s in letters)
    sign = -1 if writhe % 2 else 1
    out: dict[int, int] = {}
    for e, c in bracket.items():
        e -= 3 * writhe
        if c:
            if e % 2:
                raise ValueError("odd A exponent in a normalized bracket")
            out[-e // 2] = out.get(-e // 2, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _closed_loops(n: int, match: tuple[int, ...]) -> int:
    """Loops formed when each top point is joined to the bottom point below."""
    seen = [False] * (2 * n)
    loops = 0
    for p in range(2 * n):
        if seen[p]:
            continue
        loops += 1
        q = p
        while not seen[q]:
            seen[q] = True
            r = match[q]
            seen[r] = True
            q = r + n if r < n else r - n
    return loops


# -- split unions --------------------------------------------------------------


def delta_power(k: int) -> dict[tuple[int, int], int]:
    """DELTA^k = (-1)^k m^-k (l + l^-1)^k in closed binomial form."""
    sign = -1 if k % 2 else 1
    return {(k - 2 * j, -k): sign * comb(k, j) for j in range(k + 1)}


def split_jones_factor(k: int) -> dict[int, int]:
    """Jones value of k extra split unknots: (-(t^(1/2) + t^(-1/2)))^k."""
    sign = -1 if k % 2 else 1
    return {k - 2 * j: sign * comb(k, j) for j in range(k + 1)}


def split_blocks(n: int, letters: list[int]) -> list[tuple[int, int, list[int]]]:
    """Cut a word into strand intervals no letter joins.

    Returns ``(first_strand, strand_count, letters)`` per interval, the
    letters renumbered to start at generator 1.  Untouched strands are
    intervals of one strand with no letters.
    """
    joined = [False] * (n + 1)  # joined[i]: some letter crosses strands i, i+1
    for s in letters:
        joined[abs(s)] = True
    blocks = []
    first = 1
    for p in range(1, n + 1):
        if p == n or not joined[p]:
            shift = first - 1
            inside = [s - shift if s > 0 else s + shift
                      for s in letters if first <= abs(s) < p]
            blocks.append((first, p - first + 1, inside))
            first = p + 1
    return blocks


def each_generator_once(strands: int, letters: list[int]) -> bool:
    """True when every generator of the block occurs exactly once.

    Such a closure is an unknot: destabilizing removes one strand and one
    letter at a time.
    """
    return sorted(abs(s) for s in letters) == list(range(1, strands))
