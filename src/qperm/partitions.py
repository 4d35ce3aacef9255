"""Set partitions of {1..k}, the non-crossing lattice NC(k), and its Moebius function.

Partitions are stored in canonical form: blocks sorted by their minimum
element, elements ascending inside each block.  Equality and hashing are
structural, so partitions can index matrices and memo tables directly.
All operations are pure; memoization goes through `functools.lru_cache`,
which is internally synchronized, so concurrent read-only use is safe.
"""

import sys
import time
from functools import lru_cache

import numpy as np

from .errors import BoundError, DimensionError, DomainError

#: Largest ground-set size k that enumeration and the NC(k) order accept
#: (NC(8) has 1430 elements); a larger k raises BoundError.
K_MAX = 8


def _pair_bits(blocks, k):
    """The same-block relation of `blocks` as a k x k bit matrix, bit
    (x - 1) * k + (y - 1) for x and y in one block."""
    pairs = 0
    for b in blocks:
        # row: the block as a k-bit mask; row * spread puts a copy of it
        # at row x - 1 of the bit matrix for each x in the block
        row = spread = 0
        for x in b:
            row |= 1 << (x - 1)
            spread |= 1 << ((x - 1) * k)
        pairs |= row * spread
    return pairs


class SetPartition:
    """A partition of {1..k} into disjoint non-empty blocks.

    `pairs` is the same-block relation as a k x k bit matrix: bit
    (x - 1) * k + (y - 1) is set iff x and y share a block.  For one ground
    size, p <= q iff the pairs of p are a subset of the pairs of q.
    """

    __slots__ = ("ground_size", "blocks", "pairs")

    def __init__(self, blocks, ground_size=None):
        cleaned = []
        seen = set()
        for block in blocks:
            b = tuple(sorted(set(block)))
            if not b:
                raise DomainError("empty block")
            if seen & set(b):
                raise DomainError(f"blocks are not disjoint: {blocks}")
            seen.update(b)
            cleaned.append(b)
        if not seen:
            raise BoundError("ground size 0 is not supported")
        k = max(seen) if ground_size is None else ground_size
        if seen != set(range(1, k + 1)):
            raise DomainError(f"blocks must cover 1..{k} exactly: {blocks}")
        cleaned.sort(key=lambda b: b[0])
        self.ground_size = k
        self.blocks = tuple(cleaned)
        self.pairs = _pair_bits(self.blocks, k)

    @classmethod
    def _canonical(cls, blocks, k):
        """A partition from blocks that are already canonical: tuples in
        ascending order, ordered by their minimum, disjoint and covering
        1..k.  Nothing is checked; input from outside goes through the
        constructor."""
        self = cls.__new__(cls)
        self.ground_size = k
        self.blocks = blocks
        self.pairs = _pair_bits(blocks, k)
        return self

    @classmethod
    def singletons(cls, k):
        """The discrete partition 0_k."""
        return cls([(x,) for x in range(1, k + 1)])

    @classmethod
    def full(cls, k):
        """The one-block partition 1_k."""
        return cls([tuple(range(1, k + 1))])

    @classmethod
    def from_text(cls, text):
        """Parse "1,8|2,7|3" form; any block/element order is accepted."""
        try:
            blocks = [[int(x) for x in part.split(",")] for part in text.split("|")]
        except ValueError as exc:
            raise DomainError(f"unparseable partition text: {text!r}") from exc
        flat = [x for b in blocks for x in b]
        if len(flat) != len(set(flat)):
            raise DomainError(f"duplicate element in partition text: {text!r}")
        if any(x < 1 for x in flat):
            raise DomainError(f"elements must be >= 1: {text!r}")
        return cls(blocks)

    def to_text(self):
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    def block_count(self):
        return len(self.blocks)

    def to_word(self):
        """The word whose kernel is this partition: position x carries the
        1-based number of its block, so blocks are labelled 1, 2, ... in
        canonical order."""
        word = [0] * self.ground_size
        for label, block in enumerate(self.blocks, start=1):
            for x in block:
                word[x - 1] = label
        return tuple(word)

    def sort_key(self):
        """Canonical enumeration key: finer partitions first."""
        return (self.ground_size - len(self.blocks), self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.ground_size == other.ground_size
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.ground_size, self.blocks))

    def __repr__(self):
        return f"SetPartition({self.to_text()!r})"

    def __str__(self):
        return self.to_text()


def _require_same_ground(p, q):
    if p.ground_size != q.ground_size:
        raise DimensionError(
            f"ground sizes differ: {p.ground_size} vs {q.ground_size}"
        )


def _check_k(k):
    if not 1 <= k <= K_MAX:
        raise BoundError(f"k={k} outside 1..{K_MAX}")


def is_noncrossing(p):
    """True iff the blocks of p can be removed one at a time, each an interval
    of the positions still remaining: the recursive characterization of NC.

    Positions are bits of one integer, so the interval test is a mask
    comparison: the remaining positions in [min, max] of a block are the
    block itself.  A round with no interval block happens exactly when p
    crosses.
    """
    masks = {}
    for b in p.blocks:
        own = 0
        for x in b:
            own |= 1 << x
        masks[b] = (own, (2 << b[-1]) - (1 << b[0]))
    alive = (2 << p.ground_size) - 2
    while masks:
        block = next((b for b, (own, span) in masks.items() if alive & span == own), None)
        if block is None:
            return False
        alive ^= masks.pop(block)[0]
    return True


def _restricted_growth(k, noncrossing):
    """P(k), or NC(k) when `noncrossing`, in canonical order.

    Restricted growth strings: position x carries the label of its block,
    labels counted from 0 in order of first occurrence, so blocks come out
    canonical (ordered by minimum).  A non-crossing prefix stays so when the
    next position joins an existing block iff every position after that
    block's last one lies in a block first seen after it; for NC(k) any
    other prefix is pruned at once."""
    results = []

    def joins_without_crossing(prefix, a):
        last = len(prefix) - 1 - prefix[::-1].index(a)
        opened = max(prefix[: last + 1])
        return all(b > opened for b in prefix[last + 1 :])

    def extend(prefix, mx):
        if len(prefix) == k:
            nb = mx + 1
            blocks = [[] for _ in range(nb)]
            for pos, lab in enumerate(prefix, start=1):
                blocks[lab].append(pos)
            results.append(SetPartition(blocks))
            return
        for a in range(mx + 2):
            if noncrossing and a <= mx and not joins_without_crossing(prefix, a):
                continue
            prefix.append(a)
            extend(prefix, max(mx, a))
            prefix.pop()

    extend([], -1)
    results.sort(key=SetPartition.sort_key)
    return tuple(results)


@lru_cache(maxsize=None)
def _all_partitions(k):
    return _restricted_growth(k, noncrossing=False)


@lru_cache(maxsize=None)
def _all_nc(k):
    return _restricted_growth(k, noncrossing=True)


def enumerate_partitions(k):
    """All of P(k) in canonical order (finer first); |P(k)| = Bell(k)."""
    _check_k(k)
    return list(_all_partitions(k))


def enumerate_nc(k):
    """All of NC(k) in canonical order; |NC(k)| = Catalan(k)."""
    _check_k(k)
    return list(_all_nc(k))


def leq(p, q):
    """Refinement order: every block of p lies inside a block of q, i.e. every
    same-block pair of p is one of q."""
    _require_same_ground(p, q)
    return not p.pairs & ~q.pairs


def _block_masks(p):
    """The blocks of p as k-bit masks, bit x - 1 for element x."""
    return tuple(sum(1 << (x - 1) for x in b) for b in p.blocks)


def _from_masks(masks, k):
    return SetPartition(
        ([x + 1 for x in range(k) if m >> x & 1] for m in masks), ground_size=k
    )


def _join_masks(groups, masks):
    """The blocks of p v q as masks, from the block masks of p (`groups`) and
    of q (`masks`): each block of q is merged with every group it overlaps,
    and the groups left are the blocks of the join."""
    for m in masks:
        merged, rest = m, []
        for g in groups:
            if g & m:
                merged |= g
            else:
                rest.append(g)
        rest.append(merged)
        groups = rest
    return groups


def join(p, q):
    """Least upper bound in P(k): transitive closure of the union of the
    block relations.  Not restricted to NC(k) even for non-crossing inputs."""
    _require_same_ground(p, q)
    return _from_masks(_join_masks(_block_masks(p), _block_masks(q)), p.ground_size)


def meet(p, q):
    """Greatest lower bound in P(k): blockwise intersections."""
    _require_same_ground(p, q)
    other = _block_masks(q)
    return _from_masks(
        [a & b for a in _block_masks(p) for b in other if a & b], p.ground_size
    )


def kernel(indices):
    """Partition of positions {1..k} grouping equal symbols."""
    items = list(indices)
    if not items:
        raise BoundError("kernel of an empty tuple")
    groups = {}
    for pos, sym in enumerate(items, start=1):
        groups.setdefault(sym, []).append(pos)
    # positions ascend within a group, and groups open in order of their minimum
    return SetPartition._canonical(tuple(map(tuple, groups.values())), len(items))


def _debug(module, message, *args):
    """One `logging` debug record of a table build, on the logger of `module`.

    `message` starts with the kind of build and " k=", and the build's
    seconds are the last of `args`: `reproduce-all --timings` sums them.
    Nothing is recorded while the logging package is not imported: no
    handler or level can have been set then, and importing it would cost
    the first table build a few milliseconds."""
    logging = sys.modules.get("logging")
    if logging is None:
        return
    logging.getLogger(module).debug(message, *args, stacklevel=2)


def _packed_rows(matrix):
    """Each row of a boolean matrix as a Python int, bit j for column j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


@lru_cache(maxsize=None)
def _nc_order_data(k):
    """(partitions, index map, up-sets, down-sets) for NC(k), the sets as
    bitmasks of positions: bit j of up[i] and bit i of down[j] are set iff
    nc[i] <= nc[j].

    p <= q implies |p| >= |q|, and the enumeration puts finer partitions
    first, so the up-set of nc[i] lies in positions i and above."""
    start = time.perf_counter()
    nc = _all_nc(k)
    pos = {p: i for i, p in enumerate(nc)}
    # p <= q iff the same-block pairs of p are pairs of q: k^2 <= 64 bits
    pairs = np.array([p.pairs for p in nc], dtype=np.uint64)
    order = (pairs[:, None] & ~pairs[None, :]) == 0
    up, down = _packed_rows(order), _packed_rows(order.T)
    _debug(__name__, "NC order k=%d N=%d seconds=%.4f", k, len(nc), time.perf_counter() - start)
    return nc, pos, up, down


@lru_cache(maxsize=None)
def _nc_below(ker):
    """Positions in NC(k), canonical order, of the partitions p <= ker."""
    _check_k(ker.ground_size)
    mask = ~ker.pairs
    return tuple(a for a, p in enumerate(_all_nc(ker.ground_size)) if not p.pairs & mask)


@lru_cache(maxsize=None)
def _nc_positions(k):
    """Every position in NC(k): the positions below 1_k, built once per k;
    k outside 1..K_MAX raises BoundError."""
    _check_k(k)
    return _nc_below(SetPartition.full(k))


@lru_cache(maxsize=None)
def _mobius_column(k, b):
    """mu_k(nc[a], nc[b]) for all a, computed by the right-hand recursion
    sum_{p <= t <= q} mu(t, q) = [p == q], walking the down-set of nc[b]
    from coarser to finer (against the enumeration order)."""
    nc, _, up, down = _nc_order_data(k)
    start = time.perf_counter()
    column = [0] * len(nc)
    column[b] = 1
    mask = down[b]
    for a in range(b - 1, -1, -1):
        if not (mask >> a) & 1:
            continue
        s = 0
        bit = up[a] & mask
        while bit:
            t = (bit & -bit).bit_length() - 1
            if t != a:
                s += column[t]
            bit &= bit - 1
        column[a] = -s
    _debug(__name__, "mobius column k=%d b=%d seconds=%.4f", k, b, time.perf_counter() - start)
    return tuple(column)


def up_down_interval(k, a, b):
    """Bitmask of NC(k) indices t with nc[a] <= t <= nc[b]."""
    _check_k(k)
    _, _, up, down = _nc_order_data(k)
    return up[a] & down[b]


def _nc_index(k, p):
    """Position of p in NC(k)'s canonical order; k is bounded by K_MAX, and a
    p that crosses or has another ground size raises DomainError."""
    _check_k(k)
    try:
        return _nc_order_data(k)[1][p]
    except KeyError:
        raise DomainError(f"{p} is not in NC({k})") from None


@lru_cache(maxsize=None)
def _mobius_below(pi):
    """(positions, mus): the positions in NC(k) of the partitions below pi,
    as `_nc_below` gives them, and mu(nc[a], pi) for each position a, read
    from one Moebius column; a pi that crosses raises DomainError."""
    k = pi.ground_size
    column = _mobius_column(k, _nc_index(k, pi))
    below = _nc_below(pi)
    return below, tuple(column[a] for a in below)


def mobius_nc(p, q):
    """Moebius function of the lattice NC(k), by memoized recursion; a column
    is 0 outside the down-set of q."""
    _require_same_ground(p, q)
    k = p.ground_size
    a, b = _nc_index(k, p), _nc_index(k, q)
    return _mobius_column(k, b)[a]


def mobius_nc_chain_count(p, q):
    """Moebius value by the alternating count of strict chains p < v1 < ... < vl < q.

    Exponential-cost cross-check of mobius_nc; chains live in the finite
    open interval, so their length is implicitly bounded by |p| - |q| - 1.
    """
    _require_same_ground(p, q)
    k = p.ground_size
    a, b = _nc_index(k, p), _nc_index(k, q)
    if a == b:
        return 1
    if not leq(p, q):
        return 0
    up = _nc_order_data(k)[2]
    inner = up_down_interval(k, a, b) & ~(1 << a) & ~(1 << b)
    members = []
    bit = inner
    while bit:
        members.append((bit & -bit).bit_length() - 1)
        bit &= bit - 1

    # h(v) = (alternating-sign count of chains starting at v) satisfies
    # h(v) = 1 - sum_{w > v in the open interval} h(w).
    h = {}

    def signed_chains_from(v):
        if v in h:
            return h[v]
        s = 1
        for w in members:
            if w != v and (up[v] >> w) & 1:
                s -= signed_chains_from(w)
        h[v] = s
        return s

    return -1 + sum(signed_chains_from(v) for v in members)
