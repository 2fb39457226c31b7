"""Symbolic spaces and prefix transducers.

A symbolic space is a countable product of discrete alphabets (size >= 2 per
level, or unbounded).  A prefix transducer is a monotone, productive map on
finite words with an explicit modulus: inputs of length modulus(k) determine
at least k output symbols.  These are the finite, checkable avatars of
continuous maps between the corresponding infinite-product spaces.

This module owns the packed layout: position pair(n, i) of a packed word
holds symbol i of component n.  The slot walker `_slots` is the one place
that lists a component's positions, one component at a time, and
`stream_width` counts them in closed form.  The product step walks only the
components whose map is not the identity: an identity component's symbols
pass through where they stand.  Everything else reads components through
`extract_stream`, `pack_streams`, `stream_width` and the projections of a
`ProductLift`, and asks a projection's modulus for packed sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count
from math import isqrt
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    CertificationError,
    EmptyFamily,
    InsufficientInput,
    InvalidBranch,
    SpaceMismatch,
)
from .pairing import pair

Word = tuple[int, ...]


# === spaces ===


@dataclass(frozen=True)
class SymbolicSpace:
    """Alphabet sizes per level: an explicit head, then a constant tail.
    None means an unbounded (N-valued) level."""

    head: tuple[Optional[int], ...] = ()
    tail: Optional[int] = 2

    def __post_init__(self):
        for a in (*self.head, self.tail):
            if a is not None and a < 2:
                raise CertificationError(f"alphabet size {a} < 2")

    def arities(self, length: int) -> list[Optional[int]]:
        """Alphabet sizes of levels 0 .. length - 1."""
        return list(self.head[:length]) + [self.tail] * (length - len(self.head))


@dataclass(frozen=True)
class InterleavedSpace:
    """Countably many component spaces packed on one index line: position
    pair(n, i) carries symbol i of component n; components beyond the
    explicit list follow the tail component."""

    components: tuple
    tail_component: Union[SymbolicSpace, "InterleavedSpace"]

    def component(self, n: int) -> Space:
        if n < 0:
            raise InvalidBranch(f"component index must be nonnegative, got {n}")
        return self.components[n] if n < len(self.components) else self.tail_component

    def arities(self, length: int) -> list[Optional[int]]:
        """Alphabet sizes of packed positions 0 .. length - 1."""
        out: list[Optional[int]] = [None] * length
        for n in count():
            slots = list(_slots(n, length))
            if not slots:
                return out
            for p, a in zip(slots, self.component(n).arities(len(slots))):
                out[p] = a


Space = Union[SymbolicSpace, InterleavedSpace]

CANTOR = SymbolicSpace((), 2)
BAIRE = SymbolicSpace((), None)


def validate_word(space: Space, w: Sequence[int]) -> Word:
    for i, (s, a) in enumerate(zip(w, space.arities(len(w)))):
        if s < 0 or (a is not None and s >= a):
            raise InvalidBranch(f"symbol {s} at position {i} leaves alphabet of size {a}")
    return tuple(w)


@dataclass(frozen=True)
class Stream:
    """Eventually periodic infinite symbol sequence: pre, then cycle forever."""

    pre: Word = ()
    cycle: Word = (0,)

    def __post_init__(self):
        if not self.cycle:
            raise CertificationError("stream cycle must be nonempty")

    def prefix(self, k: int) -> Word:
        if k < 0:
            raise CertificationError(f"prefix length must be nonnegative, got {k}")
        out = list(self.pre[:k])
        i = 0
        while len(out) < k:
            out.append(self.cycle[i % len(self.cycle)])
            i += 1
        return tuple(out)


# === transducers ===


@dataclass
class PrefixTransducer:
    domain: Space
    codomain: Space
    step_fn: Callable[[Word], Word]
    modulus_fn: Callable[[int], int]
    name: str = "map"

    def step(self, w: Sequence[int]) -> Word:
        return self.step_fn(validate_word(self.domain, w))

    def modulus(self, k: int) -> int:
        m = self.modulus_fn(k)
        if m < 0:
            raise CertificationError(f"negative modulus {m}")
        return m

    def __repr__(self):
        return f"<transducer {self.name}>"


def evaluate_transducer(f: PrefixTransducer, w: Sequence[int], k: int) -> Word:
    """Run f on w, demanding at least k determined output symbols."""
    need = f.modulus(k)
    if len(w) < need:
        raise InsufficientInput(
            f"{f.name}: resolution {k} needs {need} input symbols, got {len(w)}"
        )
    out = f.step(w)
    if len(out) < k:
        raise CertificationError(
            f"{f.name}: productivity violated: modulus({k}) = {need} "
            f"but only {len(out)} symbols determined"
        )
    return validate_word(f.codomain, out)


def compose_transducers(f: PrefixTransducer, g: PrefixTransducer) -> PrefixTransducer:
    """f after g.  Modulus law: (f.g).modulus(k) = g.modulus(f.modulus(k))."""
    if g.codomain != f.domain:
        raise SpaceMismatch(f"cannot compose {f.name} after {g.name}")
    return PrefixTransducer(
        g.domain,
        f.codomain,
        lambda w: f.step_fn(g.step_fn(w)),
        lambda k: g.modulus(f.modulus(k)),
        name=f"({f.name} . {g.name})",
    )


# === built-ins ===


def _identity_step(w: Word) -> Word:
    return w


def _identity_modulus(k: int) -> int:
    return k


def identity_transducer(space: Space) -> PrefixTransducer:
    return PrefixTransducer(space, space, _identity_step, _identity_modulus, "id")


def _is_identity(f: PrefixTransducer) -> bool:
    """True only for the rules `identity_transducer` installs, whatever the name."""
    return f.step_fn is _identity_step and f.modulus_fn is _identity_modulus


def shift_transducer(space: Space) -> PrefixTransducer:
    if isinstance(space, SymbolicSpace) and space.head:
        raise SpaceMismatch("shift needs a level-independent alphabet")
    return PrefixTransducer(space, space, lambda w: w[1:], lambda k: k + 1, "shift")


def constant_transducer(domain: Space, codomain: Space, value: Stream) -> PrefixTransducer:
    return PrefixTransducer(
        domain,
        codomain,
        lambda w: value.prefix(len(w)),
        lambda k: k,
        f"const:{','.join(map(str, value.pre))};{','.join(map(str, value.cycle))}",
    )


def odometer_transducer() -> PrefixTransducer:
    """Binary add-one-with-carry on the two-symbol space."""

    def step(w: Word) -> Word:
        out = []
        carry = True
        for b in w:
            if carry:
                out.append(1 - b)
                carry = b == 1
            else:
                out.append(b)
        # with carry still pending the next output symbol is undetermined,
        # but all |w| flips emitted so far are final
        return tuple(out)

    return PrefixTransducer(CANTOR, CANTOR, step, lambda k: k, "odometer")


def substitution_transducer(rules: dict[int, Word]) -> PrefixTransducer:
    if not rules:
        raise EmptyFamily("substitution needs at least one rule")
    if any(len(img) == 0 for img in rules.values()):
        raise CertificationError("substitution images must be nonempty")
    min_len = min(len(img) for img in rules.values())

    def step(w: Word) -> Word:
        out: list[int] = []
        for s in w:
            if s not in rules:
                raise InvalidBranch(f"no substitution rule for symbol {s}")
            out.extend(rules[s])
        return tuple(out)

    return PrefixTransducer(
        CANTOR, CANTOR, step, lambda k: -(-k // min_len), "substitution"
    )


def block_transducer(
    domain: Space,
    codomain: Space,
    table: dict[Word, Word],
    in_block: int,
    out_block: int,
) -> PrefixTransducer:
    """Tabulated map applied to consecutive input blocks of fixed length."""
    if in_block < 1 or out_block < 1:
        raise CertificationError(
            f"block lengths must be positive, got {in_block} and {out_block}"
        )
    if any(len(k) != in_block or len(v) != out_block for k, v in table.items()):
        raise CertificationError("table entries must match the block lengths")

    def step(w: Word) -> Word:
        out: list[int] = []
        for j in range(len(w) // in_block):
            key = w[j * in_block : (j + 1) * in_block]
            if key not in table:
                raise InvalidBranch(f"no table entry for block {key}")
            out.extend(table[key])
        return tuple(out)

    return PrefixTransducer(
        domain,
        codomain,
        step,
        lambda k: in_block * (-(-k // out_block)),
        "block-map",
    )


# === interleaving ===


def _slots(n: int, length: int) -> Iterator[int]:
    """Packed positions of component n below length, in order: symbol i sits
    at pair(n, i), and pair(n, i + 1) - pair(n, i) = n + i + 2."""
    p, step = pair(n, 0), n + 2
    while p < length:
        yield p
        p += step
        step += 1


def stream_width(n: int, length: int) -> int:
    """Number of symbols of component n a packed word of this length holds."""
    if n < 0:
        raise InvalidBranch(f"component index must be nonnegative, got {n}")
    # component n has one slot on each diagonal s >= n, at pair(n, s - n) =
    # (s^2 + 3s)/2 - n; the last diagonal below length is the largest s
    # with (2s + 3)^2 <= 8(length + n) + 5
    return max(0, (isqrt(8 * (length + n) + 5) - 3) // 2 - n + 1)


def _packed_length(n: int, k: int) -> int:
    """Length of the shortest packed word holding symbols 0..k-1 of
    component n."""
    return pair(n, k - 1) + 1 if k > 0 else 0


def extract_stream(packed: Sequence[int], n: int) -> Word:
    """Contiguous determined prefix of component n inside a packed word."""
    if n < 0:
        raise InvalidBranch(f"component index must be nonnegative, got {n}")
    return tuple(packed[p] for p in _slots(n, len(packed)))


def pack_streams(
    streams: Sequence[Sequence[int]],
    length: Optional[int] = None,
) -> Word:
    """Interleave finite prefixes; components beyond the list read 0.

    Without an explicit length the result is the maximal packed prefix all of
    whose positions are determined by the given streams.
    """
    if streams:
        gap, n = min((pair(n, len(s)), n) for n, s in enumerate(streams))
        if length is None:
            length = gap
        elif length > gap:
            raise InsufficientInput(
                f"position {gap} needs symbol {len(streams[n])} of stream {n}"
            )
    elif length is None:
        raise CertificationError("packing no streams needs an explicit length")
    if length < 0:
        raise CertificationError(f"packed length must be nonnegative, got {length}")
    out = [0] * length
    for n, s in enumerate(streams):
        for p, sym in zip(_slots(n, length), s):
            out[p] = sym
    return tuple(out)


# === the product lift ===


def _component(maps, tail, n: int) -> PrefixTransducer:
    return maps[n] if n < len(maps) else tail


def _product_step(component, w: Word) -> Word:
    # The output ends at the first position a component leaves open.
    # First slots pair(n, 0) grow with n, so a component whose first
    # slot lies at or past the end found so far can neither add a
    # position nor end the output sooner.
    outs: list[tuple[int, Word]] = []
    end = None
    n = 0
    while end is None or pair(n, 0) < end:
        f = component(n)
        if _is_identity(f):
            open_at = pair(n, stream_width(n, len(w)))
        else:
            outs.append((n, f.step_fn(extract_stream(w, n))))
            open_at = pair(n, len(outs[-1][1]))
        end = open_at if end is None else min(end, open_at)
        n += 1
    # An identity component leaves open its first slot at or past len(w),
    # so its slots below end all lie below len(w) and already hold its
    # output: the packed word starts as w, zero-padded when end > len(w),
    # and only the other components' slots are written.
    out = list(w[:end]) + [0] * (end - len(w))
    for n, s in outs:
        for p, sym in zip(_slots(n, end), s):
            out[p] = sym
    return tuple(out)


def _is_product(f: PrefixTransducer) -> bool:
    """True only for the modulus rule `ProductLift` installs."""
    return isinstance(f.modulus_fn, partial) and f.modulus_fn.func is _product_modulus


def _product_modulus(component, k: int) -> int:
    # Moduli need not be monotone, so every symbol's modulus is asked, but
    # a product modulus is nondecreasing in k (each term of the max below
    # grows with k), so a nested product is asked at its last slot alone.
    # An identity component asks for no more than its own slots below k.
    need = k
    n = 0
    while pair(n, 0) < k:
        f = component(n)
        if not _is_identity(f):
            width = stream_width(n, k)
            if _is_product(f):
                m = f.modulus(width)
            else:
                m = max(f.modulus(i) for i in range(1, width + 1))
            need = max(need, _packed_length(n, m))
        n += 1
    return need


@dataclass
class ProductLift:
    """A self-transducer of the packed space acting componentwise, with its
    projections.  Projection n intertwines the lift with component map n."""

    maps: list[PrefixTransducer]
    tail_map: PrefixTransducer
    packed_space: InterleavedSpace
    lift: PrefixTransducer = field(init=False)

    def __post_init__(self):
        # The lift's rules hold the maps, not self: bound methods of self
        # would make self and its lift a reference cycle, which keeps every
        # lifted member and its memos alive until a full garbage collection.
        component = partial(_component, self.maps, self.tail_map)
        self.lift = PrefixTransducer(
            self.packed_space,
            self.packed_space,
            partial(_product_step, component),
            partial(_product_modulus, component),
            "product-lift",
        )

    def component_map(self, n: int) -> PrefixTransducer:
        if n < 0:
            raise InvalidBranch(f"component index must be nonnegative, got {n}")
        return _component(self.maps, self.tail_map, n)

    def projection(self, n: int) -> PrefixTransducer:
        return PrefixTransducer(
            self.packed_space,
            self.packed_space.component(n),
            lambda w: extract_stream(w, n),
            lambda k: _packed_length(n, k),
            f"proj[{n}]",
        )

    def projection_preimage(self, n: int, u: Sequence[int]) -> Word:
        """A packed word whose component n reads exactly u: surjectivity witness."""
        if n < 0:
            raise InvalidBranch(f"component index must be nonnegative, got {n}")
        out = [0] * _packed_length(n, len(u))
        for p, sym in zip(_slots(n, len(out)), u):
            out[p] = sym
        return tuple(out)


def product_lift(
    maps: Sequence[PrefixTransducer], tail_space: Optional[Space] = None
) -> ProductLift:
    """Lift countably many self-maps to one self-map of the packed space.

    `maps` is the explicit finite list, each on its own space; components
    beyond it are the identity on `tail_space` (by default the first map's
    space, so an empty list needs one).
    """
    for f in maps:
        if f.domain != f.codomain:
            raise SpaceMismatch(f"{f.name} is not a self-transducer")
    if tail_space is None:
        if not maps:
            raise EmptyFamily("a product of no maps needs a tail space")
        tail_space = maps[0].domain
    packed = InterleavedSpace(tuple(f.domain for f in maps), tail_space)
    return ProductLift(list(maps), identity_transducer(tail_space), packed)
