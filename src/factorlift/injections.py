"""A universal injection on N and certified embeddings of finite injections into it.

The functional digraph of an injection decomposes into cycles, one-sided
infinite forward rays, and bi-infinite lines.  The layout below realizes one
copy of every component shape for every copy index, so any injection embeds:

    index = pair(pair(shape, copy), pos)

shape 0 is the bi-infinite line (pos holds a zig-zag code for a signed
position), shape 1 the forward ray (pos in N), shape n+1 the cycle of length
n (pos reduced mod n).  `successor` advances one step inside a component and
is injective on the whole layout.

Decoding an index costs two integer square roots (one per Cantor level);
stepping costs one `pair`.  `successors` walks a sequence of indices with one
decode per walk rather than one per index: a step only moves pos, so the
successor it builds, pair(component, pos'), decodes to (component, shape,
pos') exactly, pairing being a bijection, and an input equal to a successor
built earlier reuses that decode.  The embedding check and the l1
commutation certificate read their edges through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import Iterable, Iterator

from .errors import CertificationError, InvalidIndex, NotInjective
from .pairing import pair, unpair

LAYOUT_VERSION = 1

LINE_SHAPE = 0
RAY_SHAPE = 1


class ComponentType(Enum):
    CYCLE = "cycle"
    FORWARD_RAY = "ray"
    BI_INFINITE_LINE = "line"
    UNRESOLVED = "unresolved"


# === layout codecs ===


def zigzag(p: int) -> int:
    """Signed position -> N: 0,1,2,... for p = 0,-1,1,-2,2,..."""
    return 2 * p if p >= 0 else -2 * p - 1


def unzigzag(q: int) -> int:
    return q // 2 if q % 2 == 0 else -(q + 1) // 2


def _component(shape: int, copy: int) -> int:
    """pair(shape, copy): one copy of a line, a ray or a cycle."""
    if copy < 0:
        raise InvalidIndex(f"copies live in N, got {copy}")
    return pair(shape, copy)


def _encode(component: int, shape: int, position: int) -> int:
    """The layout index of a position on pair(shape, copy): a line position
    through zigzag, a cycle position mod the length shape - 1."""
    if shape == LINE_SHAPE:
        return pair(component, zigzag(position))
    if shape == RAY_SHAPE:
        if position < 0:
            raise InvalidIndex(f"ray positions live in N, got {position}")
        return pair(component, position)
    return pair(component, position % (shape - 1))


def encode_line(copy: int, position: int) -> int:
    return _encode(_component(LINE_SHAPE, copy), LINE_SHAPE, position)


def encode_ray(copy: int, position: int) -> int:
    return _encode(_component(RAY_SHAPE, copy), RAY_SHAPE, position)


def encode_cycle(length: int, copy: int, position: int) -> int:
    if length < 1:
        raise InvalidIndex(f"cycle length must be >= 1, got {length}")
    return _encode(_component(length + 1, copy), length + 1, position)


@dataclass(frozen=True)
class DecodedIndex:
    kind: ComponentType
    copy: int
    position: int  # signed for lines, >= 0 for rays, 0..len-1 for cycles
    cycle_length: int | None = None


def _split(index: int) -> tuple[int, int, int, int]:
    """(pair(shape, copy), shape, copy, position code) of a layout index."""
    if index < 0:
        raise InvalidIndex(f"layout indices are nonnegative, got {index}")
    component, q = unpair(index)
    shape, copy = unpair(component)
    if shape > RAY_SHAPE and q >= shape - 1:
        raise InvalidIndex(
            f"index {index} claims position {q} on a cycle of length {shape - 1}"
        )
    return component, shape, copy, q


def decode_index(index: int) -> DecodedIndex:
    _, shape, copy, q = _split(index)
    if shape == LINE_SHAPE:
        return DecodedIndex(ComponentType.BI_INFINITE_LINE, copy, unzigzag(q))
    if shape == RAY_SHAPE:
        return DecodedIndex(ComponentType.FORWARD_RAY, copy, q)
    return DecodedIndex(ComponentType.CYCLE, copy, q, cycle_length=shape - 1)


def _step(shape: int, q: int) -> int:
    """The position code one step on: zigzag(unzigzag(q) + 1) on a line,
    q + 1 on a ray, q + 1 mod the length on a cycle."""
    if shape == LINE_SHAPE:
        return q + 2 if q % 2 == 0 else max(q - 2, 0)
    if shape == RAY_SHAPE:
        return q + 1
    return (q + 1) % (shape - 1)


def successor(index: int) -> int:
    """One forward step inside the component of `index`.  Injective on N.
    Only the position code moves."""
    component, shape, _, q = _split(index)
    return pair(component, _step(shape, q))


def successors(indices: Iterable[int]) -> Iterator[int]:
    """successor(x) for each x of `indices` in turn.

    An x equal to a successor built earlier, pair(component, q), takes the
    decode (component, shape, q) it was built from; pairing is a bijection,
    so that is the decode `_split` would give.  Any other x goes through
    `_split`, and an invalid one raises as `successor` does.  A decode is
    carried until its index comes in, so a walk along a component decodes
    once."""
    built: dict[int, tuple[int, int, int]] = {}
    for x in indices:
        carried = built.pop(x, None)
        if carried is None:
            component, shape, _, q = _split(x)
        else:
            component, shape, q = carried
        q = _step(shape, q)
        s = pair(component, q)
        built[s] = component, shape, q
        yield s


# === finite injections ===


@dataclass(frozen=True)
class OracleEntry:
    """Caller-certified component data for one member.

    component: any stable id (the serialized form uses the anchor member);
    offset: position within the component, consistent along entries
    (successor adds 1; cycles wrap mod length).
    """

    component: int
    kind: ComponentType
    offset: int = 0


@dataclass
class PartialInjection:
    """A finite injective map on N plus optional component declarations."""

    entries: dict[int, int]
    component_oracle: dict[int, OracleEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = self.entries.values()
        if (
            min(self.entries, default=0) < 0
            or min(values, default=0) < 0
            or len(set(values)) != len(values)
        ):
            self._refuse()

    def _refuse(self) -> None:
        """Raise for the first entry, in order, that leaves N or repeats an
        image."""
        seen: dict[int, int] = {}
        for i, j in self.entries.items():
            if i < 0 or j < 0:
                raise InvalidIndex(f"entry {i} -> {j} leaves N")
            if j in seen:
                raise NotInjective(f"both {seen[j]} and {i} map to {j}")
            seen[j] = i

    def inverse(self) -> dict[int, int]:
        return {j: i for i, j in self.entries.items()}

    def nodes(self) -> set[int]:
        ns = set(self.entries) | set(self.entries.values())
        ns.update(self.component_oracle)
        return ns


@dataclass(frozen=True)
class Component:
    kind: ComponentType
    members: tuple[int, ...]   # path order (cycle: anchor first, then forward)
    positions: tuple[int, ...]  # layout positions, parallel to members


def classify_components(sigma: PartialInjection) -> list[Component]:
    """Split the functional digraph of `sigma` into typed components.

    A closed walk certifies a cycle on its own.  Paths become FORWARD_RAY or
    BI_INFINITE_LINE only when the oracle declares them; otherwise they stay
    UNRESOLVED (a finite path embeds into a line regardless); an oracle entry
    of kind UNRESOLVED declares nothing, on any shape.  Components come in
    order of their smallest member: each walk starts at the least
    node not yet visited, the minimum of its own component.
    """
    inv = sigma.inverse()
    out: list[Component] = []
    visited: set[int] = set()
    for start in sorted(sigma.nodes()):
        if start in visited:
            continue
        members, is_cycle = _walk_component(start, sigma.entries, inv)
        visited.update(members)
        out.append(_type_component(members, is_cycle, sigma))
    return out


def _walk_component(start, entries, inv) -> tuple[list[int], bool]:
    """(members in path order, whether they close into a cycle), walking
    forward from `start`, the least member of its component: a cycle closes
    at start, already anchored at its minimum, and only a path that ends
    walks back from start to its back end."""
    members = [start]
    node, nxt = start, entries.get(start)
    while nxt is not None:
        # injective entries give every node one predecessor; another one
        # would bring a walk back into its own path
        if inv[nxt] != node:
            raise NotInjective(f"walk from {start} re-enters mid-path at {nxt}")
        if nxt == start:
            return members, True
        members.append(nxt)
        node, nxt = nxt, entries.get(nxt)
    back = []
    node = start
    while node in inv:
        node = inv[node]
        back.append(node)
    back.reverse()
    return back + members, False


def _type_component(members, is_cycle, sigma: PartialInjection) -> Component:
    declared = sigma.component_oracle
    oracle = {
        m: declared[m] for m in members
        if m in declared and declared[m].kind is not ComponentType.UNRESOLVED
    }
    if is_cycle:
        n = len(members)
        for m, entry in oracle.items():
            if entry.kind is not ComponentType.CYCLE:
                raise CertificationError(
                    f"oracle declares {entry.kind.value} but {m} lies on a {n}-cycle"
                )
        _check_cycle_offsets(members, oracle, n)
        return Component(ComponentType.CYCLE, tuple(members), tuple(range(n)))
    kinds = {e.kind for e in oracle.values()}
    if not kinds:
        # Finite path of unknown type: smallest explored member sits at 0.
        anchor = min(members)
        base = members.index(anchor)
        positions = tuple(i - base for i in range(len(members)))
        return Component(ComponentType.UNRESOLVED, tuple(members), positions)
    if len(kinds) > 1:
        raise CertificationError(f"oracle conflicts on one component: {kinds}")
    kind = kinds.pop()
    if kind is ComponentType.CYCLE:
        raise CertificationError(
            "oracle declares a cycle but the explored walk does not close"
        )
    offsets = _propagate_offsets(members, oracle)
    if kind is ComponentType.FORWARD_RAY:
        if offsets[0] < 0:
            raise CertificationError(
                f"ray offsets must stay in N, back end sits at {offsets[0]}"
            )
    return Component(kind, tuple(members), tuple(offsets))


def _check_cycle_offsets(members, oracle, n) -> None:
    # Offsets of a declared cycle only need to be consistent up to rotation.
    if not oracle:
        return
    position = {m: k for k, m in enumerate(members)}
    anchor_member, anchor = min(oracle.items())
    base = position[anchor_member]
    for m, entry in oracle.items():
        steps = (position[m] - base) % n
        if (entry.offset - anchor.offset) % n != steps:
            raise CertificationError(
                f"cycle offsets inconsistent at {m}: "
                f"declared {entry.offset}, expected {anchor.offset}+{steps} mod {n}"
            )


def _propagate_offsets(members, oracle) -> list[int]:
    position = {m: k for k, m in enumerate(members)}
    anchor_member, anchor = min(oracle.items())
    base = position[anchor_member]
    offsets = [anchor.offset + (i - base) for i in range(len(members))]
    for m, entry in oracle.items():
        if offsets[position[m]] != entry.offset:
            raise CertificationError(
                f"path offsets inconsistent at {m}: declared {entry.offset}, "
                f"walk gives {offsets[position[m]]}"
            )
    return offsets


# === embedding ===


@dataclass
class EmbeddingCertificate:
    """A verified conjugacy between a finite injection and the layout.

    relabel is injective; for every edge i -> sigma(i) with both ends
    relabeled, successor(relabel[i]) == relabel[sigma(i)] holds exactly.
    The check reads the edges along each component's path order (and the
    closing edge of a cycle) through `successors`, so each component is
    decoded once; every walked edge must be an entry of sigma, and the walks
    must read as many edges as sigma has with both ends relabeled, so each of
    those is checked exactly once.
    """

    relabel: dict[int, int]
    components: list[Component]
    copies: dict[int, int]  # shape code -> fresh copies used (shapes in use only)
    checked_edges: int
    layout_version: int = LAYOUT_VERSION


def embed_injection(sigma: PartialInjection) -> EmbeddingCertificate:
    """Embed a finite injection into the layout, one fresh copy per component.

    Components are allocated in order of their smallest member, so the result
    is deterministic.  Unresolved finite paths are placed on bi-infinite
    lines, which is always sound for an injection.
    """
    components = classify_components(sigma)
    relabel: dict[int, int] = {}
    copies: dict[int, int] = {}
    for comp in components:
        if comp.kind is ComponentType.CYCLE:
            shape = len(comp.members) + 1
        elif comp.kind is ComponentType.FORWARD_RAY:
            shape = RAY_SHAPE
        else:  # declared line or unresolved path
            shape = LINE_SHAPE
        copy = copies.get(shape, 0)
        copies[shape] = copy + 1
        component = _component(shape, copy)
        for m, p in zip(comp.members, comp.positions):
            relabel[m] = _encode(component, shape, p)
    return EmbeddingCertificate(
        relabel=relabel,
        components=components,
        copies=copies,
        checked_edges=_verify_embedding(sigma, relabel, components),
    )


def _targets(comp: Component) -> Iterator[int]:
    """What the members of `comp` step to, in path order: the next member,
    and on a cycle the first member after the last.  The last member of a
    path steps to nothing."""
    targets = islice(comp.members, 1, None)
    if comp.kind is ComponentType.CYCLE:
        return chain(targets, comp.members[:1])
    return targets


def _verify_embedding(
    sigma: PartialInjection, relabel: dict[int, int], components: list[Component]
) -> int:
    """Check `relabel`, built from the members of `components`, is an
    injective conjugacy; return the edges checked."""
    if len(set(relabel.values())) != len(relabel):
        raise NotInjective("relabeling collides")
    # relabel has one key per distinct member: equal counts mean no member
    # is walked twice, so no two walked edges share a source
    listed = sum(len(comp.members) for comp in components)
    if listed != len(relabel):
        raise CertificationError(
            f"component walks list {listed} members for {len(relabel)} relabeled nodes"
        )
    entries = sigma.entries
    checked = 0
    for comp in components:
        members = comp.members
        # zip asks for a target before a successor, so the last member of a
        # path, which has no target, is not decoded
        steps = successors(map(relabel.__getitem__, members))
        for i, j, got in zip(members, _targets(comp), steps):
            if entries.get(i) != j:
                raise CertificationError(f"component walk steps {i} -> {j}, not an entry")
            if got != relabel[j]:
                raise CertificationError(
                    f"conjugacy fails on edge {i} -> {j}: "
                    f"successor({relabel[i]}) = {got} != {relabel[j]}"
                )
            checked += 1
    # distinct walked edges are entries with both ends relabeled, so the
    # counts agree exactly when the walks read every such entry
    if checked != sum(1 for i, j in entries.items() if i in relabel and j in relabel):
        walked = {i for comp in components for i, _ in zip(comp.members, _targets(comp))}
        i, j = next(
            (i, j) for i, j in entries.items()
            if i in relabel and j in relabel and i not in walked
        )
        raise CertificationError(f"component walks miss edge {i} -> {j}")
    return checked


# === serialization ===


def dump_injection(sigma: PartialInjection) -> str:
    """Text form: one `i -> j` line per entry, `# component` lines for oracle."""
    lines = []
    for m in sorted(sigma.component_oracle):
        e = sigma.component_oracle[m]
        lines.append(f"# component {m}: {e.kind.value} @ {e.offset}")
    for i in sorted(sigma.entries):
        lines.append(f"{i} -> {sigma.entries[i]}")
    return "\n".join(lines) + "\n"


def load_injection(text: str) -> PartialInjection:
    entries: dict[int, int] = {}
    oracle: dict[int, OracleEntry] = {}
    kind_names = {k.value: k for k in ComponentType}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # an entry line ends here; blank lines, comments and component
        # declarations fall through, and any other line is refused below
        left, arrow, right = raw.partition("->")
        if arrow:
            try:
                i, j = int(left), int(right)
            except ValueError:
                pass
            else:
                if i in entries:
                    raise CertificationError(f"line {lineno}: second entry for {i}")
                entries[i] = j
                continue
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if not body.startswith("component"):
                continue  # plain comment
            try:
                head, decl = body.split(":", 1)
                member = int(head.split()[1])
                parts = decl.strip().split("@")
                kind = kind_names[parts[0].strip()]
                offset = int(parts[1]) if len(parts) > 1 else 0
            except (ValueError, KeyError, IndexError) as exc:
                raise CertificationError(
                    f"line {lineno}: bad component declaration {line!r}"
                ) from exc
            if member in oracle:
                raise CertificationError(
                    f"line {lineno}: second component declaration for {member}"
                )
            oracle[member] = OracleEntry(member, kind, offset)
            continue
        if not arrow:
            raise CertificationError(f"line {lineno}: expected `i -> j`, got {line!r}")
        raise CertificationError(f"line {lineno}: bad entry {line!r}")
    return PartialInjection(entries, oracle)
