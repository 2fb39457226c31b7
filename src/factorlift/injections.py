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
stepping costs one `pair`.  A step only moves pos, so the successor of
pair(component, pos) is pair(component, pos'), which decodes to
(component, shape, pos') exactly, pairing being a bijection.  Consecutive
positions have codes in arithmetic runs (+1 on a ray or a cycle, -2 then +2
on a line), each packed by one `pair_run`, so the embedding lays out each
component, and its check rebuilds it from one decode, by runs.
`successors` carries a decode across a sequence of indices, and the l1
commutation certificate reads its edges through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import cycle, islice
from typing import Iterable, Iterator, NamedTuple

from .errors import CertificationError, InvalidIndex, NotInjective
from .pairing import pair, pair_run, unpair

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


def _run(component: int, shape: int, start: int, n: int) -> list[int]:
    """The layout indices of the n positions from `start` on pair(shape,
    copy): a line's negative positions fall to code 1, the rest rise from 0;
    a cycle's run starts at start mod its length and cycles if it wraps."""
    if shape == LINE_SHAPE:
        if start >= 0:
            return pair_run(component, zigzag(start), 2, n)
        k = min(n, -start)
        return pair_run(component, zigzag(start), -2, k) + pair_run(component, 0, 2, n - k)
    if shape == RAY_SHAPE:
        if start < 0 < n:
            raise InvalidIndex(f"ray positions live in N, got {start}")
        return pair_run(component, start, 1, n)
    length = shape - 1
    q = start % length
    if q + n <= length:
        return pair_run(component, q, 1, n)
    return list(islice(cycle(pair_run(component, 0, 1, length)), q, q + n))


def encode_line(copy: int, position: int) -> int:
    return _run(_component(LINE_SHAPE, copy), LINE_SHAPE, position, 1)[0]


def encode_ray(copy: int, position: int) -> int:
    return _run(_component(RAY_SHAPE, copy), RAY_SHAPE, position, 1)[0]


def encode_cycle(length: int, copy: int, position: int) -> int:
    if length < 1:
        raise InvalidIndex(f"cycle length must be >= 1, got {length}")
    return _run(_component(length + 1, copy), length + 1, position, 1)[0]


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


class OracleEntry(NamedTuple):
    """Caller-certified component data for one member.

    component: any stable id; the loader stores the declared member, and
    nothing reads it: it stays because callers build entries positionally.
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
        self._validate()

    def _validate(self) -> None:
        """Refuse the first entry that leaves N or repeats an image, then a
        declared member outside N."""
        values = self.entries.values()
        if (
            min(self.entries, default=0) < 0
            or min(values, default=0) < 0
            or len(set(values)) != len(values)
        ):
            seen: dict[int, int] = {}
            for i, j in self.entries.items():
                if i < 0 or j < 0:
                    raise InvalidIndex(f"entry {i} -> {j} leaves N")
                if j in seen:
                    raise NotInjective(f"both {seen[j]} and {i} map to {j}")
                seen[j] = i
        low = min(self.component_oracle, default=0)
        if low < 0:
            raise InvalidIndex(f"declared member {low} leaves N")

    def inverse(self) -> dict[int, int]:
        return {j: i for i, j in self.entries.items()}

    def nodes(self) -> set[int]:
        ns = set(self.entries)
        ns.update(self.entries.values())
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
    node not yet walked, the minimum of its own component.

    Entries and declarations are validated again, as at construction, in
    case they were replaced; only a path's back walk reads the inverse map.
    """
    sigma._validate()
    out: list[Component] = []
    left = sigma.nodes()
    # every node has an entry, and no walk goes back, on cycles alone
    inv = sigma.inverse() if len(left) != len(sigma.entries) else {}
    for start in sorted(left):
        if start in left:
            members, is_cycle = _walk_component(start, sigma.entries, inv)
            left.difference_update(members)
            out.append(_type_component(members, is_cycle, sigma))
    return out


def _walk_component(start, entries, inv) -> tuple[list[int], bool]:
    """(members in path order, whether they close into a cycle), walking
    forward from `start`, the least member of its component: a cycle closes
    at start, already anchored at its minimum, and only a path that ends
    walks back from start to its back end.  `entries` must be injective,
    so that every member has one predecessor and a walk returns only to start."""
    members = [start]
    nxt = entries.get(start)
    while nxt is not None:
        if nxt == start:
            return members, True
        members.append(nxt)
        nxt = entries.get(nxt)
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
    } if declared else {}
    if is_cycle:
        n = len(members)
        for m, entry in oracle.items():
            if entry.kind is not ComponentType.CYCLE:
                raise CertificationError(
                    f"oracle declares {entry.kind.value} but {m} lies on a {n}-cycle"
                )
        if oracle:
            _declared_offsets(members, oracle, cycle=True)
        return Component(ComponentType.CYCLE, tuple(members), tuple(range(n)))
    kinds = {e.kind for e in oracle.values()}
    if not kinds:
        # Finite path of unknown type: smallest explored member sits at 0.
        anchor = min(members)
        base = members.index(anchor)
        positions = tuple(range(-base, len(members) - base))
        return Component(ComponentType.UNRESOLVED, tuple(members), positions)
    if len(kinds) > 1:
        raise CertificationError(f"oracle conflicts on one component: {kinds}")
    kind = kinds.pop()
    if kind is ComponentType.CYCLE:
        raise CertificationError(
            "oracle declares a cycle but the explored walk does not close"
        )
    offsets = _declared_offsets(members, oracle, cycle=False)
    if kind is ComponentType.FORWARD_RAY:
        if offsets[0] < 0:
            raise CertificationError(
                f"ray offsets must stay in N, back end sits at {offsets[0]}"
            )
    return Component(kind, tuple(members), tuple(offsets))


def _declared_offsets(members, oracle, cycle: bool) -> range:
    """The offsets along `members` that a nonempty oracle fixes from its
    least declared member; every declaration must match them, exactly on a
    path and mod the length on a cycle (which has no preferred rotation)."""
    position = {m: k for k, m in enumerate(members)}
    anchor_member, anchor = min(oracle.items())
    base, n = position[anchor_member], len(members)
    for m, entry in oracle.items():
        steps = position[m] - base
        if cycle and (entry.offset - anchor.offset - steps) % n:
            raise CertificationError(
                f"cycle offsets inconsistent at {m}: declared {entry.offset}, "
                f"expected {anchor.offset}+{steps % n} mod {n}"
            )
        if not cycle and entry.offset != anchor.offset + steps:
            raise CertificationError(
                f"path offsets inconsistent at {m}: declared {entry.offset}, "
                f"walk gives {anchor.offset + steps}"
            )
    return range(anchor.offset - base, anchor.offset - base + n)


# === embedding ===


@dataclass
class EmbeddingCertificate:
    """A verified conjugacy between a finite injection and the layout.

    relabel is injective; for every edge i -> sigma(i) with both ends
    relabeled, successor(relabel[i]) == relabel[sigma(i)] holds exactly.
    The check reads the edges along each component's path order (and the
    closing edge of a cycle): it decodes the first member's index once, as
    a successor that matched relabel[j] is relabel[j], and compares whole
    lists: the walk's entries in sigma with its targets, and the run of
    successors one position on with their relabels; only a failing walk is
    read edge by edge, to name its first bad edge.  The walks must read as
    many edges as sigma has with both ends relabeled, so each is read once.
    """

    relabel: dict[int, int]
    components: list[Component]
    copies: dict[int, int]  # shape code -> fresh copies used (shapes in use only)
    checked_edges: int


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
        run = _run(_component(shape, copy), shape, comp.positions[0], len(comp.members))
        relabel.update(zip(comp.members, run))
    return EmbeddingCertificate(
        relabel=relabel,
        components=components,
        copies=copies,
        checked_edges=_verify_embedding(sigma, relabel, components),
    )


def _targets(comp: Component) -> tuple[int, ...]:
    """What the members of `comp` step to, in path order: the next member,
    and on a cycle the first member after the last.  The last member of a
    path steps to nothing."""
    if comp.kind is ComponentType.CYCLE:
        return comp.members[1:] + comp.members[:1]
    return comp.members[1:]


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
        members, targets = comp.members, _targets(comp)
        n = len(targets)
        if not n:  # a path's last member has no target, so it is never decoded
            continue
        component, shape, _, q = _split(relabel[members[0]])
        run = _run(component, shape, (unzigzag(q) if shape == LINE_SHAPE else q) + 1, n)
        walked = tuple(map(entries.get, members[:n]))
        if walked != targets or run != list(map(relabel.get, targets)):
            for i, j, got in zip(members, targets, run):
                if entries.get(i) != j:
                    raise CertificationError(f"component walk steps {i} -> {j}, not an entry")
                if got != relabel[j]:
                    raise CertificationError(
                        f"conjugacy fails on edge {i} -> {j}: "
                        f"successor({relabel[i]}) = {got} != {relabel[j]}"
                    )
        checked += n
    # distinct walked edges are entries with both ends relabeled, so the
    # counts agree exactly when the walks read every such entry
    if checked != sum(map(relabel.__contains__, map(entries.get, relabel))):
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
        if not line.startswith("#"):
            if not arrow:
                raise CertificationError(f"line {lineno}: expected `i -> j`, got {line!r}")
            raise CertificationError(f"line {lineno}: bad entry {line!r}")
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
    return PartialInjection(entries, oracle)
