"""Layout codec, component classification, and embedding certificates."""

import dataclasses
import random
import re
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorlift import injections
from factorlift.errors import CertificationError, InvalidIndex, NotInjective
from factorlift.injections import (
    Component,
    ComponentType,
    OracleEntry,
    PartialInjection,
    classify_components,
    decode_index,
    dump_injection,
    embed_injection,
    encode_cycle,
    encode_line,
    encode_ray,
    load_injection,
    successor,
    successors,
    unzigzag,
    zigzag,
)
from factorlift.pairing import pair, unpair


# === pairing ===

@pytest.mark.parametrize("a,b,n", [(0, 0, 0), (1, 0, 1), (0, 1, 2), (2, 0, 3),
                                   (1, 1, 4), (0, 2, 5), (3, 0, 6), (1, 2, 8),
                                   (6, 0, 21), (6, 1, 29)])
def test_pair_frozen_values(a, b, n):
    assert pair(a, b) == n
    assert unpair(n) == (a, b)


@settings(max_examples=500, deadline=None)
@given(a=st.integers(0, 10**12), b=st.integers(0, 10**12), n=st.integers(0, 10**24))
def test_pair_roundtrip_bulk(a, b, n):
    assert unpair(pair(a, b)) == (a, b)
    assert pair(*unpair(n)) == n


def test_zigzag_is_a_bijection_on_window():
    codes = {zigzag(p) for p in range(-50, 51)}
    assert codes == set(range(101))
    for q in range(101):
        assert zigzag(unzigzag(q)) == q


# === successor on the layout, frozen oracle values ===

def test_fixed_point_cycle_of_length_one():
    # cycle length 1, copy 0, position 0 sits at index pair(pair(2,0),0) = 6
    idx = encode_cycle(1, 0, 0)
    assert idx == 6
    assert successor(6) == 6


def test_ray_steps_one_four_eight():
    assert encode_ray(0, 0) == 1
    assert successor(1) == 4
    assert successor(4) == 8


def test_line_steps_two_zero_five():
    assert encode_line(0, -1) == 2
    assert encode_line(0, 0) == 0
    assert encode_line(0, 1) == 5
    assert successor(2) == 0
    assert successor(0) == 5


def test_two_cycle_21_29():
    assert encode_cycle(2, 0, 0) == 21
    assert encode_cycle(2, 0, 1) == 29
    assert successor(21) == 29
    assert successor(29) == 21


def test_successor_is_injective_on_window():
    seen = {}
    count = 0
    for n in range(20000):
        try:
            s = successor(n)
        except InvalidIndex:
            continue  # position beyond its cycle length: not a layout index
        assert s not in seen, f"{n} and {seen[s]} both step to {s}"
        seen[s] = n
        count += 1
    assert count > 5000


def test_distinct_components_never_collide():
    idxs = set()
    for copy in range(5):
        for p in range(-6, 7):
            idxs.add(encode_line(copy, p))
        for p in range(12):
            idxs.add(encode_ray(copy, p))
        for n in range(1, 6):
            for p in range(n):
                idxs.add(encode_cycle(n, copy, p))
    # all distinct by construction of the set; decode agrees with encode
    for i in idxs:
        d = decode_index(i)
        if d.kind is ComponentType.CYCLE:
            assert encode_cycle(d.cycle_length, d.copy, d.position) == i
        elif d.kind is ComponentType.FORWARD_RAY:
            assert encode_ray(d.copy, d.position) == i
        else:
            assert encode_line(d.copy, d.position) == i


def test_decode_rejects_bad_cycle_position():
    # shape 2 = cycle of length 1, so position 1 is not a layout index
    bad = pair(pair(2, 0), 1)
    with pytest.raises(InvalidIndex):
        decode_index(bad)


def _ref_successor(index):
    """Reference: one step by decoding the index and encoding the next
    position, as `successor` did before it moved only the position code."""
    d = decode_index(index)
    if d.kind is ComponentType.BI_INFINITE_LINE:
        return encode_line(d.copy, d.position + 1)
    if d.kind is ComponentType.FORWARD_RAY:
        return encode_ray(d.copy, d.position + 1)
    return encode_cycle(d.cycle_length, d.copy, d.position + 1)


def _outcome(fn, index):
    try:
        return fn(index)
    except InvalidIndex as err:
        return ("InvalidIndex", str(err))


INDICES = st.integers(-(2 ** 70), 2 ** 70)


def _valid_index(n):
    """A layout index near n: the position code folded onto its cycle."""
    component, q = unpair(abs(n))
    shape, _ = unpair(component)
    return pair(component, q % (shape - 1) if shape > 1 else q)


VALID = INDICES.map(_valid_index)


@settings(max_examples=400)
@given(INDICES)
def test_successor_matches_decode_then_encode(index):
    assert _outcome(successor, index) == _outcome(_ref_successor, index)


@settings(max_examples=400)
@given(VALID, VALID)
def test_successor_is_injective_on_random_pairs(i, j):
    assume(i != j)
    assert successor(i) != successor(j)


@settings(max_examples=400)
@given(VALID, st.integers(0, 2 ** 70))
def test_successor_is_injective_within_a_component(i, q):
    # two positions of one component: the hard case for injectivity
    component, _ = unpair(i)
    j = _valid_index(pair(component, q))
    assume(i != j)
    assert successor(i) != successor(j)


# === walks: one decode per walk ===


# starts on short cycles and near the middle of lines, where steps wrap
SMALL_SHAPES = st.one_of(
    st.builds(encode_line, st.integers(0, 5), st.integers(-6, 6)),
    st.builds(encode_ray, st.integers(0, 5), st.integers(0, 6)),
    st.integers(1, 4).flatmap(lambda n: st.builds(
        encode_cycle, st.just(n), st.integers(0, 5), st.integers(0, n - 1)
    )),
)
# a negative index, or a position past the length of its cycle
NOT_LAYOUT = st.one_of(
    st.integers(-(2 ** 70), -1),
    st.builds(
        lambda n, copy, extra: pair(pair(n + 1, copy), n + extra),
        st.integers(1, 2 ** 40), st.integers(0, 2 ** 40), st.integers(0, 2 ** 40),
    ),
)


@st.composite
def _walk_inputs(draw):
    """Successor chains from drawn starts, then repeats, a shuffle and
    indices off the layout mixed in, each half the time."""
    xs = []
    for x in draw(st.lists(st.one_of(VALID, SMALL_SHAPES), max_size=4)):
        for _ in range(draw(st.integers(0, 12))):
            xs.append(x)
            x = successor(x)
    if xs and draw(st.booleans()):
        xs += draw(st.lists(st.sampled_from(xs), max_size=6))
    if draw(st.booleans()):
        xs = draw(st.permutations(xs))
    if draw(st.booleans()):
        for bad in draw(st.lists(NOT_LAYOUT, min_size=1, max_size=2)):
            xs.insert(draw(st.integers(0, len(xs))), bad)
    return xs


@settings(max_examples=400, deadline=None)
@given(_walk_inputs())
def test_successors_step_each_index_as_successor_does(xs):
    walk = successors(xs)
    for x in xs:
        want = _outcome(successor, x)
        if isinstance(want, tuple):
            # the same refusal at the same element
            with pytest.raises(InvalidIndex) as info:
                next(walk)
            assert ("InvalidIndex", str(info.value)) == want
            return
        assert next(walk) == want
    assert next(walk, None) is None
    assert list(successors(xs)) == [successor(x) for x in xs]


# === classification ===

def test_injectivity_validated():
    with pytest.raises(NotInjective):
        PartialInjection({0: 2, 1: 2})


def test_cycle_detected_without_oracle():
    sigma = PartialInjection({3: 7, 7: 5, 5: 3})
    comps = classify_components(sigma)
    assert len(comps) == 1
    c = comps[0]
    assert c.kind is ComponentType.CYCLE
    assert c.members[0] == 3  # smallest member anchors position 0
    assert list(c.positions) == [0, 1, 2]


def test_path_without_oracle_is_unresolved():
    sigma = PartialInjection({5: 0, 0: 7})
    comps = classify_components(sigma)
    assert len(comps) == 1
    c = comps[0]
    assert c.kind is ComponentType.UNRESOLVED
    # path order 5 -> 0 -> 7 with smallest member 0 at position 0
    assert c.members == (5, 0, 7)
    assert c.positions == (-1, 0, 1)


@pytest.mark.parametrize("entries", [{0: 1}, {0: 0}, {0: 1, 1: 0}],
                         ids=["path", "fixed point", "2-cycle"])
def test_unresolved_oracle_entry_declares_nothing(entries):
    plain = classify_components(PartialInjection(entries))
    declared = PartialInjection(entries, {0: OracleEntry(0, ComponentType.UNRESOLVED)})
    assert classify_components(declared) == plain
    assert embed_injection(declared).relabel == embed_injection(PartialInjection(entries)).relabel


def test_unresolved_entry_beside_a_ray_entry_leaves_the_ray():
    ray = {4: OracleEntry(4, ComponentType.FORWARD_RAY, 1)}
    both = {**ray, 9: OracleEntry(9, ComponentType.UNRESOLVED, 7)}
    comps = classify_components(PartialInjection({4: 9, 9: 11}, both))
    assert comps == classify_components(PartialInjection({4: 9, 9: 11}, ray))
    assert comps[0].kind is ComponentType.FORWARD_RAY
    assert comps[0].positions == (1, 2, 3)


def test_declared_ray_uses_offsets():
    sigma = PartialInjection(
        {4: 9, 9: 11},
        {4: OracleEntry(4, ComponentType.FORWARD_RAY, 0)},
    )
    c = classify_components(sigma)[0]
    assert c.kind is ComponentType.FORWARD_RAY
    assert c.members == (4, 9, 11)
    assert c.positions == (0, 1, 2)


def test_declared_ray_rejects_negative_offsets():
    sigma = PartialInjection(
        {4: 9},
        {4: OracleEntry(4, ComponentType.FORWARD_RAY, -1)},
    )
    with pytest.raises(CertificationError):
        classify_components(sigma)


def test_oracle_cycle_on_open_path_rejected():
    sigma = PartialInjection(
        {1: 2}, {1: OracleEntry(1, ComponentType.CYCLE, 0)}
    )
    with pytest.raises(CertificationError):
        classify_components(sigma)


def declared_path(members, kind, offsets, closed=False) -> PartialInjection:
    entries = dict(zip(members, members[1:]))
    if closed:
        entries[members[-1]] = members[0]
    oracle = {m: OracleEntry(m, kind, off) for m, off in zip(members, offsets)}
    return PartialInjection(entries, oracle)


def test_oracle_offset_conflict_rejected():
    sigma = PartialInjection(
        {1: 2, 2: 3},
        {
            1: OracleEntry(1, ComponentType.BI_INFINITE_LINE, 0),
            3: OracleEntry(1, ComponentType.BI_INFINITE_LINE, 7),
        },
    )
    with pytest.raises(
        CertificationError, match=r"^path offsets inconsistent at 3: declared 7, walk gives 2$"
    ):
        classify_components(sigma)
    # the same messages for a conflict deep in a long line and a long cycle
    members = random.Random(5).sample(range(10**6), 5000)
    offsets = list(range(-1200, 3800))
    offsets[4321] += 1
    line = declared_path(members, ComponentType.BI_INFINITE_LINE, offsets)
    with pytest.raises(
        CertificationError,
        match=rf"^path offsets inconsistent at {members[4321]}: declared 3122, walk gives 3121$",
    ):
        classify_components(line)
    offsets = [(k + 17) % 5000 for k in range(5000)]
    offsets[4321] = 3
    cycle = declared_path(members, ComponentType.CYCLE, offsets, closed=True)
    anchor = min(members)
    a = members.index(anchor)
    with pytest.raises(
        CertificationError,
        match=rf"^cycle offsets inconsistent at {members[4321]}: declared 3, "
        rf"expected {(a + 17) % 5000}\+{(4321 - a) % 5000} mod 5000$",
    ):
        classify_components(cycle)


def test_long_declared_line_embeds():
    members = random.Random(8).sample(range(10**6), 20_000)
    offsets = range(-7000, 13_000)
    sigma = declared_path(members, ComponentType.BI_INFINITE_LINE, offsets)
    cert = embed_injection(sigma)
    (comp,) = cert.components
    assert comp.kind is ComponentType.BI_INFINITE_LINE
    assert comp.members == tuple(members) and comp.positions == tuple(offsets)
    assert cert.checked_edges == len(sigma.entries) == 19_999


# === embedding ===

def test_embed_swap_matches_frozen_two_cycle():
    cert = embed_injection(PartialInjection({0: 1, 1: 0}))
    assert cert.relabel == {0: 21, 1: 29}
    assert cert.checked_edges == 2


def test_embed_mixed_structure():
    sigma = PartialInjection(
        {0: 1, 1: 0, 2: 3, 3: 4, 10: 10},
        {2: OracleEntry(2, ComponentType.FORWARD_RAY, 0)},
    )
    cert = embed_injection(sigma)
    # conjugacy on every covered edge, via the public successor function
    for i, j in sigma.entries.items():
        assert successor(cert.relabel[i]) == cert.relabel[j]
    kinds = {tuple(sorted(c.members)): c.kind for c in cert.components}
    assert kinds[(0, 1)] is ComponentType.CYCLE
    assert kinds[(2, 3, 4)] is ComponentType.FORWARD_RAY
    assert kinds[(10,)] is ComponentType.CYCLE


def test_embed_uses_fresh_copies_per_component():
    sigma = PartialInjection({0: 1, 2: 3, 4: 5})  # three unresolved paths
    cert = embed_injection(sigma)
    copies = {decode_index(cert.relabel[m]).copy for m in (0, 2, 4)}
    assert copies == {0, 1, 2}
    assert all(
        decode_index(cert.relabel[m]).kind is ComponentType.BI_INFINITE_LINE
        for m in cert.relabel
    )


def test_embed_exhaustive_small_permutations():
    # brute-force oracle on a small domain: every total injection on {0..4}
    base = list(range(5))
    for perm in permutations(base):
        sigma = PartialInjection(dict(zip(base, perm)))
        cert = embed_injection(sigma)
        assert len(cert.relabel) == 5
        for i, j in sigma.entries.items():
            assert successor(cert.relabel[i]) == cert.relabel[j]


def _random_partial_injection(rng: random.Random, n: int) -> PartialInjection:
    domain = rng.sample(range(n), k=rng.randrange(1, n))
    codomain = rng.sample(range(n), k=len(domain))
    return PartialInjection(dict(zip(domain, codomain)))


def test_embed_random_partial_injections():
    rng = random.Random(20260822)
    for _ in range(50):
        sigma = _random_partial_injection(rng, 200)
        cert = embed_injection(sigma)
        assert len(set(cert.relabel.values())) == len(cert.relabel)
        for i, j in sigma.entries.items():
            assert successor(cert.relabel[i]) == cert.relabel[j]


@st.composite
def _partial_injections(draw):
    """Random partial injections: part of a permutation of 0..n-1, plus
    lone nodes known only to the oracle."""
    n = draw(st.integers(0, 30))
    image = draw(st.permutations(range(n)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lone = draw(st.sets(st.integers(n, n + 40), max_size=4))
    oracle = {m: OracleEntry(m, ComponentType.UNRESOLVED) for m in lone}
    entries = {i: image[i] for i in range(n) if keep[i]}
    return PartialInjection(entries, oracle)


@settings(max_examples=200, deadline=None)
@given(_partial_injections())
def test_components_come_in_order_of_their_least_member(sigma):
    comps = classify_components(sigma)
    least = [min(c.members) for c in comps]
    assert least == sorted(least) and len(set(least)) == len(least)
    assert sorted(m for c in comps for m in c.members) == sorted(sigma.nodes())
    # the embedding allocates copies in that same order
    assert embed_injection(sigma).components == comps


def _controlled_embedding():
    """A 3-cycle 3 -> 7 -> 5 and a path 10 -> 11, embedded: the relabel and
    components a control then breaks."""
    sigma = PartialInjection({3: 7, 7: 5, 5: 3, 10: 11})
    cert = embed_injection(sigma)
    assert [c.members for c in cert.components] == [(3, 7, 5), (10, 11)]
    return sigma, dict(cert.relabel), list(cert.components)


def _swapped_relabel():
    sigma, relabel, components = _controlled_embedding()
    r7, r5 = relabel[7], relabel[5]
    relabel[7], relabel[5] = r5, r7
    return (sigma, relabel, components), (
        CertificationError,
        f"conjugacy fails on edge 3 -> 7: successor({relabel[3]}) = {r7} != {r5}",
    )


def _colliding_relabel():
    sigma, relabel, components = _controlled_embedding()
    relabel[11] = relabel[3]
    return (sigma, relabel, components), (NotInjective, "relabeling collides")


def _walk_off_the_entries():
    sigma, relabel, components = _controlled_embedding()
    components[0] = dataclasses.replace(components[0], members=(3, 5, 7))
    return (sigma, relabel, components), (
        CertificationError, "component walk steps 3 -> 5, not an entry"
    )


def _walk_missing_an_edge():
    # the cycle walked as a path: its closing edge 5 -> 3 is never read
    sigma, relabel, components = _controlled_embedding()
    components[0] = dataclasses.replace(components[0], kind=ComponentType.UNRESOLVED)
    return (sigma, relabel, components), (
        CertificationError, "component walks miss edge 5 -> 3"
    )


def _member_walked_twice():
    sigma, relabel, components = _controlled_embedding()
    components.append(Component(ComponentType.UNRESOLVED, (10,), (0,)))
    return (sigma, relabel, components), (
        CertificationError, "component walks list 6 members for 5 relabeled nodes"
    )


@pytest.mark.parametrize(
    "broken",
    [_swapped_relabel, _colliding_relabel, _walk_off_the_entries,
     _walk_missing_an_edge, _member_walked_twice],
)
def test_embedding_check_refuses_a_broken_conjugacy(broken):
    args, (exc, message) = broken()
    with pytest.raises(exc) as info:
        injections._verify_embedding(*args)
    assert type(info.value) is exc and str(info.value) == message
    # the unbroken embedding passes the same check
    assert injections._verify_embedding(*_controlled_embedding()) == 4


def test_embedding_is_deterministic():
    rng = random.Random(5)
    sigma = _random_partial_injection(rng, 80)
    a = embed_injection(sigma)
    b = embed_injection(sigma)
    assert a.relabel == b.relabel


# === serialization ===

def test_dump_load_roundtrip():
    sigma = PartialInjection(
        {0: 1, 1: 0, 5: 6},
        {5: OracleEntry(5, ComponentType.FORWARD_RAY, 2)},
    )
    text = dump_injection(sigma)
    back = load_injection(text)
    assert back.entries == sigma.entries
    assert back.component_oracle[5].kind is ComponentType.FORWARD_RAY
    assert back.component_oracle[5].offset == 2


@st.composite
def _declared_injections(draw):
    """Partial injections whose components the oracle may declare: a cycle
    at any rotation, a path as a ray (back end at a drawn offset in N) or a
    line (any offset), or as unresolved."""
    sigma = draw(_partial_injections())
    oracle = dict(sigma.component_oracle)
    for comp in classify_components(sigma):
        members = comp.members
        if comp.kind is ComponentType.CYCLE:
            kinds = [ComponentType.CYCLE]
        else:
            kinds = [ComponentType.FORWARD_RAY, ComponentType.BI_INFINITE_LINE]
        kind = draw(st.sampled_from([None, ComponentType.UNRESOLVED, *kinds]))
        if kind is None:
            continue
        base = draw(st.integers(0 if kind is ComponentType.FORWARD_RAY else -20, 20))
        for k in draw(st.sets(st.integers(0, len(members) - 1), min_size=1)):
            offset = (base + k) % len(members) if kind is ComponentType.CYCLE else base + k
            oracle[members[k]] = OracleEntry(members[k], kind, offset)
    return PartialInjection(sigma.entries, oracle)


@settings(max_examples=200, deadline=None)
@given(_declared_injections())
def test_embedding_is_conjugate_across_a_dump_load_round_trip(sigma):
    back = load_injection(dump_injection(sigma))
    cert, again = embed_injection(sigma), embed_injection(back)
    assert again.relabel == cert.relabel
    assert again.checked_edges == cert.checked_edges == len(sigma.entries)
    for i, j in back.entries.items():
        assert successor(again.relabel[i]) == again.relabel[j]


def _reference_load(text):
    """`load_injection` parsing every line with the full parser, as it did
    before entry lines took a short path."""
    entries, oracle = {}, {}
    kind_names = {k.value: k for k in ComponentType}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if not body.startswith("component"):
                continue
            try:
                head, decl = body.split(":", 1)
                member = int(head.split()[1])
                parts = decl.strip().split("@")
                kind = kind_names[parts[0].strip()]
                offset = int(parts[1]) if len(parts) > 1 else 0
            except (ValueError, KeyError, IndexError):
                raise CertificationError(f"line {lineno}: bad component declaration {line!r}")
            if member in oracle:
                raise CertificationError(f"line {lineno}: second component declaration for {member}")
            oracle[member] = OracleEntry(member, kind, offset)
            continue
        if "->" not in line:
            raise CertificationError(f"line {lineno}: expected `i -> j`, got {line!r}")
        left, right = line.split("->", 1)
        try:
            i, j = int(left), int(right)
        except ValueError:
            raise CertificationError(f"line {lineno}: bad entry {line!r}")
        if i in entries:
            raise CertificationError(f"line {lineno}: second entry for {i}")
        entries[i] = j
    return PartialInjection(entries, oracle)


INJECTION_LINES = st.sampled_from([
    "0 -> 1", "1->0", "  2 ->  3  ", "+4 -> 5", "1_0 -> 6", "-1 -> 7", "7 -> 7",
    "0 -> 8", "#0 -> 9", "# note", "# component 2: line @ -3", "# component 2: ray",
    "# component x: ray", "1 -> x", "1 => 2", "1 -> 2 -> 3", "->", "", "   ", "\t5 -> 9",
])


def _load_outcome(load, text):
    try:
        sigma = load(text)
    except CertificationError as exc:
        return type(exc).__name__, str(exc)
    return sigma.entries, sigma.component_oracle


@settings(max_examples=300, deadline=None)
@given(st.lists(INJECTION_LINES, max_size=8))
def test_load_parses_and_refuses_as_the_full_parser(lines):
    text = "\n".join(lines)
    assert _load_outcome(load_injection, text) == _load_outcome(_reference_load, text)


def _reference_validation(entries):
    seen = {}
    for i, j in entries.items():
        if i < 0 or j < 0:
            return "InvalidIndex", f"entry {i} -> {j} leaves N"
        if j in seen:
            return "NotInjective", f"both {seen[j]} and {i} map to {j}"
        seen[j] = i
    return None


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-3, 12), st.integers(-3, 12), max_size=10))
def test_validation_names_the_first_bad_entry(entries):
    try:
        PartialInjection(entries)
        got = None
    except CertificationError as exc:
        got = type(exc).__name__, str(exc)
    assert got == _reference_validation(entries)


def test_load_rejects_garbage():
    with pytest.raises(CertificationError):
        load_injection("0 => 1\n")
    with pytest.raises(CertificationError):
        load_injection("# component x: ray\n0 -> 1\n")


# === typed refusals ===


def _mutated(entries):
    """A valid injection whose entries are then replaced, as a caller
    mutating `entries` after construction would."""
    sigma = PartialInjection({})
    sigma.entries = dict(entries)
    return sigma


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        pytest.param(lambda: encode_ray(0, -1), InvalidIndex,
                     "ray positions live in N, got -1", id="ray-negative-position"),
        pytest.param(lambda: encode_cycle(0, 0, 0), InvalidIndex,
                     "cycle length must be >= 1, got 0", id="cycle-length-zero"),
        pytest.param(lambda: encode_line(-1, 0), InvalidIndex,
                     "copies live in N, got -1", id="line-negative-copy"),
        pytest.param(lambda: encode_ray(-1, 0), InvalidIndex,
                     "copies live in N, got -1", id="ray-negative-copy"),
        pytest.param(lambda: encode_cycle(3, -1, 0), InvalidIndex,
                     "copies live in N, got -1", id="cycle-negative-copy"),
        pytest.param(lambda: PartialInjection({-1: 0}), InvalidIndex,
                     "entry -1 -> 0 leaves N", id="negative-entry"),
        pytest.param(
            lambda: classify_components(PartialInjection(
                {0: 1, 1: 0}, {0: OracleEntry(0, ComponentType.FORWARD_RAY)}
            )),
            CertificationError, "oracle declares ray but 0 lies on a 2-cycle",
            id="ray-declared-on-a-cycle",
        ),
        pytest.param(
            lambda: classify_components(PartialInjection({0: 1}, {
                0: OracleEntry(0, ComponentType.FORWARD_RAY),
                1: OracleEntry(0, ComponentType.BI_INFINITE_LINE, 1),
            })),
            CertificationError, "oracle conflicts on one component",
            id="two-kinds-on-one-path",
        ),
        pytest.param(lambda: classify_components(_mutated({0: 1, 1: 2, 2: 1})), NotInjective,
                     "walk from 0 re-enters mid-path at 1", id="mutated-entries-path-to-cycle"),
        pytest.param(lambda: classify_components(_mutated({0: 1, 1: 0, 2: 0})), NotInjective,
                     "walk from 0 re-enters mid-path at 0", id="mutated-entries-tail-into-cycle"),
        pytest.param(lambda: load_injection("1 -> x"), CertificationError,
                     "line 1: bad entry '1 -> x'", id="load-bad-entry"),
        pytest.param(lambda: load_injection("1 -> 2\n1 -> 3\n"), CertificationError,
                     "line 2: second entry for 1", id="load-two-entries-for-one-member"),
        pytest.param(
            lambda: load_injection("# component 1: ray @ 0\n\n# component 1: line @ 2\n"),
            CertificationError, "line 3: second component declaration for 1",
            id="load-two-declarations-for-one-member",
        ),
        pytest.param(lambda: pair(-1, 0), ValueError,
                     "pair needs nonnegative arguments, got (-1, 0)", id="pair-negative"),
        pytest.param(lambda: unpair(-1), ValueError,
                     "unpair needs a nonnegative argument, got -1", id="unpair-negative"),
    ],
)
def test_refusals_are_typed(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc
