import ast
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factorlift.errors import (
    CertificationError,
    EmptyFamily,
    InsufficientInput,
    InvalidBranch,
    SpaceMismatch,
)
from factorlift.pairing import pair, unpair
from factorlift.transducers import (
    _slots,
    BAIRE,
    CANTOR,
    InterleavedSpace,
    PrefixTransducer,
    Stream,
    SymbolicSpace,
    block_transducer,
    compose_transducers,
    constant_transducer,
    evaluate_transducer,
    extract_stream,
    identity_transducer,
    odometer_transducer,
    pack_streams,
    product_lift,
    shift_transducer,
    stream_width,
    substitution_transducer,
    validate_word,
)


# --- spaces ---


def test_space_arities():
    s = SymbolicSpace((3, None, 4), 2)
    assert s.arities(4) == [3, None, 4, 2]
    assert s.arities(101)[100] == 2
    assert s.arities(2) == [3, None]
    assert s.arities(0) == []
    assert CANTOR.arities(8)[7] == 2
    assert BAIRE.arities(8)[7] is None


def test_space_rejects_tiny_alphabet():
    with pytest.raises(CertificationError):
        SymbolicSpace((1,), 2)
    with pytest.raises(CertificationError):
        SymbolicSpace((), 0)


def test_validate_word():
    assert validate_word(CANTOR, [0, 1, 1]) == (0, 1, 1)
    assert validate_word(BAIRE, [0, 999, 5]) == (0, 999, 5)
    with pytest.raises(InvalidBranch, match=r"^symbol 2 at position 1 leaves alphabet of size 2$"):
        validate_word(CANTOR, [0, 2])
    with pytest.raises(InvalidBranch):
        validate_word(BAIRE, [0, -1])


def test_interleaved_arity_follows_pairing():
    packed = InterleavedSpace((BAIRE,), CANTOR)
    arities = packed.arities(pair(7, 4) + 1)
    for i in range(5):
        assert arities[pair(0, i)] is None
        assert arities[pair(1, i)] == 2
        assert arities[pair(7, i)] == 2


def _arity_at(space, p):
    """Reference arity of one packed position: unpair it and ask the
    component, recursing through nested packings."""
    if isinstance(space, SymbolicSpace):
        return space.head[p] if p < len(space.head) else space.tail
    n, i = unpair(p)
    return _arity_at(space.component(n), i)


SYMBOLIC = st.builds(
    SymbolicSpace,
    st.lists(st.none() | st.integers(2, 5), max_size=3).map(tuple),
    st.none() | st.integers(2, 5),
)
SPACES = st.recursive(
    SYMBOLIC,
    lambda inner: st.builds(
        InterleavedSpace, st.lists(inner, max_size=3).map(tuple), inner
    ),
    max_leaves=6,
)


def _slot_boundaries(test):
    """Explicit cases on both sides of a slot, far past the drawn range:
    length pair(n, i) holds i symbols of component n, one more holds i + 1."""
    for n in (0, 1, 2, 3, 40, 41, 999, 1000, 9999, 10000):
        for i in (0, 1, 2, 3, 100, 999, 1000):
            for length in (pair(n, i), pair(n, i) + 1):
                test = example(n=n, length=length)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), length=st.integers(0, 1200))
@_slot_boundaries
def test_slots_are_the_pairing_positions(n, length):
    want = []
    while pair(n, len(want)) < length:
        want.append(pair(n, len(want)))
    assert list(_slots(n, length)) == want
    assert stream_width(n, length) == len(want)


@settings(max_examples=200, deadline=None)
@given(space=SPACES, length=st.integers(0, 300))
def test_arities_profile_matches_positionwise_rule(space, length):
    assert space.arities(length) == [_arity_at(space, p) for p in range(length)]


def test_stream_prefix():
    s = Stream((5,), (1, 2))
    assert s.prefix(6) == (5, 1, 2, 1, 2, 1)
    assert s.prefix(0) == ()
    with pytest.raises(CertificationError):
        Stream((), ())


# --- basic transducers ---


def test_identity():
    f = identity_transducer(CANTOR)
    assert f.step((1, 0, 1)) == (1, 0, 1)
    assert f.modulus(9) == 9


def test_shift():
    f = shift_transducer(CANTOR)
    assert f.step((1, 0, 1, 1)) == (0, 1, 1)
    assert f.modulus(3) == 4
    assert evaluate_transducer(f, (1, 0, 1, 1), 3) == (0, 1, 1)
    with pytest.raises(InsufficientInput):
        evaluate_transducer(f, (1, 0, 1), 3)


def test_shift_needs_uniform_alphabet():
    with pytest.raises(SpaceMismatch):
        shift_transducer(SymbolicSpace((3,), 2))


def test_constant():
    f = constant_transducer(CANTOR, BAIRE, Stream((7,), (0,)))
    assert f.step((1, 1, 1)) == (7, 0, 0)
    assert evaluate_transducer(f, (0, 0), 2) == (7, 0)


# the odometer adds one with carry, least significant symbol first
@pytest.mark.parametrize(
    "w, out",
    [
        ((1, 1, 1), (0, 0, 0)),
        ((0, 1, 1, 0), (1, 1, 1, 0)),
        ((1, 1, 0, 1), (0, 0, 1, 1)),
        ((0,), (1,)),
        ((), ()),
    ],
)
def test_odometer_values(w, out):
    f = odometer_transducer()
    assert f.step(w) == out
    assert f.modulus(len(w)) == len(w)


def test_odometer_is_monotone():
    f = odometer_transducer()
    rng = random.Random(20260822)
    for _ in range(200):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 12)))
        ext = w + tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
        assert f.step(ext)[: len(w)] == f.step(w)


def test_substitution():
    f = substitution_transducer({0: (0, 1), 1: (1, 0)})
    assert f.step((0, 1)) == (0, 1, 1, 0)
    assert f.modulus(3) == 2
    assert f.modulus(4) == 2
    assert f.modulus(5) == 3
    assert len(evaluate_transducer(f, (0, 1, 1), 5)) >= 5


def test_substitution_validation():
    with pytest.raises(EmptyFamily):
        substitution_transducer({})
    with pytest.raises(CertificationError):
        substitution_transducer({0: (), 1: (1,)})
    f = substitution_transducer({0: (0, 1)})
    with pytest.raises(InvalidBranch):
        f.step((0, 1))


def test_block_transducer():
    table = {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,), (1, 1): (1,)}
    f = block_transducer(CANTOR, CANTOR, table, 2, 1)
    assert f.step((0, 0, 1, 1)) == (0, 1)
    assert f.step((0, 0, 1)) == (0,)
    assert f.modulus(3) == 6
    with pytest.raises(CertificationError):
        block_transducer(CANTOR, CANTOR, {(0,): (1, 1)}, 2, 1)


def test_productivity_violation_is_caught():
    bad = PrefixTransducer(CANTOR, CANTOR, lambda w: (), lambda k: 0, "bad")
    with pytest.raises(CertificationError):
        evaluate_transducer(bad, (0, 1), 1)


# --- composition ---


def test_compose_behavior():
    odo = odometer_transducer()
    add_two = compose_transducers(odo, odo)
    # 0 + 2 = 2 reads 010 least significant first
    assert add_two.step((0, 0, 0)) == (0, 1, 0)
    assert add_two.step((1, 0, 1)) == (1, 1, 1)


CANTOR_MAPS = {
    "identity": lambda: identity_transducer(CANTOR),
    "shift": lambda: shift_transducer(CANTOR),
    "odometer": odometer_transducer,
    "substitution": lambda: substitution_transducer({0: (0, 1), 1: (1, 0)}),
    "block": lambda: block_transducer(
        CANTOR, CANTOR, {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,), (1, 1): (1,)}, 2, 1
    ),
}


@settings(max_examples=200, deadline=None)
@given(
    f=st.sampled_from(sorted(CANTOR_MAPS)),
    g=st.sampled_from(sorted(CANTOR_MAPS)),
    k=st.integers(0, 16),
    bits=st.lists(st.integers(0, 1), min_size=72, max_size=72),
)
@example(f="shift", g="substitution", k=7, bits=[0, 1] * 36)
@example(f="substitution", g="odometer", k=7, bits=[1] * 72)
def test_compose_modulus_law(f, g, k, bits):
    """A word of length (f . g).modulus(k) determines k output symbols of
    the composition, the ones nesting the two steps gives, and a longer
    word keeps them."""
    f, g = CANTOR_MAPS[f](), CANTOR_MAPS[g]()
    fg = compose_transducers(f, g)
    n = fg.modulus(k)
    assert n <= len(bits)
    w = tuple(bits[:n])
    out = fg.step(w)
    assert len(out) >= k
    assert out[:k] == f.step(g.step(w))[:k]
    assert fg.step(tuple(bits))[:k] == out[:k]


def test_compose_rejects_space_mismatch():
    f = identity_transducer(CANTOR)
    g = identity_transducer(BAIRE)
    with pytest.raises(SpaceMismatch):
        compose_transducers(f, g)


def test_composed_evaluation_matches_nested():
    rng = random.Random(4)
    odo = odometer_transducer()
    sh = shift_transducer(CANTOR)
    comp = compose_transducers(sh, odo)
    for _ in range(100):
        w = tuple(rng.randrange(2) for _ in range(10))
        k = rng.randrange(1, 9)
        assert evaluate_transducer(comp, w, k)[:k] == sh.step(odo.step(w))[:k]


# --- interleaving ---


def test_pack_extract_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        streams = [
            tuple(rng.randrange(2) for _ in range(rng.randrange(3, 10)))
            for _ in range(rng.randrange(1, 5))
        ]
        packed = pack_streams(streams)
        assert validate_word(CANTOR, packed)
        for n, s in enumerate(streams):
            got = extract_stream(packed, n)
            assert got == s[: len(got)]
            assert len(got) >= 1


def test_pack_with_explicit_length():
    # length 5 stays below pair(0, 2), the first position stream 0 leaves open
    packed = pack_streams([(1, 1)], length=5)
    assert packed == (1, 0, 1, 0, 0)
    assert packed[pair(0, 0)] == 1
    assert packed[pair(0, 1)] == 1
    assert packed[pair(1, 0)] == 0
    assert packed[pair(2, 0)] == 0


def test_pack_needs_length_when_empty():
    with pytest.raises(CertificationError):
        pack_streams([])
    assert pack_streams([], length=4) == (0, 0, 0, 0)


def test_pack_rejects_overlong_length():
    with pytest.raises(InsufficientInput):
        pack_streams([(1,)], length=pair(0, 1) + 1)


def _positionwise_pack(streams, length):
    """Reference packing: every position unpaired on its own; the first one
    a stream leaves open raises."""
    out = []
    for p in range(length):
        n, i = unpair(p)
        if n < len(streams):
            if i >= len(streams[n]):
                raise InsufficientInput(f"position {p} needs symbol {i} of stream {n}")
            out.append(streams[n][i])
        else:
            out.append(0)
    return tuple(out)


STREAMS = st.lists(st.lists(st.integers(0, 9), max_size=12).map(tuple), max_size=6)


@settings(max_examples=300, deadline=None)
@given(streams=STREAMS, length=st.none() | st.integers(0, 200))
def test_pack_matches_positionwise_packing(streams, length):
    assume(streams or length is not None)
    full = min(pair(n, len(s)) for n, s in enumerate(streams)) if length is None else length
    try:
        want = _positionwise_pack(streams, full)
    except InsufficientInput as exc:
        with pytest.raises(InsufficientInput) as got:
            pack_streams(streams, length)
        assert str(got.value) == str(exc)
    else:
        assert pack_streams(streams, length) == want


@settings(max_examples=300, deadline=None)
@given(streams=STREAMS.filter(bool), length=st.integers(0, 200))
def test_pack_and_extract_are_inverse(streams, length):
    # extracting from a full packing gives back every stream's packed prefix
    packed = pack_streams(streams)
    for n, s in enumerate(streams):
        got = extract_stream(packed, n)
        assert got == s[: len(got)]
    # packing the extracted components rebuilds any packed word
    w = tuple(p % 7 for p in range(length))
    n_comp = next(n for n in range(length + 1) if pair(n, 0) >= length)
    comps = [extract_stream(w, n) for n in range(n_comp)]
    assert pack_streams(comps, length=length) == w


# --- product lift ---


def lift_cantor_pair():
    return product_lift([odometer_transducer(), shift_transducer(CANTOR)])


def test_lift_packed_space():
    lifted = lift_cantor_pair()
    assert lifted.packed_space.arities(20) == [2] * 20


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_lift_factor_identity(n):
    # projection . lift agrees with component map . projection
    lifted = lift_cantor_pair()
    rng = random.Random(1000 + n)
    proj = lifted.projection(n)
    left = compose_transducers(proj, lifted.lift)
    right = compose_transducers(lifted.component_map(n), proj)
    for _ in range(30):
        k = rng.randrange(1, 5)
        need = max(left.modulus(k), right.modulus(k))
        w = tuple(rng.randrange(2) for _ in range(need))
        a = evaluate_transducer(left, w, k)
        b = evaluate_transducer(right, w, k)
        assert a[:k] == b[:k]


def test_lift_productivity_at_exact_modulus():
    lifted = lift_cantor_pair()
    rng = random.Random(7)
    for k in range(1, 12):
        need = lifted.lift.modulus(k)
        w = tuple(rng.randrange(2) for _ in range(need))
        assert len(evaluate_transducer(lifted.lift, w, k)) >= k


def test_lift_monotone():
    lifted = lift_cantor_pair()
    rng = random.Random(8)
    for _ in range(100):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(2, 15)))
        ext = w + tuple(rng.randrange(2) for _ in range(3))
        a = lifted.lift.step(w)
        assert lifted.lift.step(ext)[: len(a)] == a


def test_projection_preimage_is_section():
    lifted = lift_cantor_pair()
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(4)
        u = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 7)))
        w = lifted.projection_preimage(n, u)
        assert extract_stream(w, n) == u
        assert validate_word(lifted.packed_space, w)
        # the shortest such word, zero off component n
        assert len(w) == pair(n, len(u) - 1) + 1
        own = {pair(n, i) for i in range(len(u))}
        assert all(w[p] == 0 for p in range(len(w)) if p not in own)
    with pytest.raises(TypeError):
        lifted.projection_preimage(0, (1,), default=1)


def test_lift_heterogeneous_variant():
    lifted = product_lift(
        [odometer_transducer(), shift_transducer(BAIRE)],
        tail_space=CANTOR,
    )
    arities = lifted.packed_space.arities(pair(1, 2) + 1)
    assert arities[pair(0, 2)] == 2
    assert arities[pair(1, 2)] is None
    proj = lifted.projection(1)
    left = compose_transducers(proj, lifted.lift)
    right = compose_transducers(shift_transducer(BAIRE), proj)
    need = max(left.modulus(4), right.modulus(4))
    # component 1 carries large symbols, every other slot stays binary
    w = pack_streams(
        [tuple(i % 2 for i in range(need)), tuple(10 + i for i in range(need))],
        length=need,
    )
    assert evaluate_transducer(left, w, 4)[:4] == evaluate_transducer(right, w, 4)[:4]


def test_lift_rejects_non_self_map():
    with pytest.raises(SpaceMismatch):
        product_lift([constant_transducer(CANTOR, BAIRE, Stream((), (3,)))])


def test_lift_deterministic():
    a = lift_cantor_pair()
    b = lift_cantor_pair()
    w = tuple(i % 2 for i in range(40))
    assert a.lift.step(w) == b.lift.step(w)
    assert a.lift.modulus(25) == b.lift.modulus(25)


# --- the packed step against the positionwise walk ---


def _positionwise_step(lifted, w):
    """Reference product step: walk packed positions in order, running each
    component's map the first time one of its positions comes up, and stop
    at the first position its output leaves open.  The packed step must
    give the same word."""
    outs = {}
    result = []
    p = 0
    while True:
        n, i = unpair(p)
        if n not in outs:
            outs[n] = lifted.component_map(n).step_fn(extract_stream(w, n))
        if i >= len(outs[n]):
            return tuple(result)
        result.append(outs[n][i])
        p += 1


def _prepend(space):
    """Emits two symbols before reading any, so it speaks on empty input."""
    return PrefixTransducer(
        space, space, lambda w: (1, 0) + tuple(w), lambda k: max(k - 2, 0), "prepend"
    )


def _bumpy(space):
    """The identity with a modulus that is not monotone: odd resolutions
    ask for three extra symbols."""
    return PrefixTransducer(space, space, lambda w: w, lambda k: k + 3 * (k % 2), "bumpy")


BASE_MAPS = [
    identity_transducer(CANTOR),
    # acts or is named as the identity without carrying its rules, so the
    # packed step must walk it
    replace(shift_transducer(CANTOR), name="id"),
    compose_transducers(identity_transducer(CANTOR), identity_transducer(CANTOR)),
    shift_transducer(CANTOR),
    odometer_transducer(),
    substitution_transducer({0: (1,), 1: (0, 0)}),
    _prepend(CANTOR),
    identity_transducer(BAIRE),
    shift_transducer(BAIRE),
    _prepend(BAIRE),
    _bumpy(CANTOR),
]


def _lifts(maps):
    # an empty product takes its tail space from the draw, never the default
    tails = maps.map(lambda f: f.domain)
    return st.lists(maps, max_size=4).flatmap(
        lambda fs: st.builds(product_lift, st.just(fs), st.none() | tails if fs else tails)
    )


SELF_MAPS = st.recursive(
    st.sampled_from(BASE_MAPS), lambda maps: _lifts(maps).map(lambda pl: pl.lift), max_leaves=6
)


@st.composite
def _packed_words(draw, space, max_size=60):
    arities = space.arities(draw(st.integers(0, max_size)))
    return tuple(draw(st.integers(0, (a if a is not None else 6) - 1)) for a in arities)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_packed_step_matches_positionwise_walk(data):
    lifted = data.draw(_lifts(SELF_MAPS))
    w = data.draw(_packed_words(lifted.packed_space))
    assert lifted.lift.step(w) == _positionwise_step(lifted, w)


def _positionwise_modulus(lifted, k):
    """Reference lift modulus: every output position unpaired on its own."""
    need = k
    for p in range(k):
        n, i = unpair(p)
        m = lifted.component_map(n).modulus(i + 1)
        need = max(need, pair(n, m - 1) + 1 if m else 0)
    return need


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lift_modulus_matches_positionwise_rule(data):
    lifted = data.draw(_lifts(SELF_MAPS))
    k = data.draw(st.integers(0, 80))
    assert lifted.lift.modulus(k) == _positionwise_modulus(lifted, k)


@settings(max_examples=100, deadline=None)
@given(_lifts(SELF_MAPS))
def test_lift_modulus_is_nondecreasing(lifted):
    # the law that lets a product ask a nested product at its last slot alone
    moduli = [lifted.lift.modulus(k) for k in range(121)]
    assert moduli == sorted(moduli)


def test_nested_product_of_a_bumpy_map_matches_the_positionwise_rule():
    # the inner product's own component is not monotone, so the inner
    # product still asks each of its slots while the outer asks one
    inner = product_lift([_bumpy(CANTOR)])
    outer = product_lift([inner.lift, shift_transducer(inner.packed_space)])
    for lifted in (inner, outer):
        for k in range(121):
            assert lifted.lift.modulus(k) == _positionwise_modulus(lifted, k)


def test_packed_step_reads_tail_components_past_the_input():
    # the four components each emit (1, 0) on the empty input, so the
    # output runs through components that read nothing
    lifted = product_lift([_prepend(CANTOR)] * 4)
    out = lifted.lift.step(())
    assert out == _positionwise_step(lifted, ())
    assert len(out) == pair(0, 2)
    assert [extract_stream(out, n) for n in range(4)] == [(1, 0), (1, 0), (1,), ()]


# --- one module owns the packed layout ---


@pytest.mark.parametrize("module", ["families.py", "covers.py"])
def test_module_leaves_the_packing_to_transducers(module):
    path = Path(__file__).resolve().parents[1] / "src" / "factorlift" / module
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[-1]]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        assert "pairing" not in names, f"{module} imports the pairing at line {node.lineno}"


# --- typed refusals ---


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        pytest.param(lambda: block_transducer(CANTOR, CANTOR, {(0,): (1,)}, 1, 1).step((1,)),
                     InvalidBranch, "no table entry for block (1,)", id="block-table-miss"),
        pytest.param(lambda: product_lift([shift_transducer(CANTOR)]).component_map(-1),
                     InvalidBranch, "component index must be nonnegative, got -1",
                     id="component-map-negative-index"),
        pytest.param(lambda: product_lift([shift_transducer(CANTOR)]).projection(-1),
                     InvalidBranch, "component index must be nonnegative, got -1",
                     id="projection-negative-index"),
        pytest.param(lambda: extract_stream((0, 1, 1, 0), -1),
                     InvalidBranch, "component index must be nonnegative, got -1",
                     id="extract-negative-index"),
        pytest.param(lambda: stream_width(-1, 10),
                     InvalidBranch, "component index must be nonnegative, got -1",
                     id="width-negative-index"),
        pytest.param(lambda: product_lift([shift_transducer(CANTOR)]).projection_preimage(-1, (1,)),
                     InvalidBranch, "component index must be nonnegative, got -1",
                     id="preimage-negative-index"),
        pytest.param(lambda: product_lift([]), EmptyFamily,
                     "a product of no maps needs a tail space", id="product-of-no-maps"),
        pytest.param(lambda: block_transducer(CANTOR, CANTOR, {}, 0, 1), CertificationError,
                     "block lengths must be positive, got 0 and 1", id="block-empty-input"),
        pytest.param(lambda: block_transducer(CANTOR, CANTOR, {}, 1, 0), CertificationError,
                     "block lengths must be positive, got 1 and 0", id="block-empty-output"),
        pytest.param(lambda: pack_streams([], length=-3), CertificationError,
                     "packed length must be nonnegative, got -3", id="pack-negative-length"),
        pytest.param(lambda: Stream((1, 2, 3), (0,)).prefix(-1), CertificationError,
                     "prefix length must be nonnegative, got -1", id="stream-negative-prefix"),
    ],
)
def test_refusals_are_typed(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc
