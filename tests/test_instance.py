import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowlp import instance
from shadowlp.instance import (
    InstanceParseError,
    LPInstance,
    dumps_instance,
    loads_instance,
)


def outcome(text):
    """What loads_instance makes of text: the bytes of A, b and c, or the
    error's type and message."""
    try:
        inst = loads_instance(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return inst.A.tobytes(), inst.b.tobytes(), inst.c.tobytes()


def two_ways(text, monkeypatch):
    """outcome(text) as parsed by default and with the exact pass disabled
    (the per-line parser alone)."""
    got = [outcome(text)]
    with monkeypatch.context() as m:
        m.setattr(instance, "_parse_exact", lambda text: None)
        got.append(outcome(text))
    return got


def exact_spy(monkeypatch):
    """Record, per call, whether the exact pass took the text."""
    taken = []
    real = instance._parse_exact

    def spy(text):
        parsed = real(text)
        taken.append(parsed is not None)
        return parsed

    monkeypatch.setattr(instance, "_parse_exact", spy)
    return taken


def test_round_trip():
    inst = LPInstance(
        A=np.array([[1.0, 0.5], [-0.25, 1.0], [0.0, -1.0]]),
        b=np.array([1.0, 2.0, 0.5]),
        c=np.array([0.75, -0.1]),
    )
    again = loads_instance(dumps_instance(inst))
    assert np.array_equal(again.A, inst.A)
    assert np.array_equal(again.b, inst.b)
    assert np.array_equal(again.c, inst.c)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceParseError, match="line 1"):
        loads_instance("nonsense\n")
    with pytest.raises(InstanceParseError, match="line 2"):
        loads_instance("1 2\n1.0 oops 3.0\n0 1\n")
    with pytest.raises(InstanceParseError, match="expected 3 numbers"):
        loads_instance("1 2\n1.0 2.0\n0 1\n")
    with pytest.raises(InstanceParseError):
        loads_instance("")
    with pytest.raises(InstanceParseError, match="non-empty lines"):
        loads_instance("2 2\n1 0 1\n0 1\n")


def test_shape_validation():
    with pytest.raises(ValueError):
        LPInstance(A=np.ones((2, 2)), b=np.ones(3), c=np.ones(2))
    with pytest.raises(ValueError):
        LPInstance(A=np.array([[np.inf, 0.0]]), b=np.ones(1), c=np.ones(2))


def test_seeded_round_trip_is_bit_identical():
    from shadowlp import RngStream

    gen = RngStream(9, 0).generator()
    for n, d in ((1, 1), (3, 2), (200, 20)):
        inst = LPInstance(
            A=gen.standard_normal((n, d)) * 10.0 ** gen.integers(-300, 300, (n, d)),
            b=gen.standard_normal(n),
            c=gen.standard_normal(d),
        )
        again = loads_instance(dumps_instance(inst))
        for x, y in ((again.A, inst.A), (again.b, inst.b), (again.c, inst.c)):
            assert x.tobytes() == y.tobytes()
            # arrays of their own, not views into the parsed (n, d + 1) block
            assert x.flags.c_contiguous and x.base is None


ODD_TOKENS = [
    "1_0", "١", "١٢", "½", "0x10", "1e", ".", "+.5", "-0", "1.",
    "1e400", "1e-400", "4.9e-324", "2.4703282292062328e-324", "-inf", "Infinity",
    "nan", "nan(1)", "1,5", "1.0f", "1j", "--1", "e5", "'1'", "#1", "1#", "0.1",
]
ODD_SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " ", "　"]


def test_odd_tokens_parse_as_per_line(monkeypatch):
    # the exact pass accepts, rounds and rejects exactly as the per-line
    # parser does, with the same line-numbered messages
    texts = []
    for k, tok in enumerate(ODD_TOKENS):
        sep = ODD_SEPARATORS[k % len(ODD_SEPARATORS)]
        texts.append(f"2 2\n0.5{sep}{tok}{sep}1\n1 2 3\n0 1\n")
        texts.append(f"2 2\n0.5 0.25 1\n\n{tok} 2 3 \n0 1\n")
    texts += [
        "2 2\n1 2 3\n1 2\n0 1\n",           # short row
        "2 2\n1 2 3 4\n1 2 3 4\n0 1\n",     # every row too long
        "1 2\n1 2 3\n0 1 2\n",              # c too long
        "2 2\n1 2 3\r\n4 5 6\r\n0 1\r\n",   # CRLF line ends
    ]
    got = [two_ways(text, monkeypatch) for text in texts]
    accepted = sum(not isinstance(g[1][0], type) for g in got)
    assert 0 < accepted < len(texts)
    for text, g in zip(texts, got):
        assert g[0] == g[1], repr(text)


def canonical(tokens, n=16, d=7):
    """dumps_instance's layout with n rows, d columns and the given tokens
    (a dict from token index to text) among dyadic plain tokens, which the
    exact pass reads without float()."""
    cells = [f"{k % 9}.{(k % 3 + 1) * 25}" for k in range(n * (d + 1) + d)]
    for k, tok in tokens.items():
        cells[k] = tok
    rows = [" ".join(cells[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(n)]
    return f"{n} {d}\n" + "\n".join(rows) + "\n" + " ".join(cells[n * (d + 1) :]) + "\n"


EXACT_EDGES = [
    # (text, whether the exact pass takes it)
    (canonical({5: "-0.0"}), True),
    (canonical({5: "0.0", 130: "-0.0"}), True),
    (canonical({0: "123456789.012345678"}), True),  # 18 digits
    (canonical({0: "1234567890.123456789"}), True),  # 19 digits: float()
    (canonical({0: "-0.0000123456789012345678"}), True),  # 22 fraction digits
    (canonical({0: "0.00000123456789012345678"}), True),  # 23: float()
    (canonical({134: "1.0000000000000000000001"}), True),  # 23 digits
    (canonical({70: "-1.5e-07"}), True),  # one exponent token
    (canonical({70: "1e+16", 71: "2.5e-300"}), True),
    (canonical({70: "1e+400"}), True),  # inf: LPInstance rejects it
    (canonical({70: "1e400"}), False),  # not repr's form
    (canonical({k: f"{(k % 5 + 1) / 3:.18e}" for k in range(135)}), False),
    (canonical({70: "1.5E-07"}), False),
    (canonical({70: "1.5e7"}), False),
    (canonical({70: "1e-07", 71: "1e-07", 72: "1e-07"}), False),  # over 1 in 64
    (canonical({}).replace("0.25 1.50", "0.25  1.50", 1), False),  # double space
    (canonical({}).replace("7.50\n", "7.50 \n", 1), False),  # trailing space
    (canonical({}).replace("\n", "\r\n"), False),  # CRLF
    (canonical({}).replace("7.50\n", "7.50\n\n", 1), False),  # blank line
    (canonical({}).replace("0.25 1.50", "0.25\t1.50", 1), False),  # tab
    (canonical({}).replace("7.50\n8.75 ", "7.50 8.75\n", 1), False),  # ragged rows
    (canonical({}).replace("0.25 1.50", "0.25\n1.50", 1), False),  # a row in two lines
    (canonical({})[:-1], False),  # no final newline
    (canonical({3: "1.5.0"}), False),
    (canonical({3: "+1.5"}), False),
    (canonical({3: "1"}), False),
    (canonical({3: "1-2.5"}), False),
    (canonical({3: "--1.5"}), False),
    (canonical({3: "1.5e+5e+5"}), False),
    (canonical({0: ".25"}), False),
    (canonical({3: ".5"}), False),
    (canonical({3: "-.5"}), False),
    (canonical({3: "5."}), False),
    (canonical({134: "5."}), False),
    (canonical({3: "1 50"}), False),  # one mark, not a dot
]


@pytest.mark.parametrize("text, taken", EXACT_EDGES, ids=range(len(EXACT_EDGES)))
def test_exact_pass_edges_parse_as_per_line(text, taken, monkeypatch):
    got = two_ways(text, monkeypatch)
    assert got[0] == got[1]
    spy = exact_spy(monkeypatch)
    outcome(text)
    assert spy == [taken]


def finite_matrices(elements):
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 8))
    return shapes.flatmap(lambda nd: arrays(np.float64, (nd[0], nd[1] + 1), elements=elements))


PLAIN_REPR = st.floats(1e-4, 1e15).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), plain=st.booleans())
def test_round_trip_is_bit_exact_for_drawn_matrices(data, plain):
    # any finite float64 survives dumps/loads; matrices of plain reprs (no
    # zeros, no exponents) are taken by the exact pass
    elements = PLAIN_REPR if plain else st.floats(allow_nan=False, allow_infinity=False)
    M = data.draw(finite_matrices(elements).filter(lambda M: M.size >= 128 or not plain))
    inst = LPInstance(A=M[:, :-1], b=M[:, -1], c=M[0, :-1])
    with pytest.MonkeyPatch.context() as m:
        spy = exact_spy(m)
        again = loads_instance(dumps_instance(inst))
    for x, y in ((again.A, inst.A), (again.b, inst.b), (again.c, inst.c)):
        assert x.tobytes() == y.tobytes()
    assert len(spy) == 1
    assert spy[0] or not plain


TIES = st.builds(
    # odd multiples of 2^(e-53) in [2^e, 2^(e+1)) lie halfway between doubles
    lambda m, e, tail, step: f"{(m | 1) * 2 ** (e - 53) + step}{tail}",
    st.integers(2**53, 2**54 - 1), st.integers(53, 59), st.sampled_from([".0", ".5"]),
    st.sampled_from([0, 0, -1, 1]),
)


@st.composite
def decimals(draw):
    """-?D+.D+ with at most 18 digits."""
    whole = draw(st.text("0123456789", min_size=1, max_size=17))
    frac = draw(st.text("0123456789", min_size=1, max_size=18 - len(whole)))
    return draw(st.sampled_from(["", "-"])) + f"{whole}.{frac}"


@settings(max_examples=80, deadline=None)
@given(tokens=st.lists(st.one_of(decimals(), TIES, TIES.map(lambda t: "-" + t)), min_size=1,
                       max_size=8))
def test_exact_pass_equals_float_token_by_token(tokens):
    # 8 drawn tokens among 519 leave float() at most 1 in 64 of them
    text = canonical(dict(zip(range(0, 519, 67), tokens)), n=64, d=7)
    parsed = instance._parse_exact(text)
    assert parsed is not None
    rows, c = parsed
    values = np.concatenate([rows.ravel(), c])
    want = np.array([float(t) for t in text.split()[2:]])
    assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["ball", "mixed"])
def test_seeded_d20_dumps_take_exact_pass(family, monkeypatch):
    # the bench's solve corpora: d=20, n=2000, sigma=0.05
    from helpers import mixed_instance
    from shadowlp import RngStream
    from shadowlp.experiments import scaling_instance

    for i in range(3):
        gen = RngStream(1515, i).generator()
        if family == "ball":
            lp = scaling_instance(gen, 20, 2000, 0.05, "ball").lp()
        else:
            lp = mixed_instance(gen, 20, 2000, 0.05).lp()
        text = dumps_instance(lp)
        spy = exact_spy(monkeypatch)
        got = outcome(text)
        assert spy == [True]
        monkeypatch.undo()
        assert got == two_ways(text, monkeypatch)[1]
        assert got[0] == lp.A.tobytes()
