import numpy as np
import pytest

from shadowlp.instance import (
    InstanceParseError,
    LPInstance,
    dumps_instance,
    loads_instance,
)


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
    # the loadtxt fast path accepts, rounds and rejects exactly as the
    # per-line parser does, with the same line-numbered messages
    def outcome(text):
        try:
            inst = loads_instance(text)
        except ValueError as exc:
            return type(exc), str(exc)
        return inst.A.tobytes(), inst.b.tobytes(), inst.c.tobytes()

    def no_fast_path(*args, **kwargs):
        raise ValueError("fast path disabled")

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
    got = [outcome(text) for text in texts]
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", no_fast_path)
        want = [outcome(text) for text in texts]
    accepted = sum(not isinstance(w[0], type) for w in want)
    assert 0 < accepted < len(texts)
    for text, g, w in zip(texts, got, want):
        assert g == w, repr(text)
