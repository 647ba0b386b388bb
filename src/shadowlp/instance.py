"""Problem data for "max c^T x subject to A x <= b", plus the text file format.

File format (used by the CLI and demos): one header line "n d", then n lines
of d+1 reals giving (a_i, b_i), then one line of d reals giving c.  Plain
text, whitespace separated, trivially parseable and diff-friendly.
`loads_instance` reads the layout `dumps_instance` writes in one exact
vectorized pass and any other text on the general path, to the same values.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LPInstance:
    A: np.ndarray  # (n, d)
    b: np.ndarray  # (n,)
    c: np.ndarray  # (d,)

    def __post_init__(self):
        # C-contiguous, so the engine gathers basis rows with take, which on
        # a strided matrix would copy all of it first
        A = np.asarray(self.A, dtype=float, order="C")
        b = np.asarray(self.b, dtype=float, order="C")
        c = np.asarray(self.c, dtype=float, order="C")
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
        if c.shape != (A.shape[1],):
            raise ValueError(f"c has shape {c.shape}, expected ({A.shape[1]},)")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


class InstanceParseError(ValueError):
    """Raised with a line-numbered message when an instance file is malformed."""


def _parse_floats(line: str, count: int, lineno: int) -> list[float]:
    parts = line.split()
    if len(parts) != count:
        raise InstanceParseError(
            f"line {lineno}: expected {count} numbers, got {len(parts)}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InstanceParseError(f"line {lineno}: {exc}") from None


def loads_instance(text: str) -> LPInstance:
    data, c = _parse_exact(text) or _parse_general(text)
    # C-contiguous copies, not views, so the parsed block is freed
    return LPInstance(A=data[:, :-1].copy(), b=data[:, -1].copy(), c=np.array(c))


# _parse_exact needs x87 extended precision (a 64-bit significand in the low
# 8 of 16 little-endian bytes), in which every mantissa below 10^18 and every
# power of ten up to 10^22 is exact
_EXTENDED = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)
_ULP_63 = np.longdouble(2.0**-63)
_POW10 = np.array([10.0**k for k in range(23)], dtype=np.longdouble)
_EXP_TOKEN = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?e[-+][0-9]+(?=[ \n]|\Z)")
_DIGIT0, _NEWLINE, _SPACE, _MINUS, _DOT = np.uint8(48), 10, 32, 45, 46


def _parse_exact(text: str) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The (n, d+1) rows and the d-vector c of text in `dumps_instance`'s
    layout, in one vectorized pass, or None to leave text to the general path.

    The layout is ASCII: "n d", n rows of d+1 tokens and a row of d tokens,
    one ' ' between tokens and '\n' after every line, each token -?D+.D+ or
    repr's exponent form.  Clinger's fast path reads the plain tokens: one
    with mantissa m < 10^18 and f <= 22 fraction digits is m / 10^f, both
    exact in extended precision, so the quotient is rounded once to 64 bits,
    and rounding that to double gives float(token) unless it lies exactly
    halfway between two doubles (low 11 significand bits 0x400).  float()
    re-reads those, zeros (for -0.0), exponent tokens and longer mantissas.
    Where they exceed 1 in 64 tokens, or anything is outside the layout, the
    general path parses the text, so values and error messages are its own.
    """
    if not (_EXTENDED and text.isascii() and np.longdouble(1) + _ULP_63 != 1):
        return None
    cut = text.find("\n")  # the header ends here
    n, _, d = text[:cut].partition(" ")
    if not (0 <= cut < len(text) - 1 and n.isdigit() and d.isdigit() and text.endswith("\n")):
        return None
    n, d = int(n), int(d)
    if n < 1 or d < 1:
        return None
    tokens = n * (d + 1) + d
    # the body without its final newline: one copy of the text, then the
    # header is dropped in place
    raw = bytearray(text, "ascii")
    del raw[: cut + 1]
    del raw[-1]
    # float() reads each exponent token; a zero of its length holds its place
    exps = {}
    at = raw.find(b"e")
    while at >= 0:
        start = max(raw.rfind(b" ", 0, at), raw.rfind(b"\n", 0, at)) + 1
        token = _EXP_TOKEN.match(raw, start)
        if token is None or 64 * len(exps) >= tokens:
            return None
        exps[start] = float(token[0])
        raw[start : token.end()] = b"0.".ljust(token.end() - start, b"0")
        at = raw.find(b"e", token.end())
    u = np.frombuffer(raw, np.uint8)
    # one dot per token: dots and separators alternate
    marks = np.flatnonzero((u <= _SPACE) | (u == _DOT))
    if marks.size != 2 * tokens - 1:
        return None
    dots, seps = marks[0::2], marks[1::2]
    newline = u[seps] == _NEWLINE
    if not (
        (u[dots] == _DOT).all()
        and (newline | (u[seps] == _SPACE)).all()
        and np.count_nonzero(newline) == n
        and newline[d :: d + 1].all()
        and 0 < dots[0] and dots[-1] < u.size - 1
        and ((u[dots - 1] - _DIGIT0) < 10).all()
        and ((u[dots + 1] - _DIGIT0) < 10).all()
        # a minus only at the start of a token, and every other byte a digit
        and not ((u[1:] == _MINUS) & (u[:-1] > _SPACE)).any()
        and np.count_nonzero((u - _DIGIT0) < 10) + np.count_nonzero(u == _MINUS)
        == u.size - marks.size
    ):
        return None
    mantissa = np.fromstring(bytes(raw.replace(b".", b"")), dtype=np.int64, sep=" ")
    ends = np.append(seps, u.size)
    frac = ends - dots - 1
    q = mantissa.astype(np.longdouble) / _POW10[np.minimum(frac, 22)]
    values = q.astype(np.float64)
    redo = np.flatnonzero(
        ((q.view(np.uint64)[::2] & 0x7FF) == 0x400)
        | (mantissa == 0) | (mantissa >= 10**18) | (mantissa <= -10**18) | (frac > 22)
    )
    if 64 * redo.size > tokens:
        return None
    # a re-read token starts after the separator before it, token 0 at 0
    starts = np.where(redo > 0, seps[redo - 1] + 1, 0)
    values[redo] = [float(raw[s:e]) for s, e in zip(starts.tolist(), ends[redo].tolist())]
    values[np.searchsorted(seps, list(exps))] = list(exps.values())
    rows = n * (d + 1)
    return values[:rows].reshape(n, d + 1), values[rows:]


def _parse_general(text: str) -> tuple[np.ndarray, list[float]]:
    """The rows and c of any instance text, or a line-numbered
    InstanceParseError naming the first fault."""
    lines = [
        (i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()
    ]
    if not lines:
        raise InstanceParseError("empty instance file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise InstanceParseError(f"line {lineno}: header must be 'n d'")
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise InstanceParseError(f"line {lineno}: header must be two integers") from None
    if n < 1 or d < 1:
        raise InstanceParseError(f"line {lineno}: n and d must be positive")
    if len(lines) != 1 + n + 1:
        raise InstanceParseError(
            f"expected {1 + n + 1} non-empty lines for n={n}, found {len(lines)}"
        )
    data = np.array(
        [_parse_floats(ln, d + 1, lineno) for lineno, ln in lines[1 : 1 + n]], dtype=float
    )
    lineno, ln = lines[1 + n]
    return data, _parse_floats(ln, d, lineno)


def load_instance(path) -> LPInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def dumps_instance(inst: LPInstance) -> str:
    out = [f"{inst.n} {inst.d}"]
    for i in range(inst.n):
        out.append(" ".join(repr(float(v)) for v in (*inst.A[i], inst.b[i])))
    out.append(" ".join(repr(float(v)) for v in inst.c))
    return "\n".join(out) + "\n"


def dump_instance(inst: LPInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))
