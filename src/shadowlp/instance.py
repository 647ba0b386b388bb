"""Problem data for "max c^T x subject to A x <= b", plus the text file format.

File format (used by the CLI and demos): one header line "n d", then n lines
of d+1 reals giving (a_i, b_i), then one line of d reals giving c.  Plain
text, whitespace separated, trivially parseable and diff-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LPInstance:
    A: np.ndarray  # (n, d)
    b: np.ndarray  # (n,)
    c: np.ndarray  # (d,)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
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
    data = _parse_rows(lines[1 : 1 + n], d + 1)
    lineno, ln = lines[1 + n]
    c = _parse_floats(ln, d, lineno)
    # C-contiguous copies, not views, so the parsed block is freed
    return LPInstance(A=data[:, :d].copy(), b=data[:, d].copy(), c=np.array(c))


def _parse_rows(lines: list[tuple[int, str]], count: int) -> np.ndarray:
    """The (lineno, line) data rows as a (len(lines), count) array.

    One `np.loadtxt` call parses well-formed rows; it rounds every token as
    `float()` does.  Anything it rejects or shapes differently (ragged rows,
    `1_0`, non-ASCII digits) goes through the per-line parser, which decides
    what is accepted and words the line-numbered errors.
    """
    try:
        data = np.loadtxt([ln for _, ln in lines], comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape != (len(lines), count):
        data = np.array([_parse_floats(ln, count, lineno) for lineno, ln in lines], dtype=float)
    return data


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
