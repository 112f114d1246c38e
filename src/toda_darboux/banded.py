"""Band matrices stored diagonal by diagonal.

Entry (i, j) of a band matrix may be nonzero only for i - p <= j <= i + hi,
and one type, ``Banded``, holds every shape the factorizations need:

* the banded Hessenberg matrices J, with p subdiagonals and a unit
  superdiagonal (hi = 1), built by ``BandedHessenberg``;
* the unit lower banded L of their LU factorization (hi = 0);
* the bidiagonal Darboux factors: U with a free diagonal under a unit
  superdiagonal (p = 0, hi = 1), and each L^(i) with a free subdiagonal
  under a unit diagonal (p = 1, hi = 0).

Unit bands are stored as data like any other band.  One rule, ``_field``,
decides the field of every stored value, here and in the gamma tables,
parameter rows and shifts of ``darboux``: float64 when every imaginary part
is zero, of either sign, complex128 otherwise; operations follow the dtype
of their operands.  A band with offset d holds the entries (i, i - d)
indexed by row i, so offset -1 is the superdiagonal, and slots that have
no matrix entry hold zero.

An n x n matrix is a finite system in its own right: ``multiply`` gives
the product of the n x n matrices on every row, and ``residual`` compares
two matrices band by band on every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Banded",
    "BandedHessenberg",
    "ShapeError",
    "graded_scale",
    "multiply",
    "multiply_chain",
    "random_hessenberg",
    "residual",
]


class ShapeError(ValueError):
    """Size mismatch, malformed band data, or a factor of the wrong shape."""


def _field(x) -> np.ndarray:
    """A new float64 copy of x when every imaginary part is zero, of either sign, else complex128."""
    x = np.asarray(x)
    return x.astype(complex) if np.iscomplexobj(x) and x.imag.any() else x.real.astype(float)


@dataclass(frozen=True, eq=False, repr=False)
class Banded:
    """Band matrix with p subdiagonals and hi superdiagonals.

    ``data`` has shape (p + hi + 1, n), and row hi + d holds the band at
    offset d indexed by row.  It is stored as a read-only copy in its
    field (``_field``) whose slots without a matrix entry are zero.
    """

    p: int
    hi: int
    data: np.ndarray

    def __post_init__(self):
        data = _field(self.data)
        if self.p < 0 or self.hi < 0:
            raise ShapeError(f"band counts p={self.p}, hi={self.hi} must be nonnegative")
        if data.ndim != 2 or data.shape[0] != self.p + self.hi + 1 or data.shape[1] < 1:
            raise ShapeError(
                f"p={self.p}, hi={self.hi} needs data of shape ({self.p + self.hi + 1}, n >= 1),"
                f" got {data.shape}"
            )
        # row i of band d holds entry (i, i - d): zero the rows whose column is off the matrix
        n = data.shape[1]
        for row, d in zip(data, range(-self.hi, self.p + 1)):
            if d > 0:
                row[:d] = 0
            elif d < 0:
                row[max(n + d, 0) :] = 0
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> tuple:
        """Bands at offsets 0..p, the diagonal and the subdiagonals."""
        return tuple(self.data[self.hi :])

    def band(self, d: int) -> np.ndarray:
        """Band at offset d as a row-indexed length-n view, zeros off band."""
        if -self.hi <= d <= self.p:
            return self.data[self.hi + d]
        return np.broadcast_to(np.zeros((), self.data.dtype), self.n)

    def entry(self, i: int, j: int) -> complex:
        return complex(self.band(i - j)[i])

    def to_dense(self) -> np.ndarray:
        n = self.n
        out = np.zeros((n, n), dtype=self.data.dtype)
        flat = out.reshape(-1)
        for d in range(max(-self.hi, 1 - n), min(self.p, n - 1) + 1):
            # entry (i, i - d) sits at flat index i (n + 1) - d
            k, first = n - abs(d), max(d, 0)
            flat[first * (n + 1) - d :: n + 1][:k] = self.data[self.hi + d, first : first + k]
        return out

    def __repr__(self):
        return f"Banded(p={self.p}, hi={self.hi}, n={self.n})"


def BandedHessenberg(p: int, n: int, bands) -> Banded:
    """Lower Hessenberg matrix with p subdiagonals and a unit superdiagonal.

    ``bands`` holds the offsets 0..p, each either of natural length
    (n - d entries in row order) or already padded to length n.
    """
    if p < 1:
        raise ShapeError(f"band count p={p} must be at least 1")
    if n < 1:
        raise ShapeError(f"size n={n} must be at least 1")
    if len(bands) != p + 1:
        raise ShapeError(f"expected {p + 1} bands, got {len(bands)}")
    bands = [np.asarray(values) for values in bands]
    # filled in the bands' field, so a real matrix is never copied through complex128
    data = np.ones((p + 2, n), dtype=np.result_type(float, *bands))
    for d, v in enumerate(bands):
        k = max(n - d, 0)
        if v.shape == (n,):
            data[d + 1] = v
        elif v.shape == (k,):
            data[d + 1, n - k :] = v
        else:
            raise ShapeError(f"band {d} needs {k} or {n} entries, got shape {v.shape}")
    return Banded(p, 1, data)


# ---------------------------------------------------------------------------
# operations


def multiply(a: Banded, b: Banded) -> Banded:
    """Banded product of two n x n matrices.

    The product has min(a.p + b.p, n - 1) subdiagonals and a.hi + b.hi
    superdiagonals; the partial products accumulate band by band, offsets
    of a outer and offsets of b inner.
    """
    if a.n != b.n:
        raise ShapeError(f"size mismatch: {a.n} vs {b.n}")
    n = a.n
    p, hi = min(a.p + b.p, n - 1), a.hi + b.hi
    out = np.zeros((p + hi + 1, n), dtype=np.result_type(a.data, b.data))
    for da in range(-a.hi, a.p + 1):
        ba = a.band(da)
        for db in range(-b.hi, b.p + 1):
            d = da + db
            lo, top = max(0, da, d), n + min(0, da, d)
            if d <= p and lo < top:
                out[hi + d, lo:top] += ba[lo:top] * b.band(db)[lo - da : top - da]
    return Banded(p, hi, out)


def multiply_chain(factors: Sequence[Banded]) -> Banded:
    """Product of a list of factors, folded right to left."""
    if not factors:
        raise ShapeError("empty factor chain")
    acc = factors[-1]
    for f in reversed(factors[:-1]):
        acc = multiply(f, acc)
    return acc


def residual(a: Banded, b: Banded) -> float:
    """Largest entry modulus of a - b, band by band."""
    if a.n != b.n:
        raise ShapeError(f"size mismatch: {a.n} vs {b.n}")
    # slots without a matrix entry hold zero on both sides
    offsets = range(-max(a.hi, b.hi), max(a.p, b.p) + 1)
    worst = [np.abs(a.band(d) - b.band(d)).max() for d in offsets]
    return float(np.max(worst))  # np.max propagates NaN


def random_hessenberg(p: int, n: int, seed, mode: str = "real") -> Banded:
    """Random regular instance with band moduli uniform in [1, 2].

    Every represented band entry gets modulus in [1, 2], a random sign in
    real mode and a random phase in complex mode, so the deepest band is
    nonzero by construction and the instance is regular.  Passing the same
    seed reproduces the same matrix bit for bit.
    """
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    rng = np.random.default_rng(seed)
    bands = [_draw(rng, max(n - d, 0), 1.0, mode == "real") for d in range(p + 1)]
    return BandedHessenberg(p, n, bands)


def _draw(rng, k: int, scale, real: bool) -> np.ndarray:
    """k values of modulus scale times uniform in [1, 2]: a random sign if real, else a random phase."""
    mod = scale * rng.uniform(1.0, 2.0, k)
    if real:
        return mod * (rng.integers(0, 2, k) * 2.0 - 1.0)
    return mod * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k))


def graded_scale(m: Banded, factor) -> Banded:
    """Scale band offset d by factor**(d + 1).

    This is the grading that commutes with the unit superdiagonal: the
    rescaled matrix runs the same flow with time slowed by the factor, so
    it tames derivative magnitudes without leaving the shape family.
    """
    bands = tuple(np.asarray(b) * factor ** (d + 1) for d, b in enumerate(m.bands))
    return BandedHessenberg(m.p, m.n, bands)


# ---------------------------------------------------------------------------
# JSON encoding: {"p": int, "n": int, "bands": {offset: [[re, im], ...]}}


def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def _pairs(arr: np.ndarray) -> list:
    return np.stack((arr.real, arr.imag), -1).tolist()


def _from_pair(pair) -> complex:
    # JSON numbers only: bool is an int subclass, and None or a string is no number
    numbers = isinstance(pair, (list, tuple)) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair
    )
    if not numbers or len(pair) != 2:
        raise ValueError(f"{pair!r} is not an [re, im] pair of numbers")
    try:
        z = complex(float(pair[0]), float(pair[1]))
    except OverflowError:
        raise ValueError(f"{pair!r} does not fit in double precision") from None
    if not np.isfinite(z):  # json reads 1e400 as inf, and NaN and Infinity as such
        raise ValueError(f"{pair!r} is not finite")
    return z


def _encode_band(arr: np.ndarray, n: int, d: int) -> list:
    return _pairs(arr[d:] if d >= 0 else arr[: max(n + d, 0)])


def to_json_dict(m: Banded) -> dict:
    """Encode a matrix; unit bands are written out like any other."""
    bands = {str(d): _encode_band(m.band(d), m.n, d) for d in range(-m.hi, m.p + 1)}
    return {"p": m.p, "n": m.n, "bands": bands}


def _decode_band(values, n: int, d: int) -> np.ndarray:
    k = max(n - abs(d), 0)
    if not isinstance(values, list) or len(values) != k:
        raise ShapeError(f"band {d} needs {k} [re, im] pairs")
    out = np.zeros(k, dtype=np.complex128)
    for idx, pair in enumerate(values):
        try:
            out[idx] = _from_pair(pair)
        except ValueError as exc:
            raise ShapeError(f"band {d} entry {idx}: {exc}") from None
    return out


def from_json_dict(payload: Mapping) -> Banded:
    """Decode a matrix payload.

    The deepest offset must be p, the negative offsets give hi, and
    offsets missing in between read as zero.
    """
    try:
        p, n, raw = payload["p"], payload["n"], payload["bands"]
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"malformed matrix payload: {exc}") from None
    if type(p) is not int or type(n) is not int:  # a JSON integer: no bool, float or string
        raise ShapeError(f"p={p!r} and n={n!r} must be JSON integers")
    if not isinstance(raw, Mapping):
        raise ShapeError("matrix bands must map offsets to [re, im] lists")
    if n < 1:
        raise ShapeError(f"size n={n} must be at least 1")
    bands = {}
    for key, values in raw.items():
        try:
            d = int(key)
        except ValueError:
            raise ShapeError(f"band key {key!r} is not an integer offset") from None
        bands[d] = _decode_band(values, n, d)
    low = max([d for d in bands if d > 0], default=0)
    if p != low:
        raise ShapeError(f"p={p} does not match deepest band offset {low}")
    hi = max([-d for d in bands if d < 0], default=0)
    data = np.zeros((p + hi + 1, n), dtype=np.complex128)
    for d, values in bands.items():
        data[hi + d, max(d, 0) : max(d, 0) + len(values)] = values
    return Banded(p, hi, data)
