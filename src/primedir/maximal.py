"""Directional prime averages and the maximal operator on periodic 2D grids.

The scale-k average along an integer direction v is

    (A_{v,k} f)(x) = sum over primes p of f(x - p v) 2^(-k) phi(2^(-k) p) log p

on the torus grid (Z/L)^2, and the maximal operator takes the pointwise sup of
|A_{v,k} f| over the configured directions and scale range.  Two independent
evaluation routes are kept in cross-checkable agreement:

* spatial: fold the prime weights modulo L (the shift p v mod L only depends
  on p mod L) and accumulate shifted copies of f, read as L x L views of f
  tiled 2 x 2;
* spectral: multiply the 2D transform by m_k(v . beta) sampled from the folded
  1D multiplier table and invert the product in place, one axis at a time.
  The prime weights are real, so the symbol is Hermitian,
  m_k(-a) = conj m_k(a), and the average of a complex f is
  A Re f + i A Im f.  The route therefore runs on real lanes only, each in
  its half spectrum (rfft2, inverted as irfft2 does): a real f is one lane,
  a complex f two, Re f and Im f, whose real outputs, stored side by side,
  are the complex average.  A call's working set beyond f is the spectrum of
  its lanes, computed in place in one array, one product array of the same
  shape and one float64 block of rows per worker, and the L x L float64
  output: about 58 MiB at L = 1024 for complex f and 2 workers.

Both routes of the maximal operator run through one pair driver, which
shares one unit of work per scale and distinct direction mod L among worker
threads that overlap in numpy's FFTs and array loops; maximal_op states when
workers start and how the rows are blocked.

The module also carries the discrete line decomposition of the grid along a
direction and the transference check built on it: a single-direction operator
acts line by line, and on each line it coincides with a 1D cyclic operator on
the pulled-back sequence.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable
from .directions import DirectionSet
from .errors import ParseError
from .multiplier import fold_weights, m_k_grid, prime_weights

__all__ = [
    "GridFunction",
    "OperatorConfig",
    "average_along",
    "spectral_average",
    "maximal_op",
    "line_decompose",
    "transference_check",
    "TransferenceReport",
    "empirical_norm",
    "NormReport",
    "delta_spread_value",
    "delta_spread_disjoint",
    "degenerate_directions",
    "save_grid_function",
    "load_grid_function",
    "export_csv",
]

_ROWS = 64  # least rows per block of rows, on either route
_BLOCK_ENTRIES = 1 << 15  # least entries per block of rows, in one lane
_THREADED_ENTRIES = 1 << 14  # smaller grids run faster on the calling thread alone
_MAX_WORKERS = 4


@dataclass
class GridFunction:
    """A real or complex function on the periodic grid (Z/L)^2, L >= 2.

    Values are kept as float64 or complex128, so both routes run in double
    precision; the spectral route takes real values as one real lane and
    complex values as two."""

    L: int
    values: np.ndarray

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("grid side must be >= 2")
        vals = np.asarray(self.values)
        self.values = vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64, copy=False)
        if self.values.shape != (self.L, self.L):
            raise ValueError(f"values must be {self.L}x{self.L}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @classmethod
    def delta(cls, L: int) -> "GridFunction":
        vals = np.zeros((L, L))
        vals[0, 0] = 1.0
        return cls(L, vals)

    @classmethod
    def constant(cls, L: int, c: complex = 1.0) -> "GridFunction":
        return cls(L, np.full((L, L), c, dtype=np.result_type(c, np.float64)))

    @classmethod
    def random(cls, L: int, rng: np.random.Generator, kind: str = "gaussian") -> "GridFunction":
        if kind == "gaussian":
            vals = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        elif kind == "rademacher":
            vals = rng.choice([-1.0, 1.0], size=(L, L))
        else:
            raise ValueError(f"unknown random kind {kind!r}")
        return cls(L, vals)

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass
class OperatorConfig:
    """Directions, scale range, and sieve backing one operator instance.

    ``directions`` are integer vectors (arbitrary size; shifts reduce mod L).
    ``ds`` optionally records the constructed family they came from.
    """

    directions: tuple[tuple[int, int], ...]
    k_min: int
    k_max: int
    table: PrimeTable
    ds: DirectionSet | None = None

    def __post_init__(self):
        self.directions = tuple((int(a), int(b)) for a, b in self.directions)
        if not self.directions:
            raise ValueError("need at least one direction")
        if any(v == (0, 0) for v in self.directions):
            raise ValueError("directions must be nonzero")
        if self.k_min < 1:  # scale 0 holds the one prime 2, at weight phi(2) log 2 = 0
            raise ValueError("scale must be >= 1")
        if self.k_min > self.k_max:
            raise ValueError("k_min must be <= k_max")
        if self.table.limit < 2 ** (self.k_max + 1):
            raise ValueError(
                f"prime table limit {self.table.limit} < 2^{self.k_max + 1}"
            )

    @property
    def scales(self) -> range:
        return range(self.k_min, self.k_max + 1)


def _block_rows(L: int) -> int:
    """Rows per block of rows, on either route: at least _BLOCK_ENTRIES
    entries of one lane and never fewer than _ROWS, at most L."""
    return min(L, max(_ROWS, _BLOCK_ENTRIES // L))


def _tiled(values: np.ndarray) -> np.ndarray:
    """The L x L values tiled 2 x 2, equal to np.tile(values, (2, 2)): one
    np.empty and four slice copies, without the half-sized intermediate copy
    that np.tile makes."""
    L = len(values)
    out = np.empty((2 * L, 2 * L), dtype=values.dtype)
    for x in (0, L):
        for y in (0, L):
            out[x:x + L, y:y + L] = values
    return out


def _roll_sum(tiled: np.ndarray, folded: np.ndarray, v: tuple[int, int],
              term: np.ndarray, out: np.ndarray, first: int = 0) -> np.ndarray:
    """Spatial kernel: out = sum over residues r of folded[r] times f shifted by
    r v, in rows first .. first + len(out) of the grid.

    tiled is f tiled 2 x 2, so np.roll(f, (a, b), axis=(0, 1)) is the L x L
    view of tiled that starts at (-a mod L, -b mod L).  term and out are
    arrays of f's dtype with L columns, owned by the caller; term is one
    block of rows (_block_rows of them).  Each residue, in increasing order,
    is multiplied into term and added into out, so out is the sum of np.roll
    copies bit for bit.  The sum runs over out one block of term's rows at a
    time, so a block of term and out stays in cache across the residues."""
    L = out.shape[1]
    r = np.flatnonzero(folded)
    sx, sy = (first - r * (v[0] % L)) % L, (-r * (v[1] % L)) % L
    rows = len(term)
    for b in range(0, len(out), rows):
        o = out[b:b + rows]
        t = term[:len(o)]
        o[...] = 0
        for x, y, w in zip(sx + b, sy, folded[r]):
            np.multiply(tiled[x:x + len(o), y:y + L], w, out=t)
            o += t
    return out


def _spectrum(values: np.ndarray) -> np.ndarray:
    """The half spectra (rfft2, columns 0..L//2) of f's real lanes, as one
    (lanes, L, L//2 + 1) array: f itself for real f, Re f and Im f for
    complex f.  The array is allocated once and every pass writes into it."""
    lanes = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    out = np.empty((len(lanes), len(values), len(values) // 2 + 1), dtype=np.complex128)
    for lane, o in zip(lanes, out):
        np.fft.rfft2(lane, out=o)
    return out


def _kernel_arrays(fhat: np.ndarray) -> list:
    """(shape, dtype) of each array the spectral kernel writes into: a
    complex product array of fhat's shape, and a float64 block of rows
    (_block_rows of them) with the lanes last, (rows, L, lanes)."""
    lanes, L, _ = fhat.shape
    return [(fhat.shape, np.complex128), ((_block_rows(L), L, lanes), np.float64)]


def _apply_symbol(fhat: np.ndarray, symbol: np.ndarray, v: tuple[int, int],
                  prod: np.ndarray, block: np.ndarray):
    """Spectral kernel: invert each lane of fhat times symbol[(j1 vx + j2 vy) mod L].

    prod and block, the arrays of _kernel_arrays, are owned by the caller;
    fhat (shared by every call) is only read.  The two terms of the index
    are reduced apart and read from the symbol, cast to complex128 and tiled
    twice, so no modulo runs over the grid.  The symbol is gathered once per
    block of rows and multiplied into every lane; the columns of every lane
    are inverted in place in one pass, then each block of rows takes the
    real inverse along its rows into block, lanes last: the order irfft2
    takes.  Two lanes viewed as complex128 are A Re f + i A Im f, so the
    kernel yields the average as (row slice, block view) pairs, float64 for
    one lane and complex128 for two, each valid until the next block.
    """
    lanes, L, half = fhat.shape
    j = np.arange(L, dtype=np.int64)
    rows, cols = (j * (v[0] % L)) % L, (j[:half] * (v[1] % L)) % L
    tiled = np.tile(symbol.astype(np.complex128, copy=False), 2)
    blocks = [slice(r, min(r + len(block), L)) for r in range(0, L, len(block))]
    for s in blocks:
        gathered = np.take(tiled, rows[s, None] + cols, out=prod[0, s], mode="clip")
        np.multiply(gathered, fhat[1:, s], out=prod[1:, s])
        gathered *= fhat[0, s]
    np.fft.ifft(prod, axis=1, out=prod)
    for s in blocks:
        b = block[:s.stop - s.start]
        np.fft.irfft(prod[:, s], n=L, axis=2, out=b.transpose(2, 0, 1))
        yield s, b.view(np.float64 if lanes == 1 else np.complex128)[..., 0]


def average_along(f: GridFunction, v: tuple[int, int], k: int, cfg: OperatorConfig) -> GridFunction:
    """Spatial evaluation of the scale-k prime average along v.

    The shift p v mod L depends on p only through p mod L, so the prime sum
    folds to at most L shifted copies of f.  The output has f's dtype.
    """
    vals = f.values
    term = np.empty((_block_rows(f.L), f.L), dtype=vals.dtype)
    return GridFunction(f.L, _roll_sum(_tiled(vals), fold_weights(k, f.L, cfg.table),
                                       v, term, np.empty_like(vals)))


def spectral_average(f: GridFunction, v: tuple[int, int], k: int, cfg: OperatorConfig) -> GridFunction:
    """Fourier-side evaluation: multiply by m_k(v . beta) on the frequency grid.

    The symbol at frequency (j1, j2) is m_k((j1 vx + j2 vy)/L mod 1), read
    from the folded 1D table, so the only approximation is the FFT round-off.
    """
    fhat = _spectrum(f.values)
    out = np.empty((f.L, f.L), dtype=f.values.dtype)
    arrays = [np.empty(*a) for a in _kernel_arrays(fhat)]
    for s, block in _apply_symbol(fhat, m_k_grid(k, f.L, cfg.table), v, *arrays):
        out[s] = block
    return GridFunction(f.L, out)


def _worker_count(entries: int, pairs: int) -> int:
    """Threads for work of this many grid entries: 1 below
    _THREADED_ENTRIES, else one per CPU the process may run on, at most one
    per pair and _MAX_WORKERS."""
    if entries < _THREADED_ENTRIES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, pairs, _MAX_WORKERS))


def _pair_max(L: int, pairs: list, kernel, buffers: list, entries: int) -> np.ndarray:
    """sup over pairs of |kernel(*pair, *bufs)|, the pairs shared by the workers.

    kernel yields a pair's output as (row slice, block) pairs, computed in
    bufs, the worker's own arrays: one per (shape, dtype) in buffers, each
    allocated by the worker itself.  The number of workers follows entries,
    the size of the work (_worker_count); the calling thread is one of them,
    the others run in a thread pool that the call starts and joins."""
    # imported here: at module level it adds about 7 ms to import primedir
    from concurrent.futures import ThreadPoolExecutor

    out = np.zeros((L, L), dtype=np.float64)
    todo = iter(pairs)
    lock = threading.Lock()
    stop = threading.Event()

    def work():
        try:
            bufs = [np.empty(*b) for b in buffers]
            while not stop.is_set():
                with lock:
                    pair = next(todo, None)
                if pair is None:
                    return
                for s, block in kernel(*pair, *bufs):
                    a = np.abs(block)
                    with lock:
                        np.maximum(out[s], a, out=out[s])
                    del a  # else the next block's modulus is made beside this one
        finally:  # a worker that fails, or finds no pair left, stops the others
            stop.set()

    workers = _worker_count(entries, len(pairs))
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(work) for _ in range(workers - 1)]
        work()
    for future in futures:  # the pool is joined; a worker's exception is raised here
        future.result()
    return out


def maximal_op(f: GridFunction, cfg: OperatorConfig, method: str = "spectral") -> GridFunction:
    """Pointwise sup of |A_{v,k} f| over the configured directions and scales.

    The average along v reads v only mod L, so vectors equal mod L give one
    operator: both routes run one unit per scale and distinct v mod L, the
    first of equal vectors kept (every vector still counts in
    degenerate_directions).  Vectors that only share a line, such as v and
    2v at odd L, stay apart, since m_k(u t / L) and m_k(t / L) differ at
    finite k.

    Both routes share their work among w workers, the calling thread and
    w - 1 threads of a thread pool that the call starts and joins: the
    spectral route its (k, v) pairs, the spatial route each pair's blocks of
    rows, so that a call with few pairs, such as transference_check's one
    direction, still keeps every worker busy.  One rule sizes a block of
    rows on either route (_block_rows): at least 2^15 entries of one lane,
    never fewer than 64 rows, at most L.  Each worker allocates its own
    arrays with np.empty, one unit of work in size: on the spectral route
    one complex product array of the spectrum's shape, lanes x L x
    (L//2 + 1) with one lane for real f and two for complex f, and one
    float64 row block, both of _kernel_arrays; on the spatial route two row
    blocks of f's dtype, which read f tiled 2 x 2 (built once per call, as
    the spectrum is, and shared read-only).  The spectrum is one array that
    every forward pass writes into, so a spectral call holds it, w product
    arrays, w row blocks and the L x L float64 output beyond f: at
    L = 1024, complex f and w = 2, 16 + 2 x (16 + 1) + 8 = 58 MiB.  w is 1
    below 2^14 entries of work, the spectrum's on the spectral route and L^2
    on the spatial one (spectral: real L < 181, complex L < 128; spatial:
    L < 128), else the number of CPUs in the process's affinity mask,
    capped at 4 and at the number of work units.  A worker's exception is
    raised here once the pool is joined.  The modulus of each output block
    (a row block on either route; two spectral lanes read as complex128, so
    np.abs takes it without overflow) is folded into the running maximum
    under a lock; np.maximum is exact, and every element sums its residues
    in the same order however the rows are shared, so the output is
    bit-identical for any worker count and any order of the units.
    """
    L = f.L
    distinct = dict.fromkeys((vx % L, vy % L) for vx, vy in cfg.directions)
    if method == "spectral":
        fhat = _spectrum(f.values)
        symbols = [m_k_grid(k, L, cfg.table) for k in cfg.scales]
        pairs = [(fhat, symbol, v) for symbol in symbols for v in distinct]
        kernel, buffers, entries = _apply_symbol, _kernel_arrays(fhat), fhat.size
    elif method == "spatial":
        tiled = _tiled(f.values)
        folds = [fold_weights(k, L, cfg.table) for k in cfg.scales]
        rows = _block_rows(L)
        pairs = [(folded, v, slice(b, min(b + rows, L))) for folded in folds
                 for v in distinct for b in range(0, L, rows)]
        buffers, entries = [((rows, L), f.values.dtype)] * 2, L * L

        def kernel(folded, v, s, term, acc):
            return [(s, _roll_sum(tiled, folded, v, term, acc[:s.stop - s.start], s.start))]
    else:
        raise ValueError("method must be 'spectral' or 'spatial'")
    return GridFunction(L, _pair_max(L, pairs, kernel, buffers, entries))


# -- line decomposition and transference ------------------------------------------

def _orbit(L: int, v: tuple[int, int], start) -> tuple[np.ndarray, np.ndarray]:
    """The line through start along v: the points (start + n v) mod L for
    n < L // gcd(vx, vy, L), the order of v in (Z/L)^2, as index arrays."""
    n = np.arange(L // math.gcd(v[0], v[1], L))
    return (start[0] + n * (v[0] % L)) % L, (start[1] + n * (v[1] % L)) % L


def line_decompose(L: int, v: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition (Z/L)^2 into orbits of x -> x + v; each orbit is one discrete line.

    The orbits are the cosets of the cyclic group v generates, taken from
    each point not yet covered in row-major order.  Returns (xs, ys) index
    arrays per orbit, in traversal order (so orbit element n is the point
    start + n v).  Raises ValueError for v = 0.
    """
    if v == (0, 0):
        raise ValueError("direction must be nonzero")
    seen = np.zeros(L * L, dtype=bool)
    orbits = []
    for i in range(L * L):
        if not seen[i]:
            xs, ys = _orbit(L, v, divmod(i, L))
            seen[xs * L + ys] = True
            orbits.append((xs, ys))
    return orbits


def _maximal_1d_cyclic(g: np.ndarray, cfg: OperatorConfig) -> np.ndarray:
    """sup_k of the 1D cyclic prime average of g on Z/len(g)."""
    ghat = np.fft.fft(g)
    out = np.zeros(len(g), dtype=np.float64)
    for k in cfg.scales:
        conv = np.fft.ifft(m_k_grid(k, len(g), cfg.table) * ghat)
        np.maximum(out, np.abs(conv), out=out)
    return out


@dataclass
class TransferenceReport:
    trials: int
    max_off_line_leak: float  # sup |output| off the input's line (exactly 0)
    max_norm_rel_err: float  # 2D-on-line vs 1D-cyclic norm mismatch


def transference_check(
    cfg: OperatorConfig, L: int = 32, trials: int = 100, seed: int = 0
) -> TransferenceReport:
    """Verify the two facts behind the 1D-to-2D transfer on random inputs.

    (i) locality: the single-direction maximal operator maps a function
    supported on one line class to a function supported on the same class
    (exactly: the spatial sum only ever reads along the line);
    (ii) norm transfer: on each line, the 2D operator equals the 1D cyclic
    operator on the pulled-back sequence, so the restricted norms agree.
    """
    rng = np.random.default_rng(seed)
    max_leak = 0.0
    max_rel = 0.0
    for t in range(trials):
        v = cfg.directions[t % len(cfg.directions)]
        # every line has the same length, so a uniform point lies on a uniform line
        xs, ys = _orbit(L, v, rng.integers(L, size=2))
        vals = np.zeros((L, L), dtype=np.complex128)
        vals[xs, ys] = rng.standard_normal(len(xs)) + 1j * rng.standard_normal(len(xs))
        f = GridFunction(L, vals)
        single = OperatorConfig(directions=(v,), k_min=cfg.k_min, k_max=cfg.k_max,
                                table=cfg.table)
        out = maximal_op(f, single, method="spatial")
        mask = np.zeros((L, L), dtype=bool)
        mask[xs, ys] = True
        max_leak = max(max_leak, float(np.abs(out.values[~mask]).max(initial=0.0)))
        g = vals[xs, ys]  # pull-back along the traversal order
        ref = _maximal_1d_cyclic(g, single)
        num = float(np.linalg.norm(out.values[xs, ys]))
        den = float(np.linalg.norm(ref))
        if den > 0:
            max_rel = max(max_rel, abs(num - den) / den)
    return TransferenceReport(trials=trials, max_off_line_leak=max_leak, max_norm_rel_err=max_rel)


# -- empirical norms ----------------------------------------------------------------

def delta_spread_value(cfg: OperatorConfig) -> float:
    """Closed-form ell^2 norm of the maximal function of a point mass under the
    disjoint-support precondition: sqrt(|V| sum_k sum_p weight^2)."""
    total = 0.0
    for k in cfg.scales:
        _, w = prime_weights(k, cfg.table)
        total += float(np.dot(w, w))
    return math.sqrt(len(cfg.directions) * total)


def delta_spread_disjoint(cfg: OperatorConfig, L: int) -> bool:
    """True when no two prime translates p v can collide mod L.

    Sufficient condition: per coordinate, the translates p * v_c over all
    (p, v) span an interval shorter than L (so congruence mod L forces exact
    equality), and the directions are pairwise non-parallel (so equality
    forces identical (p, v)).
    """
    pmax = 2 ** (cfg.k_max + 1)
    for c in (0, 1):
        hi = max(0, max(v[c] for v in cfg.directions))
        lo = min(0, min(v[c] for v in cfg.directions))
        if pmax * (hi - lo) >= L:
            return False
    return all(v[0] * w[1] != v[1] * w[0] for v, w in itertools.combinations(cfg.directions, 2))


def degenerate_directions(cfg: OperatorConfig, L: int) -> int:
    """How many directions reduce to (0, 0) mod L; the average along such a v
    is m_k(0) f, not a directional average."""
    return sum(1 for vx, vy in cfg.directions if vx % L == 0 and vy % L == 0)


@dataclass
class NormReport:
    L: int
    per_family: dict


def _test_functions(name: str, L: int, rng: np.random.Generator, trials: int):
    """The (f, label) pairs of one test family of empirical_norm, drawn from
    rng as they are yielded."""
    if name == "delta":
        yield GridFunction.delta(L), "point mass at 0"
    elif name in ("gaussian", "rademacher"):
        for t in range(trials):
            yield GridFunction.random(L, rng, kind=name), f"{name} trial {t}"
    elif name == "boxes":
        for size in (1 << j for j in range((L // 2).bit_length())):  # 1, 2, 4, ..., <= L/2
            vals = np.zeros((L, L))
            vals[:size, :size] = 1.0
            yield GridFunction(L, vals), f"box {size}x{size}"
    elif name == "constant":
        yield GridFunction.constant(L), "constant 1"
    else:
        raise ValueError(f"unknown test family {name!r}")


def empirical_norm(
    cfg: OperatorConfig,
    L: int,
    families: tuple[str, ...] = ("delta", "gaussian", "rademacher", "boxes", "constant"),
    trials: int = 8,
    seed: int = 0,
) -> NormReport:
    """Adversarial norm estimate: max of ||maximal_op f|| / ||f|| per test family.

    Families: the point mass, complex Gaussian noise, random signs,
    dyadic-size box indicators, and the constant 1, whose ratio is
    max_k |m_k(0)|.  Each family's ratio is attained by some f, so it is a
    lower estimate of the operator norm, and may lie far below it.  The
    argmax is the first test function that attains the family's maximum.
    """
    rng = np.random.default_rng(seed)
    per = {}
    for name in families:
        ratios = ((maximal_op(f, cfg).norm2() / f.norm2(), label)
                  for f, label in _test_functions(name, L, rng, trials))
        best, arg = max(ratios, key=lambda r: r[0], default=(0.0, ""))
        per[name] = {"max_ratio": best, "argmax": arg}
    return NormReport(L=L, per_family=per)


# -- grid-function files ----------------------------------------------------------------

def save_grid_function(f: GridFunction, path) -> None:
    """A numpy .npy file holding the L x L values: float64 for a real grid and
    complex128 otherwise, so a real grid read back runs as one real lane
    again.  np.save gets a file opened here, so it adds no .npy suffix."""
    with open(path, "wb") as fh:
        np.save(fh, f.values)


def load_grid_function(path) -> GridFunction:
    """Read a .npy file holding one square float64 or complex128 array, in
    either byte order; any other content is a ParseError that names the path.
    The header is checked against the file's size before the array is
    allocated, so a header claiming a huge shape costs no memory."""
    fmt = np.lib.format
    with open(path, "rb") as fh:
        try:
            headers = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}
            version = fmt.read_magic(fh)
            if version not in headers:
                raise ValueError(f"unsupported .npy version {version}")
            shape, _, dtype = headers[version](fh)
            if (len(shape) != 2 or shape[0] != shape[1]
                    or dtype.newbyteorder("=") not in (np.float64, np.complex128)):
                raise ValueError(f"holds a {dtype} array of shape {shape}, "
                                 "not a square float64 or complex128 grid")
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            need = shape[0] * shape[1] * dtype.itemsize
            if left != need:
                raise ValueError(f"payload holds {left} bytes, expected {need}")
            fh.seek(0)
            vals = fmt.read_array(fh, allow_pickle=False)
            return GridFunction(len(vals), vals)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def export_csv(f: GridFunction, path) -> None:
    """CSV of the real values; refuses grids with an imaginary part above 1e-9."""
    if np.abs(f.values.imag).max(initial=0.0) > 1e-9:
        raise ValueError("grid has a non-negligible imaginary part; CSV export is for real outputs")
    np.savetxt(path, f.values.real, delimiter=",")
