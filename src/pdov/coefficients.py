"""Triangular coefficient tables for the heterozygosity moment expansion.

The table holds the coefficients of m_k = sum_l A(k,l) theta^l, built by
the one triangular recursion

    A(k,p) = sum_{l<k} w(k,l) A(l,p-1),     p >= 1,  A(l,0) = [l = 0],

with w(k,l) = ((2k+theta)/2k) * 2^k k! Gamma(k+l+theta)
              / (2^l l! Gamma(2k+1+theta)).  Its first column is the single
term A(k,1) = w(k,0) = 2^{k-1} (k-1)! Gamma(k+theta) / Gamma(2k+theta).

theta = 0 gives the limit table (the recursion specializes verbatim).
All entries are kept in log scale; gamma ratios are differences of
log-gamma, never ratios of raw gamma values, since Gamma(2k+1) overflows
doubles near k = 85.  Every log-gamma pdov takes has an argument n + theta
(n + 1 for factorials: theta = 1) with n a whole number, so it is read from
a per-theta lookup of math.lgamma(n + theta), n = 0..N, grown on demand.

A row is summed in linear space: the rows below are held as A(l,p) too,
which cannot overflow (A(l,p)(theta) <= A(l,p)(0) <= 2^{2-p}) and is 0
where it underflows, so row j costs j-1 exps of the scaled weights and
(j-1)(cols-1) multiply-adds.  A sum small enough for the underflowed terms
to reach its 2^-53 is recomputed in log space.  Every log-space sum in pdov
goes through log_sum_exp.

cached_table holds one table per theta and grows it by rows and by columns
through the same kernel as a fresh build, _extend, so the series that read
different columns at one theta share its rows and no row is computed twice.

table_to_csv and write_table_json write an export a row at a time, each
entry as 17 significant digits of A, or as mantissa-e-exponent where
|log A| >= 700 puts A beyond doubles.  The entries of a row that lie
within doubles, all but a suffix near the diagonal, are formatted by one
%.17g format of their exps; table_to_json holds the same text as a dict,
the reference the streamed JSON equals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "CoeffTable",
    "build_coeff_table",
    "build_limit_table",
    "lgamma_lookup",
    "log_w",
    "log_w_parts",
    "log_sum_exp",
    "c_constant",
    "log_asymptotic_A",
    "log_c_combined",
    "log_asymptotic_C",
    "cached_table",
    "table_to_csv",
    "table_to_json",
    "write_table_json",
]

_LN2 = math.log(2.0)
MAX_TABLE_WORK = 1e10  # bounds a build's kmax^2 cols: its work and O(kmax cols) memory
_CERTIFIED_SUM = 2.0**53 * 2.0**-1021  # per term of a linear row sum; see _extend


@dataclass(frozen=True)
class CoeffTable:
    """Triangular table of log A(k,l), 1 <= l <= min(k, cols), k <= kmax.

    theta == 0 marks the limit table.  Entries outside the triangle are
    -inf in the backing array, whose shape is (kmax+1, cols+1).
    """

    theta: float
    kmax: int
    log_entries: np.ndarray = field(repr=False)

    def log_entry(self, k: int, l: int) -> float:
        if not (1 <= l <= k <= self.kmax):
            raise DomainError(f"index (k={k}, l={l}) outside triangle kmax={self.kmax}")
        if l > self.cols:
            raise DomainError(f"column l={l} not built (table holds columns 1..{self.cols})")
        return float(self.log_entries[k, l])

    @property
    def cols(self) -> int:
        """Columns built: 1..cols (cols == kmax for a full table)."""
        return self.log_entries.shape[1] - 1

    @property
    def is_limit(self) -> bool:
        return self.theta == 0.0


@lru_cache(maxsize=16)
def _store(theta: float) -> dict:
    """Everything pdov grows at theta, for the 16 most recent theta, each
    read-only and replaced when grown: the lgamma lookup, the coefficient
    table, and the runs of log E(1-H2)^k ("log_m") and log E H2^k ("log_h")."""
    return {}


def _held_run(theta: float, kind: str, size: int, fill) -> np.ndarray:
    """The first size entries of the run of this kind held at theta, a
    read-only view.  A shorter run is replaced by a copy grown by zeros to
    size, fill(run, start) computing run[start:] in place, each entry from
    the entries below it and lookups alone: a grown run equals a fresh one."""
    store = _store(float(theta))
    held = store.get(kind, np.empty(0))
    if len(held) < size:
        start, held = len(held), np.concatenate([held, np.zeros(size - len(held))])
        fill(held, start)
        held.setflags(write=False)
        store[kind] = held
    return held[:size]


def lgamma_lookup(theta: float, size: int) -> np.ndarray:
    """lgamma(n + theta) for n = 0..size-1, each math.lgamma(n + theta)
    (inf at the pole n + theta = 0): a read-only view of the lookup held
    at theta, grown to size where it is shorter."""

    def fill(run, start):
        run[start:] = [math.lgamma(n + theta) if n + theta > 0.0 else math.inf
                       for n in range(start, len(run))]

    return _held_run(theta, "lgamma", size, fill)


def log_w_parts(theta: float, k, l) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, g) with log w(k,l) = row + col + g[k+l] for the whole
    numbers k >= 1 and l >= 0 (scalars or arrays):

        row = log((2k+theta)/2k) + k ln2 + lgamma(k+1) - lgamma(2k+1+theta),
        col = -l ln2 - lgamma(l+1),   g[n] = lgamma(n+theta),

    all from the lookups at 1 and at theta.  A recursion takes them once,
    for every k and l it reaches, and slices them for each row."""
    top = int(max(np.asarray(k).max(), np.asarray(l).max()))
    fact = lgamma_lookup(1.0, top + 1)
    g = lgamma_lookup(theta, 2 * top + 2)
    row = np.log((2.0 * k + theta) / (2.0 * k)) + k * _LN2 + fact[k] - g[2 * k + 1]
    col = -l * _LN2 - fact[l]
    return row, col, g


def log_w(k, l, theta: float):
    """log w(k,l) = log of ((2k+theta)/2k) 2^k k! Gamma(k+l+theta)
    / (2^l l! Gamma(2k+1+theta)), the weight of both the table recursion
    and the moment recursion, as row + col + g[k+l] from log_w_parts, its
    log-gammas read from lgamma_lookup; k >= 1 and l >= 0 are whole
    numbers, scalars or broadcast arrays."""
    row, col, g = log_w_parts(theta, k, l)
    return row + col + g[k + l]


def log_sum_exp(a: np.ndarray, axis=None):
    """log of sum(exp(a)) along axis (all of a by default), shifted by the
    maximum, which must be finite: every caller sums at least one finite
    term and no +inf or NaN."""
    peak = a.max(axis=axis, keepdims=True)
    return peak.squeeze(axis) + np.log(np.exp(a - peak).sum(axis=axis))


def build_coeff_table(theta: float, kmax: int, cols: int | None = None) -> CoeffTable:
    """Build the table of A(k,l)(theta) up to kmax, columns l = 1..cols
    (all kmax columns by default).

    theta = 0 yields the limit coefficients.  Column 1 is w(k,0); each row
    comes from the rows below it, its columns 2..min(k, cols) as linear
    sums over l < k, at a cost of ~kmax^2 cols / 2 multiply-adds and
    ~kmax^2 / 2 exps (kmax^2 cols > MAX_TABLE_WORK is refused up front).
    Entry (k,p) is a sum of length k-1 over column p-1, with no scale that
    depends on cols, so a truncated build is bit-identical to the full
    one's columns."""
    return _extend(None, theta, kmax, kmax if cols is None else cols)


def _extend(held: CoeffTable | None, theta: float, kmax: int, cols: int) -> CoeffTable:
    """The table to kmax, columns 1..cols, which holds held's entries as
    they are, fills the columns held lacks in its rows, and adds the rows
    above it: bit-identical to a fresh build.

    Row j computes its columns first..min(j, cols) from the rows below it,
    first = held.cols + 1 in a held row and 2 above them.  It sums
    A(l,p-1) w(j,l) e^-M over l < j, M = max_l log w(j,l), with A taken as
    exp(log A).  A term whose factor underflowed is off by at most
    2^-1021, so a sum at or above (j-1) 2^53 2^-1021 is certified to
    2^-53; the others are summed again in log space.  The sums are numpy's
    own loops, since BLAS orders them by the matrix width."""
    if kmax < 1:
        raise DomainError(f"kmax must be >= 1, got {kmax}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    if not (1 <= cols <= kmax):
        raise DomainError(f"cols must lie in 1..kmax={kmax}, got {cols}")
    if (work := kmax**2 * cols) > MAX_TABLE_WORK:
        raise DomainError(f"kmax^2 cols = {work:.3g} > {MAX_TABLE_WORK:.3g} ({kmax=}, {cols=})")

    n = np.arange(kmax + 1)
    row, col, g = log_w_parts(theta, n[1:], n)  # log w(j,l) = row[j-1] + col[l] + g[j+l]
    by_col = np.full((cols + 1, kmax + 1), -np.inf)  # by_col[l, k] = log A(k,l)
    low, wide = 1, 1  # rows 1..low-1 are held, with columns 1..wide
    if held is not None:
        low, wide = held.kmax + 1, held.cols
        by_col[: wide + 1, :low] = held.log_entries.T
    by_col[1, low:] = row[low - 1 :] + col[0] + g[low : kmax + 1]  # A(k,1) = w(k,0) A(0,0)
    if cols > 1:
        # lin[l, k] = A(k,l) <= 2^{2-l}, 0 where it underflows; row 0 is unused
        lin = np.zeros((cols, kmax + 1))
        lin[1] = np.exp(by_col[1])
        lin[2:, :low] = np.exp(by_col[2:cols, :low])
        for j in range(2, kmax + 1):
            first, top = (wide + 1 if j < low else 2), min(j, cols)
            if first > top:
                continue
            lw = row[j - 1] + col[1:j] + g[j + 1 : 2 * j]  # log w(j,l), l = 1..j-1
            peak = lw.max()
            # s[p-first] = sum_l A(l,p-1) w(j,l) e^-peak, p = first..top
            s = np.einsum("pl,l->p", lin[first - 1 : top, 1:j], np.exp(lw - peak))
            cert = (j - 1) * _CERTIFIED_SUM
            if s.min() >= cert:
                out = peak + np.log(s)
            else:  # a sum within reach of the underflowed terms: recompute it in log space
                ok = s >= cert
                out = np.empty_like(s)
                out[ok] = peak + np.log(s[ok])
                bad = np.flatnonzero(~ok)
                out[bad] = log_sum_exp(lw + by_col[bad + first - 1, 1:j], axis=1)
            by_col[first : top + 1, j] = out
            lin[first : top + 1, j] = np.exp(out[: cols - first])
    by_col.setflags(write=False)
    return CoeffTable(theta=float(theta), kmax=kmax, log_entries=by_col.T)


def build_limit_table(kmax: int) -> CoeffTable:
    """Table of the theta-free coefficients A(k,l) (theta = 0 tag)."""
    return build_coeff_table(0.0, kmax)


def c_constant(p: int) -> float:
    """C_1 = sqrt(pi); C_{p+1} = C_p sqrt(pi) ((p+2)/p)^{p/2}."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    c = math.sqrt(math.pi)
    for q in range(1, p):
        c *= math.sqrt(math.pi) * ((q + 2.0) / q) ** (q / 2.0)
    return c


def log_asymptotic_A(k: int, p: int) -> float:
    """log of the large-k approximation C_p k^{-p/2} (p/(p+1))^k.

    Evaluated verbatim at any k >= p; accuracy is only claimed for large k.
    """
    if not (1 <= p <= k):
        raise DomainError(f"need 1 <= p <= k, got (k={k}, p={p})")
    log = (
        math.log(c_constant(p))
        - 0.5 * p * math.log(k)
        + k * math.log(p / (p + 1.0))
    )
    return float(log)


def cached_table(theta: float, kmax: int, cols: int | None = None) -> CoeffTable:
    """The table held for theta, with at least kmax rows and columns
    1..min(cols, kmax) (all kmax of them by default).

    One table is held per theta, in the store; it may hold more rows and
    columns than asked.  A request it does not cover grows it to the larger
    rows and the larger columns of the two, through _extend, bit-identical
    to a fresh build of that shape.  Where that shape passes
    MAX_TABLE_WORK, the store holds a fresh build of the request instead,
    or the request is refused if it passes too.
    """
    width = kmax if cols is None else min(int(cols), kmax)
    store = _store(float(theta))
    held = store.get("table")
    if held is None:
        store["table"] = build_coeff_table(theta, kmax, width)
    elif held.kmax < kmax or held.cols < width:
        rows, wide = max(held.kmax, kmax), max(held.cols, width)
        if rows**2 * wide > MAX_TABLE_WORK:
            store["table"] = build_coeff_table(theta, kmax, width)
        else:
            store["table"] = _extend(held, theta, rows, wide)
    return store["table"]


def log_c_combined(k: int, l: int, lam: float) -> float:
    """log of sum_{s=0}^{k-l} binom(k,s) ((lam-l)/lam)^s A(k-s,l), the
    limit coefficients A read from the table the store holds at theta = 0.

    The binomial weight carries exponent s (the form consistent with the
    theta^{-(lam-l)} rescaling identity of the series it represents).
    """
    if not (1 <= l <= k):
        raise DomainError(f"need 1 <= l <= k, got (k={k}, l={l})")
    if lam <= l:
        raise DomainError(f"need lam > l, got (lam={lam}, l={l})")
    table = cached_table(0.0, k, cols=l)
    s = np.arange(0, k - l + 1)
    fact = lgamma_lookup(1.0, k + 1)
    log_binom = fact[k] - fact[s] - fact[k - s]
    log_ratio = s * math.log((lam - l) / lam)
    log_a = table.log_entries[k - s, l]
    return float(log_sum_exp(log_binom + log_ratio + log_a))


def log_asymptotic_C(k: int, l: int, lam: float) -> float:
    """log of the large-k approximation of the log_c_combined sum:

    C_l (1 + (lam-l)(l+1)/(lam l))^{l/2} k^{-l/2} ((lam-l)/lam + l/(l+1))^k.
    """
    if not (1 <= l <= k):
        raise DomainError(f"need 1 <= l <= k, got (k={k}, l={l})")
    if lam <= l:
        raise DomainError(f"need lam > l, got (lam={lam}, l={l})")
    base = (lam - l) / lam + l / (l + 1.0)
    log = (
        math.log(c_constant(l))
        + 0.5 * l * math.log1p((lam - l) * (l + 1.0) / (lam * l))
        - 0.5 * l * math.log(k)
        + k * math.log(base)
    )
    return float(log)


def _linear_repr(log_value: float) -> str:
    if log_value == -np.inf:
        return "0"
    if abs(log_value) < 700.0:
        return f"{math.exp(log_value):.17g}"
    # value not representable in linear scale: emit scientific notation
    # from the log representation
    log10 = log_value / math.log(10.0)
    exp10 = math.floor(log10)
    mantissa = 10.0 ** (log10 - exp10)
    return f"{mantissa:.17g}e{exp10:+d}"


def _export_rows(table: CoeffTable):
    """(k, [log A(k,1), ..., log A(k,k)]) for k = 1..kmax, as Python floats,
    from a table that holds every column (a partial one is refused here)."""
    if table.cols < table.kmax:
        raise DomainError(f"export needs every column; table holds 1..{table.cols} of {table.kmax}")
    return ((k, table.log_entries[k, 1 : k + 1].tolist()) for k in range(1, table.kmax + 1))


def _row_text(template: str, logs: list[float]) -> str:
    """template, which holds one %.17g per entry of the row and no other %,
    filled with the entries' _linear_repr text.  The entries past |log A|
    = 700 are those near the diagonal, a suffix of the row: the entries
    before it are written by one format of their exps, as _linear_repr
    writes them there, and the suffix by _linear_repr of each entry.  A row
    with an entry past 700 before one within it is written by _linear_repr
    throughout."""
    j = len(logs)  # the start of the suffix past 700
    while j and not abs(logs[j - 1]) < 700.0:
        j -= 1
    head = logs[:j]
    if head and not (-700.0 < min(head) and max(head) < 700.0):
        j, head = 0, []
    if j == len(logs):
        return template % tuple(map(math.exp, logs))
    rest = template.split("%.17g", j)[-1]  # the template past the head's entries
    return (template[: len(template) - len(rest)] % tuple(map(math.exp, head))
            + rest.replace("%.17g", "%s") % tuple(map(_linear_repr, logs[j:])))


def table_to_csv(table: CoeffTable, fp) -> None:
    """Write the triangle as rows k,l,A, in csv.writer's default dialect,
    a row of the table at a time."""
    rows = _export_rows(table)
    fp.write("k,l,A\r\n")
    cells = [f",{l},%.17g\r\n" for l in range(1, table.kmax + 1)]
    for k, logs in rows:
        lead = str(k)
        fp.write(_row_text(lead + lead.join(cells[:k]), logs))


def table_to_json(table: CoeffTable) -> dict:
    """Triangular JSON mirror: {"theta", "kmax", "rows": [[A(k,1)..A(k,k)]...]},
    each entry a number string; write_table_json writes its indented text."""
    rows = [_row_text("\n".join(["%.17g"] * k), logs).split("\n")
            for k, logs in _export_rows(table)]
    return {"theta": table.theta, "kmax": table.kmax, "rows": rows}


def write_table_json(table: CoeffTable, fp) -> None:
    """Write json.dump(table_to_json(table), fp, indent=2)'s text a row at a
    time: the entries are number strings, which JSON never escapes, and theta
    is a float, which json writes as its repr."""
    rows = _export_rows(table)
    fp.write(f'{{\n  "theta": {table.theta!r},\n  "kmax": {table.kmax},\n  "rows": [')
    cell = '%.17g",\n      "'
    for k, logs in rows:
        sep = "," if k > 1 else ""
        fp.write(_row_text(f'{sep}\n    [\n      "{cell * (k - 1)}%.17g"\n    ]', logs))
    fp.write("\n  ]\n}")
