"""Columnar batch emitter: one numpy-vectorized kernel per trigger.

The scalar pipeline (plan -> IR -> emit) produces one per-event kernel per
trigger; this module walks the *same* trigger plan
(:func:`repro.codegen.trigger.plan_trigger`, its ``+=`` steps) and emits one
kernel that processes an entire run of same-trigger events per call — one
ndarray per trigger column, masks instead of branch guards (the hoisted
guards narrow one shared mask, each step's guards its own sink's), the
plan's deduplicated loads and probes computed once, hash-probe gathers
against the table primaries, prefix-sum range probes against
:class:`~repro.runtime.ordered.OrderedRangeIndex`, and per sink a segmented
seeded-cumsum write list that reproduces the scalar add chain.

Fast-numeric regime and the bit-identity contract
-------------------------------------------------
Results must stay bit-identical — values *and* types — to the fused scalar
kernels.  The vector path therefore runs in an explicit
**fast-numeric regime** (mirroring ``OrderedRangeIndex``'s exact-regime split):

* all value arithmetic is computed in float64.  IEEE double addition and
  multiplication agree bit-for-bit with the interpreter's mixed int/float
  arithmetic as long as every operand and every intermediate result has
  magnitude below 2**53 (ints convert exactly; float ops are the identical
  IEEE operations).  :func:`_ck` enforces that bound on every ``+ - *``
  result at run time and raises :class:`VectorFallback` when it fails
  (NaN-safe: comparisons against NaN are False).
* columns must be homogeneously ``int`` (|v| < 2**53), ``float`` (finite) or
  ``str`` (guards/keys only); bools, ``Fraction``, ``None`` or mixed types
  fall back.
* the sink replays the scalar per-key add chain as a seeded ``np.cumsum``
  (verified left-sequential) per key segment, falling back whenever a seed
  is a ``Fraction``, any seed or partial reaches 2**53, or an *intermediate*
  partial is zero-ish (the scalar chain would delete and re-insert the key,
  changing dict insertion order).

Fallback is per *run*: the kernel builds every sink's write list before it
commits any, so a run with one failed sink goes whole through the fused
scalar kernel with the state exactly as it was before the run.

numpy is optional: when it cannot be imported (or ``REPRO_NO_NUMPY`` is set,
the CI no-numpy leg), no vector kernel compiles and the reason is surfaced
through ``describe()`` and the batching statistics.
"""

from __future__ import annotations

import ast
import os
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.codegen import ir
from repro.codegen.lowering import Unsupported
from repro.codegen.trigger import LinkedKernel, plan_trigger
from repro.compiler.program import INCREMENT, Trigger, TriggerProgram

try:  # pragma: no cover - exercised via the no-numpy CI leg
    if os.environ.get("REPRO_NO_NUMPY"):
        raise ImportError("disabled by REPRO_NO_NUMPY")
    import numpy as np

    _NUMPY_REASON: str | None = None
except ImportError as _exc:  # pragma: no cover
    np = None  # type: ignore[assignment]
    _NUMPY_REASON = f"numpy unavailable ({_exc})"


def numpy_available() -> bool:
    """True when the vector backend can run in this process."""
    return np is not None


def vector_unavailable_reason() -> str | None:
    """Why the vector backend is disabled, or None when it is available."""
    return _NUMPY_REASON


class VectorFallback(Exception):
    """A batch left the fast-numeric regime; the run goes to the fused kernel."""


#: Magnitude bound for exact float64 arithmetic over int-valued data.
_LIMIT = float(2**53)
_EPS = 1e-12
#: Above this many key segments the per-segment cumsum loop stops paying off.
_MAX_SEGMENTS = 64
_MISSING = object()


# ---------------------------------------------------------------------------
# Column batches
# ---------------------------------------------------------------------------


class ColumnBatch:
    """Columnarized view of one run's value tuples, in arrival order.

    Columns materialize lazily on first use, straight from the event tuples
    (one C-level ``itemgetter`` pass each), and classify by their set of
    element types: homogeneous ``int`` columns become int64 (overflow falls
    back), ``float`` columns float64 (non-finite falls back), ``str``
    columns object arrays (raw use only); anything else — bools,
    ``Fraction``, ``None``, mixed types — raises :class:`VectorFallback`.
    ``num()`` converts to float64 after the 2**53 exactness check; ``raw()``
    keeps the native dtype for guards and probe keys.  Sink-key
    factorizations are cached per position tuple so sibling sinks keyed
    by the same columns (the Q1 shape) pay once per batch.
    """

    __slots__ = ("n", "_rows", "_lists", "_raw", "_num", "_key_cache")

    def __init__(self, rows: Sequence[tuple]) -> None:
        self.n = len(rows)
        self._rows = rows
        self._lists: dict[int, list] = {}
        self._raw: dict[int, Any] = {}
        self._num: dict[int, Any] = {}
        self._key_cache: dict[tuple, tuple] = {}

    def col_list(self, index: int) -> list:
        """The native Python values of one event column (keys use these)."""
        vals = self._lists.get(index)
        if vals is None:
            vals = self._lists[index] = list(map(itemgetter(index), self._rows))
        return vals

    def raw(self, index: int):
        """Native-dtype ndarray of one column (int64 / float64 / object for str)."""
        arr = self._raw.get(index)
        if arr is None:
            arr = self._classify(self.col_list(index))
            self._raw[index] = arr
        return arr

    def num(self, index: int):
        """float64 ndarray of one column (exactness-checked for ints)."""
        arr = self._num.get(index)
        if arr is None:
            raw = self.raw(index)
            kind = raw.dtype.kind
            if kind == "f":
                arr = raw
            elif kind == "i":
                if not np.all(np.abs(raw) < _LIMIT):
                    raise VectorFallback("int-magnitude")
                arr = raw.astype(np.float64)
            else:
                raise VectorFallback("string-arithmetic")
            self._num[index] = arr
        return arr

    @staticmethod
    def _classify(vals: list):
        kinds = set(map(type, vals))
        if kinds == {int}:
            try:
                return np.array(vals, dtype=np.int64)
            except OverflowError:
                raise VectorFallback("int-overflow") from None
        if kinds == {float}:
            arr = np.array(vals, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise VectorFallback("non-finite")
            return arr
        if kinds == {str}:
            # Guards only: object arrays compare element-wise with Python's
            # own ``str`` ordering and skip the fixed-width '<U' conversion.
            return np.array(vals, dtype=object)
        raise VectorFallback("mixed-column")

    def key_groups(self, positions: tuple[int, ...]):
        """Factorize the key tuple at ``positions``: (keys, inverse array).

        ``keys`` are the distinct table key tuples (the native event values
        at ``positions``, so key value types are preserved exactly);
        ``inverse[i]`` indexes each batch row's key in ``keys``.  Cached per
        position tuple.
        """
        cached = self._key_cache.get(positions)
        if cached is None:
            lists = [self.col_list(p) for p in positions]
            mapping: dict[tuple, int] = {}
            inverse = np.empty(self.n, dtype=np.int64)
            uniques: list[tuple] = []
            for i, key in enumerate(zip(*lists)):
                j = mapping.get(key)
                if j is None:
                    j = len(uniques)
                    mapping[key] = j
                    uniques.append(key)
                inverse[i] = j
            cached = self._key_cache[positions] = (uniques, inverse)
        return cached

    def prewarm(self, uses: Sequence[tuple[str, Any]]) -> None:
        """Build the arrays/factorizations ``uses`` names (staged ingest)."""
        try:
            for kind, arg in uses:
                if kind == "num":
                    self.num(arg)
                elif kind == "raw":
                    self.raw(arg)
                elif kind == "key":
                    self.key_groups(arg)
        except VectorFallback:
            pass  # the apply path will fall back with the recorded reason


# ---------------------------------------------------------------------------
# Kernel runtime helpers (the emitted source calls these)
# ---------------------------------------------------------------------------


def _ck(a):
    """Exactness guard on every ``+ - *`` result (NaN-safe)."""
    if not np.all(np.abs(a) < _LIMIT):
        raise VectorFallback("magnitude")
    return a


def _and(mask, cond, b):
    """AND a guard into the row mask (scalar conditions broadcast)."""
    cond = np.asarray(cond)
    if cond.ndim == 0:
        cond = np.full(b.n, bool(cond))
    return cond if mask is None else mask & cond


def _nz(a):
    """Vectorized ``not is_zero``: exact for int-originated float values."""
    return np.abs(np.asarray(a)) > _EPS


def _zz(a):
    """Lift-binding normalization: zero-ish coerces to 0 (NormOrZero)."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.abs(a) <= _EPS, 0.0, a)


def _vdiv(a, b):
    """Vectorized :func:`repro.core.values.div`: zero denominator yields 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a, b = np.broadcast_arrays(a, b)
    zero = np.abs(b) <= _EPS
    out = a / np.where(zero, 1.0, b)
    return np.where(zero, 0.0, out)


def _numeric_table_ok(table) -> bool:
    """Epoch-cached regime check of a probed table's stored values."""
    cached = table._vector_cache
    if cached is not None and cached[0] == table.write_epoch:
        return cached[1]
    ok = True
    for value in table.primary.values():
        t = type(value)
        if t is int:
            if not -(2**53) < value < 2**53:
                ok = False
                break
        elif t is not float:
            ok = False
            break
    table._vector_cache = (table.write_epoch, ok)
    return ok


def _vprobe0(table, b):
    """Nullary primary probe broadcast over the batch."""
    value = table.primary.get(())
    found = value is not None
    value = _probe_value(value) if found else 0.0
    return (
        np.full(b.n, value, dtype=np.float64),
        np.full(b.n, found, dtype=bool),
    )


def _probe_value(value) -> float:
    t = type(value)
    if t is float:
        return value
    if t is int:
        if not -(2**53) < value < 2**53:
            raise VectorFallback("probe-magnitude")
        return float(value)
    raise VectorFallback("probe-value")


def _vprobe(table, b, arrays):
    """Bound-key primary probe gather: ``(values float64, found bool)``.

    ``arrays`` hold the key columns in the table's column order; the key
    tuples zip straight out of them.
    """
    if not _numeric_table_ok(table):
        raise VectorFallback("probe-table")
    primary = table.primary
    values = np.zeros(b.n, dtype=np.float64)
    found = np.zeros(b.n, dtype=bool)
    lists = [np.broadcast_to(arr, (b.n,)).tolist() for arr in arrays]
    for i, key in enumerate(zip(*lists)):
        stored = primary.get(key)
        if stored is not None:
            values[i] = _probe_value(stored)
            found[i] = True
    return values, found


def _range_view(index):
    """(keys, prefix) ndarrays of an exact ordered index, cached per refresh.

    Returns None whenever the vectorized probe would not be exact: broken or
    inexact index, Fraction totals, keys outside int/float/str, or prefix
    magnitudes at 2**53.
    """
    if index._broken or index._inexact_rows or index._needs_rebuild:
        return None
    if not index._refresh_arrays():
        return None
    stamp = (index.rebuilds, index.refreshes)
    cached = index._array_view
    if cached is not None and cached[0] == stamp:
        return cached[1]
    view = None
    keys = index._keys
    prefix = index._prefix
    if all(type(k) is int or type(k) is float for k in keys):
        if not any(
            type(k) is int and not -(2**53) < k < 2**53 for k in keys
        ):
            view = (np.array(keys, dtype=np.float64), None)
    elif all(type(k) is str for k in keys):
        view = (np.array(keys), None)
    if view is not None:
        if all(type(p) is int for p in prefix):
            try:
                prefix_arr = np.array(prefix, dtype=np.int64)
            except OverflowError:
                prefix_arr = None
            if prefix_arr is not None and np.all(np.abs(prefix_arr) < _LIMIT):
                view = (view[0], prefix_arr)
            else:
                view = None
        else:
            view = None
    index._array_view = (stamp, view)
    return view


#: op -> (searchsorted side, sum the suffix); mirrors ordered._PROBE_OPS.
_RANGE_SIDES = {
    ">": ("right", True),
    ">=": ("left", True),
    "<": ("left", False),
    "<=": ("right", False),
}


def _vrange(table, column, op, cutoff, b):
    """Vectorized ``range_sum``: prefix-sum probes against the ordered index."""
    index = table.range_index(column)
    if index.wants_rebuild:
        index.rebuild(table.primary.items())
    spec = _RANGE_SIDES.get(op)
    if spec is None:
        raise VectorFallback("range-op")
    view = _range_view(index)
    if view is None:
        raise VectorFallback("range-index")
    keys, prefix = view
    cutoff = np.asarray(cutoff)
    if keys.dtype.kind == "U":
        if cutoff.dtype.kind != "U":
            raise VectorFallback("range-cutoff")
    elif cutoff.dtype.kind not in "if" or (
        cutoff.dtype.kind == "f" and not np.all(np.isfinite(cutoff))
    ):
        raise VectorFallback("range-cutoff")
    side, suffix = spec
    at = np.searchsorted(keys, cutoff, side=side)
    total = (prefix[-1] - prefix[at]) if suffix else prefix[at]
    probes = b.n
    table.range_probes += probes
    index.probes += probes
    out = np.asarray(total, dtype=np.float64)
    if out.ndim == 0:
        out = np.full(b.n, float(out))
    return out


# ---------------------------------------------------------------------------
# Expression translation (scalar Python source -> array source)
# ---------------------------------------------------------------------------


class _ExprTranslator:
    """Rewrites lowered scalar expression source into array expressions.

    Numeric context computes in float64 with :func:`_ck` wrapped around every
    ``+ - *`` result; comparison operands that are bare event columns or
    string constants stay *raw* (int64 comparisons integer-exact, object
    arrays of ``str`` compare with Python's own ordering).
    """

    _NUM_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
    _CMP_OPS = {
        ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
        ast.Gt: ">", ast.GtE: ">=",
    }

    def __init__(self, event_locals: Mapping[str, int], scalar_locals: set,
                 env: Mapping[str, Any]) -> None:
        self.event_locals = event_locals
        self.scalar_locals = scalar_locals
        self.env = env
        self.uses: list[tuple[str, Any]] = []
        self.consts: dict[str, Any] = {}

    def numeric(self, source: str) -> str:
        return self._tx(ast.parse(source, mode="eval").body)

    def condition(self, source: str) -> str:
        node = ast.parse(source, mode="eval").body
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            return self._tx(node)
        left = self._operand(node.left)
        right = self._operand(node.comparators[0])
        op = self._CMP_OPS.get(type(node.ops[0]))
        if op is None:
            raise Unsupported("comparison operator")
        return f"({left} {op} {right})"

    def _operand(self, node: ast.expr) -> str:
        """A comparison operand: raw when it is a bare column or string."""
        if isinstance(node, ast.Name):
            index = self.event_locals.get(node.id)
            if index is not None:
                self.uses.append(("raw", index))
                return f"_b.raw({index})"
            value = self._env_const(node.id, _MISSING)
            if isinstance(value, str):
                self.consts[node.id] = value
                return node.id
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return repr(node.value)
        return self._tx(node)

    def _env_const(self, name: str, default):
        if name in self.scalar_locals or name in self.event_locals:
            return default
        return self.env.get(name, default)

    def _tx(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            index = self.event_locals.get(node.id)
            if index is not None:
                self.uses.append(("num", index))
                return f"_b.num({index})"
            if node.id in self.scalar_locals:
                return node.id
            value = self._env_const(node.id, _MISSING)
            if value is _MISSING:
                raise Unsupported(f"unknown local {node.id!r}")
            return self._const(value)
        if isinstance(node, ast.Constant):
            return self._const(node.value)
        if isinstance(node, ast.BinOp):
            op = self._NUM_OPS.get(type(node.op))
            if op is None:
                raise Unsupported("arithmetic operator")
            return f"_ck(({self._tx(node.left)} {op} {self._tx(node.right)}))"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self._tx(node.operand)})"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "_div" and len(node.args) == 2:
                return f"_vdiv({self._tx(node.args[0])}, {self._tx(node.args[1])})"
            raise Unsupported(f"call to {node.func.id!r}")
        if isinstance(node, ast.Compare):
            raise Unsupported("comparison outside a guard")
        raise Unsupported(f"expression node {type(node).__name__}")

    def _const(self, value) -> str:
        if type(value) is bool:
            return repr(int(value))
        if type(value) is int:
            if not -(2**53) < value < 2**53:
                raise Unsupported("integer literal at 2**53")
            return repr(value)
        if type(value) is float:
            return repr(value)
        raise Unsupported(f"constant of type {type(value).__name__}")


def _parsed(source: str) -> ast.expr:
    return ast.parse(source, mode="eval").body


def _parse_key_expr(key_expr: str) -> list[str]:
    """``(local, ...,)`` -> [local, ...] (empty for the nullary key ``()``)."""
    node = _parsed(key_expr)
    if not (isinstance(node, ast.Tuple)
            and all(isinstance(item, ast.Name) for item in node.elts)):
        raise Unsupported("key is not a tuple of locals")
    return [item.id for item in node.elts]


# ---------------------------------------------------------------------------
# The vector trigger compiler
# ---------------------------------------------------------------------------


class VectorKernel(LinkedKernel):
    """One trigger's columnar batch kernel: emitted source plus sink specs.

    ``sinks`` lists ``(target map, key positions)`` per ``+=`` statement, in
    statement order — one ``(mask, value)`` pair of the kernel's result each.
    """

    __slots__ = ("uses", "sinks", "_sink_handles")
    _entry = "_vkernel"

    def __init__(self, trigger: Trigger, source: str, env: dict,
                 tables: Sequence[tuple[str, str, str]],
                 uses: Sequence[tuple[str, Any]],
                 sinks: Sequence[tuple[str, str, tuple[int, ...]]]) -> None:
        super().__init__(f"<repro.vector:{trigger.name}>", source, env, tables)
        self.uses = tuple(uses)
        self.sinks = tuple((target, positions) for target, _, positions in sinks)
        self._sink_handles = tuple(handle for _, handle, _ in sinks)

    def _link(self, fn: Callable, namespace: dict[str, Any]) -> "BoundVectorKernel":
        return BoundVectorKernel(self, fn, [namespace[h] for h in self._sink_handles])


class BoundVectorKernel:
    """A linked vector kernel: compute every sink's write list, then commit."""

    __slots__ = ("spec", "_fn", "_tables")

    def __init__(self, spec: VectorKernel, fn: Callable, tables: list) -> None:
        self.spec = spec
        self._fn = fn
        self._tables = tables

    def compute(self, batch: ColumnBatch) -> list[list[tuple[tuple, float]]]:
        """Run the kernel and build every sink's ordered write list.

        Touches no table; raises :class:`VectorFallback` (or whatever a
        masked-out row made numpy raise) before any write exists.
        """
        for table in self._tables:
            if table._watcher is not None:
                # set_total skips no-op notifications the per-tuple path would
                # emit; keep watcher notifications exact on fused code.
                raise VectorFallback("watcher")
        return [
            _sink_writes(batch, table, positions, mask, acc)
            for (mask, acc), table, (_, positions) in zip(
                self._fn(batch), self._tables, self.spec.sinks
            )
        ]

    def commit(self, writes: list[list[tuple[tuple, float]]]) -> None:
        for table, sink in zip(self._tables, writes):
            set_total = table.set_total
            for key, total in sink:
                set_total(key, total)


def _sink_writes(batch: ColumnBatch, table, positions: tuple[int, ...],
                 mask, acc) -> list[tuple[tuple, float]]:
    """One sink's ordered write list: seeded per-key add chains (no mutations)."""
    deltas = np.asarray(acc, dtype=np.float64)
    if deltas.ndim == 0:
        deltas = np.full(batch.n, float(deltas))
    # One row per event (multiplicity 1): the seeded cumsum below adds
    # each event's delta in arrival order, as per-event execution does.
    deltas = _ck(deltas)
    if mask is not None:
        selected = np.flatnonzero(mask)
        if selected.size == 0:
            return []
        deltas = deltas[selected]
    else:
        selected = None
    primary = table.primary
    if not positions:
        seed = _seed_value(primary.get(()))
        return [((), _chain(seed, deltas))]
    keys, inverse = batch.key_groups(positions)
    if selected is not None:
        inverse = inverse[selected]
    count = len(inverse)
    order = np.argsort(inverse, kind="stable")
    inv_sorted = inverse[order]
    d_sorted = deltas[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(inv_sorted)) + 1, [count])
    )
    n_segments = len(starts) - 1
    if n_segments > _MAX_SEGMENTS:
        if count != n_segments:
            raise VectorFallback("segments")
        # Every key occurs once: one exact seeded add, fully vectorized.
        ids = inv_sorted
        seeds = np.empty(n_segments, dtype=np.float64)
        for j, u in enumerate(ids.tolist()):
            seeds[j] = _seed_value(primary.get(keys[u]))
        totals = seeds + d_sorted
        if not np.all(np.abs(totals) < _LIMIT):
            raise VectorFallback("magnitude")
        firsts = order  # singleton segments: sorted position = first use
        commit_order = np.argsort(firsts, kind="stable")
        total_list = totals.tolist()
        return [(keys[ids[j]], total_list[j]) for j in commit_order.tolist()]
    firsts = np.full(len(keys), count, dtype=np.int64)
    np.minimum.at(firsts, inverse, np.arange(count))
    segments = []
    for j in range(n_segments):
        u = int(inv_sorted[starts[j]])
        seed = _seed_value(primary.get(keys[u]))
        total = _chain(seed, d_sorted[starts[j]:starts[j + 1]])
        segments.append((int(firsts[u]), keys[u], total))
    segments.sort(key=lambda entry: entry[0])
    return [(key, total) for _, key, total in segments]


def _seed_value(stored) -> float:
    if stored is None:
        return 0.0
    t = type(stored)
    if t is int or t is float:
        if not -(2**53) < stored < 2**53:
            raise VectorFallback("seed-magnitude")
        return float(stored)
    raise VectorFallback("seed-type")


def _chain(seed: float, deltas) -> float:
    """One key's seeded add chain, left to right: its final total."""
    partials = np.cumsum(np.concatenate(([seed], deltas)))[1:]
    if not np.all(np.abs(partials) < _LIMIT):
        raise VectorFallback("magnitude")
    if partials.size > 1 and np.any(np.abs(partials[:-1]) <= _EPS):
        # The scalar chain would delete and re-insert this key, moving it
        # to the end of the dict: insertion-order hazard.
        raise VectorFallback("interzero")
    return float(partials[-1])


_KERNEL_GLOBALS = {
    "np": None, "_ck": _ck, "_and": _and, "_nz": _nz, "_zz": _zz,
    "_vdiv": _vdiv, "_vprobe": _vprobe, "_vprobe0": _vprobe0,
    "_vrange": _vrange,
}


def compile_vector(trigger: Trigger, program: TriggerProgram) -> VectorKernel:
    """Compile the ``+=`` steps of one trigger into one columnar batch kernel.

    It walks the plan of the fused ``+=`` kernel (:func:`plan_trigger`
    without the ``:=`` steps) and returns one ``(mask, value)`` pair per
    sink.  Only bulk-safe triggers whose statements write distinct maps
    qualify (every sink is computed from the state before the run), and
    only straight-line steps lower: a loop, branch, merge accumulator or
    grouped aggregate keeps the trigger scalar.  The compile attempt *is*
    the capability check; raises :class:`Unsupported` naming the blocker.
    """
    if np is None:
        raise Unsupported(_NUMPY_REASON or "numpy unavailable")
    if not any(s.operation == INCREMENT for s in trigger.statements):
        raise Unsupported("no += statement")
    if not trigger.bulk_safe():
        raise Unsupported("not bulk-safe")
    targets = [s.target for s in trigger.statements]
    if len(set(targets)) != len(targets):
        raise Unsupported("two statements write one map")
    plan = plan_trigger(trigger, program, assigns=False)
    ctx = plan.ctx

    event_locals: dict[str, int] = {}
    rows: dict[str, list[str]] = {}  # key-row locals -> the locals they pack
    methods: dict[str, tuple[str, str]] = {}
    scalar_locals: set = set()
    handles = {handle: (kind, name) for handle, kind, name in ctx.tables}
    tx = _ExprTranslator(event_locals, scalar_locals, ctx.env.env)
    lines = ["def _vkernel(_b):"]
    masks: dict[tuple[str, str], str] = {}  # (mask, condition) -> ANDed mask
    sinks: list[tuple[str, str, tuple[int, ...]]] = []
    results: list[str] = []

    def key_locals(key_expr: str) -> list[str]:
        return rows[key_expr] if key_expr in rows else _parse_key_expr(key_expr)

    def lower(node: ir.Node) -> str | None:
        """Emit one node's arrays; a guard returns its row condition instead."""
        kind = node.kind
        if kind == "event_load":
            event_locals[node.local] = node.index
        elif kind == "bind_method":
            if node.attr not in ("add", "range_sum"):
                raise Unsupported(f"method {node.attr!r}")
            methods[node.local] = (node.handle, node.attr)
        elif kind == "let" and isinstance(_parsed(node.expr), ast.Tuple):
            rows[node.local] = _parse_key_expr(node.expr)  # a key row: no array
        elif kind == "let" and isinstance(_parsed(node.expr), ast.Compare):
            lines.append(f"    {node.local} = {tx.condition(node.expr)}")  # a shared guard
            scalar_locals.add(node.local)
        elif kind in ("let", "norm"):
            lines.append(f"    {node.local} = {tx.numeric(node.expr)}")
            scalar_locals.add(node.local)
        elif kind == "lift_bind":
            lines.append(f"    {node.local} = _zz({tx.numeric(node.expr)})")
            scalar_locals.add(node.local)
        elif kind == "guard_zero":
            return f"_nz({tx.numeric(node.expr)})"
        elif kind == "guard_cond":
            return tx.condition(node.expr)
        elif kind == "guard_eq":
            return f"({tx.numeric(node.left)} == {tx.numeric(node.right)})"
        elif kind == "guard_none":
            return f"{node.local}_f"
        elif kind == "primary_probe":
            if node.handle not in handles:
                raise Unsupported("unknown probe handle")
            keys = key_locals(node.key_expr)
            if not keys:
                call = f"_vprobe0({node.handle}, _b)"
            else:
                parts = ", ".join(tx.numeric(local) for local in keys)
                call = f"_vprobe({node.handle}, _b, ({parts},))"
            lines.append(f"    {node.local}, {node.local}_f = {call}")
            scalar_locals.add(node.local)
            scalar_locals.add(f"{node.local}_f")
        elif kind == "default_zero":
            pass  # missing probes already gathered as 0.0
        elif kind == "range_probe":
            resolved = methods.get(node.probe_local)
            if resolved is None or resolved[1] != "range_sum":
                raise Unsupported("range probe handle")
            cutoff = tx.numeric(node.cutoff_expr)
            lines.append(
                f"    {node.local} = _vrange({resolved[0]}, "
                f"{node.column!r}, {node.op!r}, {cutoff}, _b)"
            )
            scalar_locals.add(node.local)
        else:
            raise Unsupported(f"IR node {kind!r}")
        return None

    def narrow(mask: str, node: ir.Node) -> str:
        """Lower one node; a guard ANDs into ``mask`` (equal masks are shared)."""
        condition = lower(node)
        if condition is None:
            return mask
        anded = masks.get((mask, condition))
        if anded is None:
            anded = masks[(mask, condition)] = ctx.fresh("k")
            lines.append(f"    {anded} = _and({mask}, {condition}, _b)")
        return anded

    shared = "None"  # the hoisted guards' mask, where every sink's starts
    for node in plan.head:
        shared = narrow(shared, node)
    for statement, body in plan.steps:
        if statement is None:
            continue  # the base-relation apply stays with the engine
        mask = shared
        for node in body[:-1]:
            mask = narrow(mask, node)
        sink = body[-1] if body else None
        if sink is None or sink.kind != "sink_add":
            raise Unsupported("step does not end in its sink")
        resolved = methods.get(sink.add_local)
        if resolved is None or resolved[1] != "add":
            raise Unsupported("sink handle")
        positions = []
        for local in key_locals(sink.key_expr):
            index = event_locals.get(local)
            if index is None:
                # Computed keys would store float-typed values into key
                # tuples; only raw event columns keep the stored key types
                # bit-identical.
                raise Unsupported("sink key is not an event column")
            positions.append(index)
        if positions:
            tx.uses.append(("key", tuple(positions)))
        sinks.append((statement.target, resolved[0], tuple(positions)))
        results.append(f"({mask}, {tx.numeric(sink.value_expr)})")
    lines.append(f"    return ({', '.join(results)},)")

    env = dict(_KERNEL_GLOBALS)
    env["np"] = np
    env.update(tx.consts)
    uses = list(dict.fromkeys(tx.uses))
    return VectorKernel(trigger, "\n".join(lines) + "\n", env, ctx.tables, uses, sinks)

