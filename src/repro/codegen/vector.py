"""Columnar batch emitter: numpy-vectorized kernels over the kernel IR.

The scalar pipeline (plan -> IR -> fuse -> emit) produces one per-event kernel
per trigger; this module walks the *same* statement IR and emits, for one
``+=`` statement, a kernel that processes an entire run of same-trigger
events per call — one ndarray per trigger column, masks instead of branch
guards, hash-probe gathers against the table primaries, prefix-sum range
probes against :class:`~repro.runtime.ordered.OrderedRangeIndex`, and a
segmented seeded-cumsum sink that reproduces the scalar add chain.

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

Fallback is per *run*: each kernel computes its entire write list before
touching any table, and the batched engine computes every statement's list
before committing any, so a run with one failed statement goes whole through
the fused scalar kernel with the state exactly as it was before the run.

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
from repro.compiler.program import INCREMENT, Statement, TriggerProgram

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
    factorizations are cached per position tuple so sibling statements keyed
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
    if value is None:
        value = 0.0
    else:
        value = _probe_value(value)
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


def _parse_key_expr(key_expr: str) -> list[str]:
    """``(local, ...,)`` -> [local, ...] (empty for the nullary key ``()``)."""
    node = ast.parse(key_expr, mode="eval").body
    if not (isinstance(node, ast.Tuple)
            and all(isinstance(item, ast.Name) for item in node.elts)):
        raise Unsupported("key is not a tuple of locals")
    return [item.id for item in node.elts]


# ---------------------------------------------------------------------------
# The vector statement compiler
# ---------------------------------------------------------------------------


class VectorKernel:
    """One statement's columnar batch kernel: emitted source plus sink spec."""

    __slots__ = ("statement", "source", "uses", "key_positions",
                 "_code", "_env", "_tables")

    def __init__(self, statement: Statement, source: str, env: dict,
                 tables: Sequence[tuple[str, str, str]],
                 uses: Sequence[tuple[str, Any]],
                 key_positions: tuple[int, ...]) -> None:
        self.statement = statement
        self.source = source
        self.uses = tuple(uses)
        self.key_positions = key_positions
        self._code = compile(source, f"<repro.vector:{statement.target}>", "exec")
        self._env = env
        self._tables = tuple(tables)

    def bind(self, maps, database) -> "BoundVectorKernel":
        namespace = dict(self._env)
        for handle, kind, name in self._tables:
            namespace[handle] = (
                maps.table(name) if kind == "map" else database.table(name)
            )
        exec(self._code, namespace)
        return BoundVectorKernel(self, namespace["_vkernel"])


class BoundVectorKernel:
    """A linked vector kernel: compute the write list, then commit it."""

    __slots__ = ("spec", "_fn")

    def __init__(self, spec: VectorKernel, fn: Callable) -> None:
        self.spec = spec
        self._fn = fn

    def compute(self, batch: ColumnBatch, table) -> list[tuple[tuple, float]]:
        """Run the kernel and build the ordered write list (no mutations)."""
        mask, acc = self._fn(batch)
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
        spec = self.spec
        if not spec.key_positions:
            seed = _seed_value(primary.get(()))
            return [((), _chain(seed, deltas))]
        keys, inverse = batch.key_groups(spec.key_positions)
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
        writes: list[tuple[tuple, float]] = []
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
            for j in commit_order.tolist():
                writes.append((keys[ids[j]], total_list[j]))
            return writes
        firsts = np.full(len(keys), count, dtype=np.int64)
        np.minimum.at(firsts, inverse, np.arange(count))
        segments = []
        for j in range(n_segments):
            u = int(inv_sorted[starts[j]])
            seed = _seed_value(primary.get(keys[u]))
            partials = np.cumsum(
                np.concatenate(([seed], d_sorted[starts[j]:starts[j + 1]]))
            )[1:]
            if not np.all(np.abs(partials) < _LIMIT):
                raise VectorFallback("magnitude")
            if partials.size > 1 and np.any(np.abs(partials[:-1]) <= _EPS):
                # The scalar chain would delete and re-insert this key,
                # moving it to the end of the dict: insertion-order hazard.
                raise VectorFallback("interzero")
            segments.append((int(firsts[u]), keys[u], float(partials[-1])))
        segments.sort(key=lambda entry: entry[0])
        return [(key, total) for _, key, total in segments]

    def commit(self, table, writes: list[tuple[tuple, float]]) -> None:
        set_total = table.set_total
        for key, total in writes:
            set_total(key, total)


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
    partials = np.cumsum(np.concatenate(([seed], deltas)))[1:]
    if not np.all(np.abs(partials) < _LIMIT):
        raise VectorFallback("magnitude")
    if partials.size > 1 and np.any(np.abs(partials[:-1]) <= _EPS):
        raise VectorFallback("interzero")
    return float(partials[-1])


_KERNEL_GLOBALS = {
    "np": None, "_ck": _ck, "_and": _and, "_nz": _nz, "_zz": _zz,
    "_vdiv": _vdiv, "_vprobe": _vprobe, "_vprobe0": _vprobe0,
    "_vrange": _vrange,
}


def compile_vector(statement: Statement, program: TriggerProgram) -> VectorKernel:
    """Compile one ``+=`` statement into a columnar batch kernel.

    Only the straight-line "direct" statement shape vectorizes: a single
    product term whose target is unread by its own trigger.  Anything with a
    loop, branch, merge accumulator or grouped aggregate stays scalar — the
    compile attempt *is* the capability check, exactly like the scalar
    pipeline.  Raises :class:`Unsupported` with the blocking construct.
    """
    if np is None:
        raise Unsupported(_NUMPY_REASON or "numpy unavailable")
    if statement.operation != INCREMENT:
        raise Unsupported("not an increment statement")
    from repro.codegen.statement import _StatementCompiler

    compiler = _StatementCompiler(statement, program)
    body = compiler.compile()
    ctx = compiler.ctx
    nodes = ctx.preamble() + body

    event_locals: dict[str, int] = {}
    methods: dict[str, tuple[str, str]] = {}
    scalar_locals: set = set()
    handles = {handle: (kind, name) for handle, kind, name in ctx.tables}
    tx = _ExprTranslator(event_locals, scalar_locals, ctx.env.env)
    lines = ["def _vkernel(_b):", "    _mask = None"]
    sink: tuple | None = None

    for node in nodes:
        kind = node.kind
        if kind == "event_load":
            event_locals[node.local] = node.index
        elif kind == "bind_method":
            if node.attr not in ("add", "range_sum"):
                raise Unsupported(f"method {node.attr!r}")
            methods[node.local] = (node.handle, node.attr)
        elif kind == "norm":
            lines.append(f"    {node.local} = {tx.numeric(node.expr)}")
            scalar_locals.add(node.local)
        elif kind == "lift_bind":
            lines.append(f"    {node.local} = _zz({tx.numeric(node.expr)})")
            scalar_locals.add(node.local)
        elif kind == "let":
            lines.append(f"    {node.local} = {tx.numeric(node.expr)}")
            scalar_locals.add(node.local)
        elif kind == "guard_zero":
            lines.append(
                f"    _mask = _and(_mask, _nz({tx.numeric(node.expr)}), _b)"
            )
        elif kind == "guard_cond":
            lines.append(
                f"    _mask = _and(_mask, {tx.condition(node.expr)}, _b)"
            )
        elif kind == "guard_eq":
            left = tx.numeric(node.left)
            right = tx.numeric(node.right)
            lines.append(f"    _mask = _and(_mask, ({left} == {right}), _b)")
        elif kind == "primary_probe":
            if node.handle not in handles:
                raise Unsupported("unknown probe handle")
            key_locals = _parse_key_expr(node.key_expr)
            if not key_locals:
                call = f"_vprobe0({node.handle}, _b)"
            else:
                parts = ", ".join(tx.numeric(local) for local in key_locals)
                call = f"_vprobe({node.handle}, _b, ({parts},))"
            lines.append(f"    {node.local}, {node.local}_f = {call}")
            scalar_locals.add(node.local)
            scalar_locals.add(f"{node.local}_f")
        elif kind == "guard_none":
            lines.append(f"    _mask = _and(_mask, {node.local}_f, _b)")
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
        elif kind == "sink_add":
            if sink is not None:
                raise Unsupported("multiple sinks")
            resolved = methods.get(node.add_local)
            if resolved is None or resolved[1] != "add":
                raise Unsupported("sink handle")
            positions = []
            for local in _parse_key_expr(node.key_expr):
                index = event_locals.get(local)
                if index is None:
                    # Computed keys would store float-typed values into
                    # key tuples; only raw event columns keep the stored
                    # key types bit-identical.
                    raise Unsupported("sink key is not an event column")
                positions.append(index)
            sink = tuple(positions)
            if sink:
                tx.uses.append(("key", sink))
            value = tx.numeric(node.value_expr)
            lines.append(f"    return _mask, {value}")
        else:
            raise Unsupported(f"IR node {kind!r}")
    if sink is None:
        raise Unsupported("no sink")

    env = dict(_KERNEL_GLOBALS)
    env["np"] = np
    env.update(tx.consts)
    uses = list(dict.fromkeys(tx.uses))
    return VectorKernel(statement, "\n".join(lines) + "\n", env, ctx.tables, uses, sink)


def try_compile_vector(
    statement: Statement, program: TriggerProgram
) -> VectorKernel | None:
    """:func:`compile_vector`, with Unsupported collapsed to None."""
    try:
        return compile_vector(statement, program)
    except Unsupported:
        return None

