"""Output checks that share no code with the compiler.

Three checks, all over the benchmark's own fold of the stream into final
base tables (``relation -> {values: multiplicity}``):

(a) ``reference_mismatches`` — a prefix of a query's stream against the
    nested-loop ``ReferenceEngine``, exact in types and in values (two float
    sums may differ by their summation order, 1e-9 relative);
(b) ``recompute`` — the full stream of Q1, Q6, Q3, VWAP, AXF, BSP and BSV by
    plain-Python recomputation (hash joins, sorts and prefix sums in exact
    integer/rational arithmetic);
(c) the served checks in ``served.py`` reuse (b) on what a restarted server
    answers.

An integer result below 2**50 reported as an ``int`` must be equal: integer and
rational arithmetic is exact, and so is float arithmetic on integers that
small.  Everything else — floats, and the integers the program makes of
integral floats, which BSV's ``* 0.5`` sums reach — must agree within 1e-9
relative.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate

import engines

RELATIVE_TOLERANCE = 1e-9
EXACT_INT_LIMIT = 2 ** 50


def fold(events, tables=None) -> dict[str, dict[tuple, int]]:
    """Final base tables after ``events``: multiset of live tuples per relation."""
    tables = {} if tables is None else tables
    for event in events:
        table = tables.setdefault(event.relation, {})
        count = table.get(event.values, 0) + event.sign
        if count:
            table[event.values] = count
        else:
            del table[event.values]
    return tables


def exact(value):
    """The exact rational a stored number stands for."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else Fraction(value)
    return value


def values_agree(want, got) -> bool:
    """``got`` (the program's) against ``want`` (exact)."""
    if isinstance(want, int) and isinstance(got, int) and abs(want) < EXACT_INT_LIMIT:
        return want == got
    scale = max(1.0, abs(float(want)), abs(float(got)))
    return abs(float(want) - float(got)) <= RELATIVE_TOLERANCE * scale


# -- (a) nested-loop reference over a stream prefix ------------------------------


def reference_mismatches(query_input, prefix, got_views) -> list[str]:
    """Compare ``got_views`` (root -> {sorted (column, value) items: value}, taken
    after ``prefix``) with ``ReferenceEngine`` on the same prefix."""
    if not prefix:
        return []
    translated = query_input.translated
    reference = engines.ReferenceEngine(translated.roots(), translated.schemas())
    for relation, rows in query_input.static_tables.items():
        reference.load_static(relation, rows)
    # ReferenceEngine re-evaluates every query on each apply(); loading the
    # folded prefix as static rows and applying only the last event evaluates once.
    for relation, table in fold(prefix[:-1]).items():
        reference.load_static(
            relation, [values for values, count in table.items() for _ in range(count)]
        )
    reference.apply(prefix[-1])
    problems = []
    for root in translated.roots():
        want = view_items(reference.view(root))
        got = got_views[root]
        for key in want.keys() | got.keys():
            w, g = want.get(key), got.get(key)
            if type(w) is not type(g) or not _same(w, g):
                problems.append(
                    f"{query_input.name}/{root} {dict(key)}: engine {g!r} reference {w!r}"
                )
    return problems


def _same(want, got) -> bool:
    """Equal; two floats may differ by the order their addends were summed in."""
    if isinstance(want, float) and isinstance(got, float):
        return abs(want - got) <= RELATIVE_TOLERANCE * max(1.0, abs(want), abs(got))
    return want == got


def view_items(gmr) -> dict[tuple, object]:
    """A view as ``{sorted (column, value) items: value}``, independent of key order."""
    return {tuple(sorted(dict(row).items())): value for row, value in gmr.items()}


# -- (b) plain-Python recomputation ----------------------------------------------

LINEITEM = ("orderkey", "partkey", "suppkey", "linenumber", "quantity", "extendedprice",
            "discount", "tax", "returnflag", "linestatus", "shipdate", "commitdate",
            "receiptdate", "shipmode", "shipinstruct")
ORDERS = ("orderkey", "custkey", "orderstatus", "totalprice", "orderdate",
          "orderpriority", "shippriority")
CUSTOMER = ("custkey", "name", "nationkey", "acctbal", "mktsegment", "phone")
BOOK = ("t", "id", "broker_id", "volume", "price")


def _rows(tables, relation, columns):
    for values, count in tables.get(relation, {}).items():
        yield dict(zip(columns, values)), count


def _q1(tables):
    sums = defaultdict(lambda: defaultdict(int))
    for row, count in _rows(tables, "Lineitem", LINEITEM):
        if not row["shipdate"] <= "1997-09-01":
            continue
        quantity, price = exact(row["quantity"]), exact(row["extendedprice"])
        discount, tax = exact(row["discount"]), exact(row["tax"])
        group = sums[(row["returnflag"], row["linestatus"])]
        for label, value in (
            ("sum_qty", quantity),
            ("sum_base_price", price),
            ("sum_disc_price", price * (1 - discount)),
            ("sum_charge", price * (1 - discount) * (1 + tax)),
            ("avg_qty_sum", quantity),
            ("avg_qty_cnt", 1),
            ("avg_price_sum", price),
            ("avg_price_cnt", 1),
            ("avg_disc_sum", discount),
            ("avg_disc_cnt", 1),
            ("count_order", 1),
        ):
            group[label] += value * count
    views = defaultdict(list)
    for (returnflag, linestatus), group in sums.items():
        key = {"l_returnflag": returnflag, "l_linestatus": linestatus}
        for label, value in group.items():
            views[f"Q1_{label}"].append((key, value))
    return views


def _q6(tables):
    total = 0
    for row, count in _rows(tables, "Lineitem", LINEITEM):
        if ("1994-01-01" <= row["shipdate"] < "1995-01-01"
                and 0.05 <= row["discount"] <= 0.07 and row["quantity"] < 24):
            total += exact(row["extendedprice"]) * exact(row["discount"]) * count
    return {"Q6_revenue": [({}, total)]}


def _q3(tables):
    building = defaultdict(int)  # custkey -> BUILDING customers
    for row, count in _rows(tables, "Customer", CUSTOMER):
        if row["mktsegment"] == "BUILDING":
            building[row["custkey"]] += count
    orders = defaultdict(list)  # orderkey -> [(group key, weight)]
    for row, count in _rows(tables, "Orders", ORDERS):
        weight = building.get(row["custkey"], 0) * count
        if weight and row["orderdate"] < "1995-03-15":
            orders[row["orderkey"]].append(
                ((row["orderkey"], row["orderdate"], row["shippriority"]), weight)
            )
    revenue = defaultdict(int)
    for row, count in _rows(tables, "Lineitem", LINEITEM):
        if row["shipdate"] > "1995-03-15":
            amount = exact(row["extendedprice"]) * (1 - exact(row["discount"])) * count
            for group, weight in orders.get(row["orderkey"], ()):
                revenue[group] += amount * weight
    return {"Q3_revenue": [
        ({"o_orderkey": k, "o_orderdate": d, "o_shippriority": p}, value)
        for (k, d, p), value in revenue.items()
    ]}


def _book(tables, relation):
    return [
        (exact(row["t"]), row["broker_id"], exact(row["volume"]), exact(row["price"]), count)
        for row, count in _rows(tables, relation, BOOK)
    ]


def _vwap(tables):
    by_price = defaultdict(lambda: [0, 0])  # price -> [volume, price*volume]
    for _, _, volume, price, count in _book(tables, "Bids"):
        by_price[price][0] += volume * count
        by_price[price][1] += price * volume * count
    total_volume = sum(v for v, _ in by_price.values())
    result, above = 0, 0
    for price in sorted(by_price, reverse=True):
        volume, weighted = by_price[price]
        if Fraction(1, 4) * total_volume > above:
            result += weighted
        above += volume
    return {"VWAP_vwap": [({}, result)]}


def _axf(tables):
    asks = defaultdict(list)
    for _, broker, volume, price, count in _book(tables, "Asks"):
        asks[broker].append((price, volume * count, count))
    result = defaultdict(int)
    for broker, rows in asks.items():
        rows.sort()
        asks[broker] = (
            [price for price, _, _ in rows],
            [0, *accumulate(volume for _, volume, _ in rows)],
            [0, *accumulate(count for _, _, count in rows)],
        )
    for _, broker, volume, price, count in _book(tables, "Bids"):
        if broker not in asks:
            continue
        prices, volumes, counts = asks[broker]
        low = bisect_left(prices, price - 1000)    # asks with a.price < b.price - 1000
        high = bisect_right(prices, price + 1000)  # asks with a.price > b.price + 1000
        ask_volume = volumes[low] + volumes[-1] - volumes[high]
        ask_count = counts[low] + counts[-1] - counts[high]
        result[broker] += (ask_volume - ask_count * volume) * count
    return {"AXF_axfinder": [({"b_broker_id": b}, v) for b, v in result.items()]}


def _bsp(tables):
    brokers = defaultdict(lambda: defaultdict(lambda: [0, 0]))  # broker -> t -> [n, n*v*p]
    for t, broker, volume, price, count in _book(tables, "Bids"):
        slot = brokers[broker][t]
        slot[0] += count
        slot[1] += volume * price * count
    views = []
    for broker, by_time in brokers.items():
        total, earlier_count, earlier_weight = 0, 0, 0
        for t in sorted(by_time):
            count, weight = by_time[t]
            total += earlier_count * weight - count * earlier_weight
            earlier_count += count
            earlier_weight += weight
        views.append(({"x_broker_id": broker}, total))
    return {"BSP_bsp": views}


def _bsv(tables):
    weights = defaultdict(int)
    for _, broker, volume, price, count in _book(tables, "Bids"):
        weights[broker] += volume * price * count
    return {"BSV_bsv": [
        ({"x_broker_id": b}, w * w * Fraction(1, 2)) for b, w in weights.items()
    ]}


RECOMPUTE = {"Q1": _q1, "Q6": _q6, "Q3": _q3, "VWAP": _vwap, "AXF": _axf,
             "BSP": _bsp, "BSV": _bsv}


def recompute(name: str, tables) -> dict[str, list]:
    """``root -> [(column dict, exact value)]`` for one of the RECOMPUTE queries."""
    return RECOMPUTE[name](tables)


def recompute_mismatches(name: str, expected, got) -> list[str]:
    """``got`` is ``root -> (declared key columns, {key tuple: value})``."""
    problems = []
    for root, (columns, entries) in got.items():
        want = {tuple(key[c] for c in columns): value for key, value in expected.get(root, ())}
        for key in want.keys() | entries.keys():
            w, g = want.get(key, 0), entries.get(key, 0)
            if not values_agree(w, g):
                problems.append(f"{name}/{root} {key}: program {g!r} recomputed {w!r}")
    missing = set(expected) - set(got)
    if missing:
        problems.append(f"{name}: views never read: {sorted(missing)}")
    return problems
