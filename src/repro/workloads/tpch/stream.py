"""Synthesizing the TPC-H update stream (Section 8 of the paper).

The paper simulates a system monitoring a set of "active" orders: insertions
on all relations are randomly interleaved (respecting foreign keys), and once
the Orders/Lineitem tables reach a target size, random deletions of old
orders and their line items keep the working set roughly constant.  Customer,
Part, Supplier and Partsupp are insert-only; Nation and Region are static and
never appear on the stream.
"""

from __future__ import annotations

import random
from collections import deque

from repro.delta.events import StreamEvent, delete, insert
from repro.streams.agenda import Agenda
from repro.workloads.tpch.generator import TPCHData, TPCHGenerator


def synthesize_tpch_stream(
    data: TPCHData,
    seed: int = 11,
    max_live_orders: int = 300,
    max_events: int | None = None,
) -> Agenda:
    """Build the insert/delete agenda for a generated TPC-H dataset."""
    rng = random.Random(seed)
    agenda = Agenda()

    customers = {row[0]: row for row in data.customers}
    parts = {row[0]: row for row in data.parts}
    suppliers = {row[0]: row for row in data.suppliers}
    partsupps = {(row[0], row[1]): row for row in data.partsupps}
    lineitems_by_order: dict[int, list[tuple]] = {}
    for row in data.lineitems:
        lineitems_by_order.setdefault(row[0], []).append(row)

    emitted_customers: set[int] = set()
    emitted_parts: set[int] = set()
    emitted_suppliers: set[int] = set()
    emitted_partsupps: set[tuple[int, int]] = set()
    live_orders: deque[tuple[tuple, list[tuple]]] = deque()

    def emit(event: StreamEvent) -> bool:
        if max_events is not None and len(agenda) >= max_events:
            return False
        agenda.append(event)
        return True

    order_sequence = list(data.orders)
    rng.shuffle(order_sequence)

    for order in order_sequence:
        orderkey, custkey = order[0], order[1]
        items = lineitems_by_order.get(orderkey, [])

        if custkey not in emitted_customers:
            emitted_customers.add(custkey)
            if not emit(insert("Customer", *customers[custkey])):
                return agenda
        for item in items:
            partkey, suppkey = item[1], item[2]
            if partkey not in emitted_parts:
                emitted_parts.add(partkey)
                if not emit(insert("Part", *parts[partkey])):
                    return agenda
            if suppkey not in emitted_suppliers:
                emitted_suppliers.add(suppkey)
                if not emit(insert("Supplier", *suppliers[suppkey])):
                    return agenda
            if (partkey, suppkey) in partsupps and (partkey, suppkey) not in emitted_partsupps:
                emitted_partsupps.add((partkey, suppkey))
                if not emit(insert("Partsupp", *partsupps[(partkey, suppkey)])):
                    return agenda

        if not emit(insert("Orders", *order)):
            return agenda
        for item in items:
            if not emit(insert("Lineitem", *item)):
                return agenda
        live_orders.append((order, items))

        while len(live_orders) > max_live_orders:
            victim_index = rng.randrange(len(live_orders) // 2 or 1)
            live_orders.rotate(-victim_index)
            victim_order, victim_items = live_orders.popleft()
            live_orders.rotate(victim_index)
            for item in victim_items:
                if not emit(delete("Lineitem", *item)):
                    return agenda
            if not emit(delete("Orders", *victim_order)):
                return agenda

    return agenda


def tpch_stream(
    events: int = 4000,
    scale: float = 1.0,
    seed: int = 7,
    max_live_orders: int = 300,
) -> Agenda:
    """Convenience: generate data and synthesize a stream of at most ``events`` updates."""
    generator = TPCHGenerator(scale=scale, seed=seed)
    data = generator.generate()
    return synthesize_tpch_stream(
        data, seed=seed + 1, max_live_orders=max_live_orders, max_events=events
    )


def static_tables(scale: float = 1.0, seed: int = 7) -> dict[str, list[tuple]]:
    """The static Nation/Region contents matching :func:`tpch_stream`."""
    data = TPCHGenerator(scale=scale, seed=seed).generate()
    return {"Nation": data.nations, "Region": data.regions}
