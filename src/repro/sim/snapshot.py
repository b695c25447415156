"""Binary trace snapshots.

Because the columnar :class:`~repro.sim.trace.Trace` stores its dynamic
stream as flat ``array('q')`` columns, a complete trace serializes to a
compact binary blob: a small JSON header (column lengths, the static side
table, the uid→address map, the exact-overflow side table) followed by the
raw column bytes.  A :class:`SimulationArtifact` wraps a trace together
with the other simulation-side outputs a replay needs (dynamic instruction
count, program output, VRP/VRS statistics), so an analysis-only change —
a new gating policy, a tweaked energy coefficient, a different machine
configuration — can rebuild a full evaluation summary from the snapshot
without a single simulator step (see ``repro/experiments/store.py`` for
the content-addressed snapshot store and ``docs/trace.md`` for the
format).

Snapshots are a local cache format, not an interchange format: the column
byte order is the host's, recorded in the header; a mismatch (or any
structural inconsistency) raises ``ValueError``, which the store treats as
a miss.

Stored snapshots are keyed by a *simulator-side* code fingerprint
(``repro/experiments/store.py``) covering every source file under
``repro/sim`` — including the block compiler (``blockc.py``), whose
generated per-program code is a pure function of those files — so any
change to simulation semantics retires old snapshots instead of replaying
them stale; ``tests/test_block_compiler.py`` locks this down.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

from ..isa import OpKind, Opcode, Width
from .trace import StaticEntry, StaticInfo, Trace

__all__ = [
    "TRACE_SNAPSHOT_VERSION",
    "SimulationArtifact",
    "encode_artifact",
    "decode_artifact",
]

#: Bump when the snapshot layout or the columnar trace encoding changes;
#: the store keys include this, so old snapshots simply miss.
TRACE_SNAPSHOT_VERSION = 1

_MAGIC = b"RTRC"

#: StaticEntry fields serialized positionally (order is part of the format).
_ENTRY_FIELDS = (
    "uid",
    "opcode",
    "kind",
    "width",
    "functional_unit",
    "latency",
    "energy_class",
    "is_load",
    "is_store",
    "is_branch",
    "is_conditional",
    "is_call",
    "is_return",
    "is_guard",
    "memory_width",
    "num_src_regs",
    "has_dest",
    "src_regs",
    "dest_reg",
    "function",
    "block",
)


@dataclass
class SimulationArtifact:
    """Everything a replay needs that only the simulator can produce."""

    trace: Trace
    instructions: int
    output: list[int]
    vrp: Optional[dict] = None
    vrs: Optional[dict] = None
    runtime_specialization: Optional[dict] = None


def _encode_entry(entry: StaticEntry) -> list:
    row = []
    for name in _ENTRY_FIELDS:
        value = getattr(entry, name)
        if isinstance(value, (Opcode, OpKind)):
            value = value.name
        elif isinstance(value, Width):
            value = int(value)
        elif isinstance(value, tuple):
            value = list(value)
        row.append(value)
    return row


def _decode_entry(row: list) -> StaticEntry:
    data = dict(zip(_ENTRY_FIELDS, row))
    data["opcode"] = Opcode[data["opcode"]]
    data["kind"] = OpKind[data["kind"]]
    data["width"] = Width(data["width"])
    if data["memory_width"] is not None:
        data["memory_width"] = Width(data["memory_width"])
    data["src_regs"] = tuple(data["src_regs"])
    return StaticEntry(**data)


def encode_artifact(artifact: SimulationArtifact) -> bytes:
    """Serialize an artifact (trace + simulation outputs) to bytes."""
    trace = artifact.trace
    rows = trace._rows
    arena = trace._arena
    mem = trace._mem
    addr_col = trace._addr
    next_col = trace._next
    header = {
        "version": TRACE_SNAPSHOT_VERSION,
        "byteorder": sys.byteorder,
        "rows": len(rows),
        "arena": len(arena),
        "mem": len(mem),
        "explicit_addresses": addr_col is not None,
        "address_by_uid": (
            sorted(trace._addr_by_uid.items()) if trace._addr_by_uid is not None else None
        ),
        "big": sorted(trace._big.items()),
        "static": {
            "uid_base": trace.static.uid_base,
            "entries": [
                None if entry is None else _encode_entry(entry)
                for entry in trace.static.entries
            ],
        },
        "instructions": artifact.instructions,
        "output": list(artifact.output),
        "vrp": artifact.vrp,
        "vrs": artifact.vrs,
        "runtime_specialization": artifact.runtime_specialization,
    }
    header_blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [
        _MAGIC,
        TRACE_SNAPSHOT_VERSION.to_bytes(4, "little"),
        len(header_blob).to_bytes(8, "little"),
        header_blob,
        rows.tobytes(),
        arena.tobytes(),
        mem.tobytes(),
    ]
    if addr_col is not None:
        parts.append(addr_col.tobytes())
        parts.append(next_col.tobytes())
    return b"".join(parts)


def decode_artifact(blob: bytes) -> SimulationArtifact:
    """Rebuild an artifact from :func:`encode_artifact` output.

    Raises ``ValueError`` on any structural problem (truncation, foreign
    byte order, unknown version) so callers can treat bad snapshots as
    cache misses.
    """
    if blob[:4] != _MAGIC:
        raise ValueError("not a trace snapshot")
    version = int.from_bytes(blob[4:8], "little")
    if version != TRACE_SNAPSHOT_VERSION:
        raise ValueError(f"trace snapshot version {version} != {TRACE_SNAPSHOT_VERSION}")
    header_len = int.from_bytes(blob[8:16], "little")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"corrupt trace snapshot header: {error}") from None
    if header["byteorder"] != sys.byteorder:
        raise ValueError("trace snapshot was written on a foreign-endian host")

    static = StaticInfo()
    static.uid_base = header["static"]["uid_base"]
    entries = header["static"]["entries"]
    # Preserve holes exactly: add_entry skips None rows, so pad manually.
    static.entries = [None if row is None else _decode_entry(row) for row in entries]
    static._count = sum(1 for row in entries if row is not None)

    address_by_uid = header["address_by_uid"]
    trace = Trace(
        static=static,
        addresses={uid: addr for uid, addr in address_by_uid}
        if address_by_uid is not None
        else None,
    )
    offset = 16 + header_len
    itemsize = trace._rows.itemsize

    def take(column, count):
        nonlocal offset
        end = offset + count * itemsize
        if end > len(blob):
            raise ValueError("truncated trace snapshot")
        column.frombytes(blob[offset:end])
        offset = end

    take(trace._rows, header["rows"])
    take(trace._arena, header["arena"])
    take(trace._mem, header["mem"])
    if header["explicit_addresses"]:
        from array import array

        addr_col = array("q")
        next_col = array("q")
        take(addr_col, header["rows"])
        take(next_col, header["rows"])
        trace._addr = addr_col
        trace._next = next_col
    trace._big = {index: value for index, value in header["big"]}
    # Cheap structural consistency checks: the arena and the sparse memory
    # column must match the per-record counts encoded in the flag bytes,
    # so a corrupted snapshot misses here instead of crashing a replay.
    if len(trace._arena) != trace.value_offsets[-1]:
        raise ValueError("trace snapshot arena is inconsistent with its flag bytes")
    if len(trace._mem) != trace._mem_prefix_counts()[-1]:
        raise ValueError("trace snapshot memory column is inconsistent with its flag bytes")

    return SimulationArtifact(
        trace=trace,
        instructions=header["instructions"],
        output=list(header["output"]),
        # The JSON header stringified the vrp stat keys; the replay layer
        # (repro.experiments.engine._replay) restores them with the
        # same helper the summary round trip uses.
        vrp=header["vrp"],
        vrs=header["vrs"],
        runtime_specialization=header["runtime_specialization"],
    )
