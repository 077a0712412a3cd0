"""Decode-once stream layer: DynInst streams as flat row tuples.

The interp backend replays ``DynInst`` objects through the
``StreamStack`` buffering.  This module decodes a stream once into one
plain tuple of ints per instruction and shares the decoded form across
every cell of the same ``(benchmark, seed, length-bound)``:

* the **base** stream is decoded lazily in chunks of
  :data:`CHUNK` instructions (a cell only consumes a few tens of
  thousands of the multi-hundred-thousand-instruction bound);
* the per-reference instrumentation rewrites of
  :mod:`repro.core.instrumentation` (``MHAR_SET`` before /
  ``BLMISS`` after every informing reference) are **list passes**
  over a decoded chunk that splice in a precomputed row per informing
  reference, instead of a per-instruction Python generator;
* replay kernels walk the row lists directly — one list index per
  fetched instruction instead of one attribute load per field.

Row slot order (everything is an int; ``-1`` encodes "absent"):
``op`` (dense :attr:`OpClass.op_code`), ``fu`` (dense FU code),
``dest``, ``src1``, ``src2``, ``addr``, ``taken`` (-1/0/1), ``pc``,
``line`` (``pc >> 5``, the fetch-line key both cores use), ``inf``
(informing flag), ``hand`` (handler-code flag), ``ovh`` (overhead
classification: handler code, ``MHAR_SET``, ``BLMISS`` or
``PREFETCH`` — the exact commit-classification predicate of both
cores, precomputed), ``cls`` (issue dispatch class: 0 plain ALU-like,
1 memory, 2 branch, 3 blmiss — collapses the op-identity chains the
interp issue loops evaluate per instruction into one precomputed
switch value).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.isa.opclass import FU_BRANCH, FU_INT, OpClass
from repro.workloads import spec92_workload

#: Base-stream instructions decoded per refill.
CHUNK = 16384

#: Decoded workloads kept alive across cells (LRU).  Grid runners
#: enumerate cells benchmark-major, so adjacent cells share an entry.
_MAX_CACHED = 3

# Dense op codes the replay kernels and transforms switch on.
OP_IALU = OpClass.IALU.op_code
OP_LOAD = OpClass.LOAD.op_code
OP_STORE = OpClass.STORE.op_code
OP_PREFETCH = OpClass.PREFETCH.op_code
OP_BRANCH = OpClass.BRANCH.op_code
OP_MHAR_SET = OpClass.MHAR_SET.op_code
OP_MHRR_JUMP = OpClass.MHRR_JUMP.op_code
OP_BLMISS = OpClass.BLMISS.op_code

# Issue dispatch classes (row slot 12).
CLS_PLAIN = 0
CLS_MEM = 1
CLS_BRANCH = 2
CLS_BLMISS = 3

#: Row slot names, in order.
COLUMNS = ("op", "fu", "dest", "src1", "src2", "addr", "taken", "pc",
           "line", "inf", "hand", "ovh", "cls")

#: op code -> (fu code, overhead flag for non-handler code, dispatch
#: class); op_code is declaration order.
_OP_TRAITS = [
    (op.fu_code,
     1 if op.op_code in (OP_MHAR_SET, OP_BLMISS, OP_PREFETCH) else 0,
     CLS_MEM if op.op_code in (OP_LOAD, OP_STORE, OP_PREFETCH)
     else CLS_BRANCH if op.op_code == OP_BRANCH
     else CLS_BLMISS if op.op_code == OP_BLMISS
     else CLS_PLAIN)
    for op in OpClass
]


def decode_chunk(insts) -> Optional[List[tuple]]:
    """Decode an iterable of DynInst into row tuples.

    Returns None for an empty chunk (stream exhausted).
    """
    traits = _OP_TRAITS
    rows: List[tuple] = []
    append = rows.append
    for inst in insts:
        code = inst.op.op_code
        fu, ovh, cls = traits[code]
        dest = inst.dest
        srcs = inst.srcs
        n_srcs = len(srcs)
        if n_srcs > 2:
            raise ValueError(
                "vec decode supports at most two source registers per "
                f"instruction, got {n_srcs} at pc {inst.pc:#x}")
        addr = inst.addr
        taken = inst.taken
        pc = inst.pc
        hand = 1 if inst.handler_code else 0
        append((code, fu, -1 if dest is None else dest,
                srcs[0] if n_srcs > 0 else -1,
                srcs[1] if n_srcs > 1 else -1,
                -1 if addr is None else addr,
                -1 if taken is None else int(taken),
                pc, pc >> 5, 1 if inst.informing else 0, hand,
                1 if hand else ovh, cls))
    return rows or None


def _insert_per_reference(rows: List[tuple], before: bool,
                          ins_op: int, pc_offset: int) -> List[tuple]:
    """Splice an instrumentation row next to every informing reference
    (the predicate of :mod:`repro.core.instrumentation`).

    ``before=True`` inserts ahead of the reference (``MHAR_SET``),
    ``before=False`` after it (``BLMISS``).  mhar_set()/the BLMISS
    DynInst constructor leave ``informing`` at its default (True) and
    handler_code False; neither is a memory op, so only the commit
    classification (``ovh``) sees them.
    """
    fu, ovh, cls = _OP_TRAITS[ins_op]
    out: List[tuple] = []
    append = out.append
    for row in rows:
        op = row[0]
        if row[9] and not row[10] and (op == OP_LOAD or op == OP_STORE):
            pc = row[7] + pc_offset
            inserted = (ins_op, fu, -1, -1, -1, -1, -1, pc, pc >> 5,
                        1, 0, ovh, cls)
            if before:
                append(inserted)
                append(row)
            else:
                append(row)
                append(inserted)
        else:
            append(row)
    return out


def add_mhar_sets_flat(rows: List[tuple]) -> List[tuple]:
    """Row form of :func:`repro.core.instrumentation.add_mhar_sets`."""
    return _insert_per_reference(rows, before=True, ins_op=OP_MHAR_SET,
                                 pc_offset=2)


def add_cc_checks_flat(rows: List[tuple]) -> List[tuple]:
    """Row form of :func:`repro.core.instrumentation.add_cc_checks`."""
    return _insert_per_reference(rows, before=False, ins_op=OP_BLMISS,
                                 pc_offset=1)


_VARIANTS = {
    "plain": lambda rows: rows,
    "mhar": add_mhar_sets_flat,
    "cc": add_cc_checks_flat,
}


class StreamView:
    """One instrumentation variant of a decoded stream, as row tuples.

    ``rows`` is a plain Python list of per-instruction tuples in
    :data:`COLUMNS` slot order; ``avail`` is how many instructions are
    currently decoded.  The replay kernels read ``rows`` directly and
    call :meth:`ensure` when the fetch index reaches ``avail``.  Views
    are shared by every cell (and thread) replaying the same stream:
    ``rows`` only ever grows, under the owning workload's lock.
    """

    __slots__ = ("_workload", "variant", "rows", "avail", "done")

    def __init__(self, workload: "DecodedWorkload", variant: str) -> None:
        self._workload = workload
        self.variant = variant
        self.rows: List[tuple] = []
        self.avail = 0
        self.done = False

    def ensure(self, index: int) -> bool:
        """Decode until *index* is readable; False when the stream ends
        first."""
        with self._workload.lock:
            while self.avail <= index and not self.done:
                chunk = self._workload.next_chunk_for(self)
                if chunk is None:
                    self.done = True
                    break
                self.rows.extend(chunk)
                self.avail = len(self.rows)
        return index < self.avail


class DecodedWorkload:
    """Chunked decode of one workload stream plus its variant views.

    The base generator is consumed once; every variant view transforms
    the shared base chunks independently, so the ten cells of a
    benchmark's figure2 column (two machines x five bars, mixing plain
    and mhar variants) decode the underlying stream a single time.
    ``lock`` serialises every advance of the base generator and every
    view creation, so threads replaying one stream never run the
    generator concurrently.
    """

    def __init__(self, benchmark: str, seed_offset: int, limit: int) -> None:
        self.benchmark = benchmark
        self.seed_offset = seed_offset
        self.limit = limit
        self.lock = threading.Lock()
        workload = spec92_workload(benchmark, seed_offset=seed_offset)
        self._source = workload.stream(limit)
        self._base_chunks: List[List[tuple]] = []
        self._exhausted = False
        self._views: Dict[str, StreamView] = {}
        self._consumed: Dict[str, int] = {}  # view variant -> chunks taken

    def view(self, variant: str) -> StreamView:
        if variant not in _VARIANTS:
            raise ValueError(f"unknown stream variant {variant!r}; "
                             f"expected one of {sorted(_VARIANTS)}")
        with self.lock:
            view = self._views.get(variant)
            if view is None:
                view = StreamView(self, variant)
                self._views[variant] = view
                self._consumed[variant] = 0
            return view

    def _decode_base_chunk(self) -> bool:
        if self._exhausted:
            return False
        chunk = decode_chunk(islice(self._source, CHUNK))
        if chunk is None:
            self._exhausted = True
            return False
        self._base_chunks.append(chunk)
        return True

    def next_chunk_for(self, view: StreamView) -> Optional[List[tuple]]:
        """The next transformed chunk of *view*'s variant (call with
        :attr:`lock` held)."""
        index = self._consumed[view.variant]
        while index >= len(self._base_chunks):
            if not self._decode_base_chunk():
                return None
        self._consumed[view.variant] = index + 1
        return _VARIANTS[view.variant](self._base_chunks[index])


_CACHE: "OrderedDict[Tuple[str, int, int], DecodedWorkload]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def decoded_stream(benchmark: str, seed_offset: int, limit: int,
                   variant: str) -> StreamView:
    """The shared decoded view for one cell's stream parameters.

    Cached per ``(benchmark, seed_offset, limit)`` with a small LRU so
    a grid's worth of cells reuses one decode per benchmark without
    pinning every benchmark's rows in memory.
    """
    key = (benchmark, seed_offset, limit)
    with _CACHE_LOCK:
        workload = _CACHE.get(key)
        if workload is None:
            workload = DecodedWorkload(benchmark, seed_offset, limit)
            _CACHE[key] = workload
            while len(_CACHE) > _MAX_CACHED:
                _CACHE.popitem(last=False)
        else:
            _CACHE.move_to_end(key)
    return workload.view(variant)


def clear_decode_cache() -> None:
    """Drop all cached decodes (tests and memory-pressure hook)."""
    with _CACHE_LOCK:
        _CACHE.clear()


class FlatHandlers:
    """Replay-side port of GenericHandler bodies + engine dispatch.

    Produces handler frames as flat column tuples instead of DynInst
    lists, reproducing :class:`repro.core.handlers.GenericHandler`
    exactly: register use, chained/unique first-instruction sources,
    packed unique-handler base allocation in first-miss order, and the
    terminating MHRR jump.  Single handlers (and each unique handler
    after its first invocation) reuse one immutable template, so a
    trap costs a frame push instead of ``n+1`` object constructions.
    """

    def __init__(self, handler) -> None:
        from repro.core.handlers import (
            SINGLE_HANDLER_BASE_PC,
            UNIQUE_HANDLER_REGION,
        )

        self.n = handler.n_instructions
        self.unique = handler.unique
        self.chained = handler.chained
        self.reg = handler.reg
        self._single_base = SINGLE_HANDLER_BASE_PC
        self._unique_region = UNIQUE_HANDLER_REGION
        # Shared with the GenericHandler so base allocation order (and any
        # bases a previous run of the same handler object allocated) stays
        # identical to what handler.instructions() would produce.
        self._bases: Dict[int, int] = handler._bases
        self._frames: Dict[int, List[tuple]] = {}
        self.body_length = self.n + 1  # engine counts the MHRR jump

    def _build(self, base: int) -> List[tuple]:
        n = self.n
        reg = self.reg
        rows = []
        for i in range(n):
            if i == 0:
                src1 = reg if not self.unique else -1
            else:
                src1 = reg if self.chained else -1
            pc = base + 4 * i
            # Body IALUs are informing=False, handler code (ovh=1).
            rows.append((OP_IALU, FU_INT, reg, src1, -1, -1, -1,
                         pc, pc >> 5, 0, 1, 1, CLS_PLAIN))
        pc = base + 4 * n
        # mhrr_jump() leaves the DynInst default informing=True.
        rows.append((OP_MHRR_JUMP, FU_BRANCH, -1, -1, -1, -1, -1,
                     pc, pc >> 5, 1, 1, 1, CLS_PLAIN))
        return rows

    def body(self, ref_pc: int) -> List[tuple]:
        """The flat handler frame for a miss by the reference at
        *ref_pc* (allocating its unique base on first use)."""
        if not self.unique:
            base = self._single_base
        else:
            base = self._bases.get(ref_pc)
            if base is None:
                base = (self._unique_region
                        + len(self._bases) * 4 * (self.n + 1))
                self._bases[ref_pc] = base
        frame = self._frames.get(base)
        if frame is None:
            frame = self._build(base)
            self._frames[base] = frame
        return frame
