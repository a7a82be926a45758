"""Operation vocabulary of the simulated PIUMA kernels.

Kernel thread generators (``repro.piuma.spmm_loop``/``spmm_dma``) yield
these records; the simulator (``repro.piuma.engine``) executes them
against the shared hardware resources.  Each record carries a ``tag``
naming what the access is *for* (``"nnz"``, ``"feature"``, ...) so the
simulator can attribute wait time per category — that attribution is the
Fig 8 (right) execution-time breakdown.

Ops are on the simulator's per-event hot path, so they are hand-written
``__slots__`` classes rather than frozen dataclasses: construction is a
plain attribute-assignment ``__init__`` with no ``object.__setattr__``
indirection and no ``__dict__`` per instance.  They must be treated as
**immutable**: the kernels intern and re-yield the same instance for
repeated (target, bytes) shapes, so mutating one op would corrupt every
later occurrence.  The simulator only ever reads them.
"""

from __future__ import annotations

import numpy as np


class _Op:
    """Shared value semantics (repr/eq/hash over the slot fields)."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self).__name__,) + self._values())


class Load(_Op):
    """Blocking read: the thread stalls until the data returns.

    ``grouped`` loads are issued back-to-back before stalling (the
    loop-unrolling trick); the stall covers the slowest of them, modeled
    as one request of the combined size.  ``priority`` marks demand
    loads (NNZ/index fetches) arbitrated ahead of bulk DMA streams at
    the memory controller.
    """

    __slots__ = ("nbytes", "target_core", "tag", "grouped", "priority")

    def __init__(self, nbytes, target_core, tag, grouped=1, priority=True):
        self.nbytes = nbytes
        self.target_core = target_core
        self.tag = tag
        self.grouped = grouped
        self.priority = priority


class SequentialAccess(_Op):
    """Blocking stall-on-use loop: ``n_rounds`` dependent line fetches.

    Each round issues ``instrs_per_round`` pipeline instructions, then a
    read of ``bytes_per_round`` that must complete before the next round
    begins.  This is the inner loop of the loop-unrolled kernel, where
    the round-trip latency appears ``n_rounds`` times on the critical
    path — the scaling killer of Section IV-B.
    """

    __slots__ = (
        "n_rounds", "bytes_per_round", "target_core", "instrs_per_round",
        "tag",
    )

    def __init__(self, n_rounds, bytes_per_round, target_core,
                 instrs_per_round, tag):
        self.n_rounds = n_rounds
        self.bytes_per_round = bytes_per_round
        self.target_core = target_core
        self.instrs_per_round = instrs_per_round
        self.tag = tag


class PhaseMarker(_Op):
    """Zero-cost marker separating kernel setup from steady state.

    Kernels emit one after their per-thread setup (binary search); the
    runner uses the latest marker to project steady-state throughput
    without the setup transient, which a down-scaled window would
    otherwise overweight by orders of magnitude.
    """

    __slots__ = ("name",)

    def __init__(self, name="setup_done"):
        self.name = name


class Compute(_Op):
    """Pipeline-only work of ``n_instrs`` single-issue instructions."""

    __slots__ = ("n_instrs", "tag")

    def __init__(self, n_instrs, tag="compute"):
        self.n_instrs = n_instrs
        self.tag = tag


class Store(_Op):
    """Fire-and-forget write: occupies issue slots and memory bandwidth
    but does not stall the thread (stall-on-use pipelines only stall on
    loads)."""

    __slots__ = ("nbytes", "target_core", "tag")

    def __init__(self, nbytes, target_core, tag):
        self.nbytes = nbytes
        self.target_core = target_core
        self.tag = tag


class AtomicUpdate(_Op):
    """Remote atomic read-modify-write of a row (fire-and-forget).

    Edge-parallel SpMM write-backs must be atomic because rows that
    straddle thread boundaries have multiple writers (Algorithm 2).  On
    PIUMA these land on the *target* core's near-memory atomic unit,
    which serializes updates to its slice and performs the RMW locally
    (one read + one write of the payload) — the "highly optimized
    remote atomic instructions" that make edge-parallel viable on PIUMA
    where it loses on CPUs.
    """

    __slots__ = ("nbytes", "target_core", "tag")

    def __init__(self, nbytes, target_core, tag):
        self.nbytes = nbytes
        self.target_core = target_core
        self.tag = tag


#: Valid data paths of a :class:`DMAOp`.
DMA_KINDS = frozenset(("read", "write", "internal"))


class DMAOp(_Op):
    """Asynchronous DMA request routed to the thread's core engine.

    ``kind`` selects the data path: ``"read"``/``"write"`` move DRAM
    traffic to/from ``target_core``'s slice; ``"internal"`` occupies the
    engine only (scratchpad buffer init / copy-add).  The issuing thread
    pays ``dma_issue_instrs`` pipeline instructions and continues — only
    the end-of-kernel barrier waits for completions.  ``nbytes`` is a
    whole number of bytes: the engine's staging queue holds payloads as
    integers.
    """

    __slots__ = ("kind", "nbytes", "target_core", "tag")

    def __init__(self, kind, nbytes, target_core, tag):
        if kind not in DMA_KINDS:
            raise ValueError(f"unknown DMA kind {kind!r}")
        if nbytes != int(nbytes):
            raise ValueError(f"DMA payload {nbytes!r} is not whole bytes")
        self.kind = kind
        self.nbytes = nbytes
        self.target_core = target_core
        self.tag = tag


#: Numeric op-kind codes (:func:`op_kind_code`), which select the
#: replay plan an op compiles to.  ``read``/``write``/``internal`` DMA
#: paths get distinct codes.
OP_PHASE = 0
OP_COMPUTE = 1
OP_LOAD = 2
OP_SEQUENTIAL = 3
OP_STORE = 4
OP_ATOMIC = 5
OP_DMA_INTERNAL = 6
OP_DMA_READ = 7
OP_DMA_WRITE = 8


def op_kind_code(op):
    cls = type(op)
    if cls is DMAOp:
        if op.kind == "internal":
            return OP_DMA_INTERNAL
        return OP_DMA_READ if op.kind == "read" else OP_DMA_WRITE
    if cls is Load:
        return OP_LOAD
    if cls is SequentialAccess:
        return OP_SEQUENTIAL
    if cls is Store:
        return OP_STORE
    if cls is AtomicUpdate:
        return OP_ATOMIC
    if cls is Compute:
        return OP_COMPUTE
    if cls is PhaseMarker:
        return OP_PHASE
    raise TypeError(f"unknown op {op!r}")


class OpProgram:
    """Compiled op streams of one or more threads.

    Replay (``repro.piuma.vector_engine``) executes programs instead of
    resuming generators: a *table* of unique op instances (the kernels
    intern their op shapes, so the table is tiny) plus one flat
    ``codes`` array (``int32``) indexing into it, thread after thread:
    thread ``i``'s steps are ``codes[bounds[i]:bounds[i + 1]]``.  The
    static kernels emit one program for all threads of an invocation
    with numpy (their ``emit`` functions); :meth:`from_generator`
    drains one generator into a one-thread program, the oracle those
    emitters are held to.

    Programs are *static by contract*: an op stream may be compiled
    into one only when it does not depend on the values the simulator
    sends back or on other threads' execution timing (true for the
    static SpMM/dense kernels, not for the dynamic work-stealing
    kernel, which stays generator-driven).
    """

    __slots__ = ("table", "codes", "bounds")

    def __init__(self, table, codes, bounds=None):
        self.table = list(table)
        self.codes = np.asarray(codes, dtype=np.int32)
        if bounds is None:
            bounds = (0, len(self.codes))
        self.bounds = np.asarray(bounds, dtype=np.int64)

    @classmethod
    def from_generator(cls, generator):
        """Compile a generator's op stream by draining it.

        Ops are deduplicated by *identity* (the kernels re-yield interned
        instances), so the table stays small and a plan computed for one
        table entry covers every occurrence.  The drained generator is
        consumed; callers pass a fresh one.
        """
        table = []
        index = {}
        index_get = index.get
        codes = []
        append = codes.append
        for op in generator:
            code = index_get(id(op))
            if code is None:
                code = index[id(op)] = len(table)
                table.append(op)
            append(code)
        return cls(table, codes)

    @property
    def n_threads(self):
        return len(self.bounds) - 1

    def thread_ops(self, thread=0):
        """Thread ``thread``'s op sequence as a list."""
        table = self.table
        lo, hi = self.bounds[thread], self.bounds[thread + 1]
        return [table[code] for code in self.codes[lo:hi].tolist()]

    def replay(self, thread=0):
        """Generator view of one thread: yields its op sequence
        (ignores sent values).

        Lets the reference loop run a compiled program unchanged
        (whenever a run cannot replay) — a program-backed
        thread is indistinguishable from its source generator, which is
        what keeps the differential oracle honest.
        """
        for op in self.thread_ops(thread):
            yield op


def dram_bytes(op):
    """DRAM-slice bytes one executed op charges (0 for pure-pipeline ops).

    The independent ledger the runtime sanitizer accumulates at
    ``check_level>=2``: summing this over every executed op must equal
    the slices' ``bytes_served`` total, byte for byte, or the engine's
    memory accounting has drifted.  Mirrors the per-handler accounting
    in ``repro.piuma.engine`` — an atomic RMW reads and writes its
    payload (2x), an internal DMA moves no DRAM traffic at all.
    """
    cls = type(op)
    if cls is Load:
        return op.nbytes
    if cls is SequentialAccess:
        return op.n_rounds * op.bytes_per_round
    if cls is Store:
        return op.nbytes
    if cls is AtomicUpdate:
        return 2 * op.nbytes
    if cls is DMAOp:
        return 0 if op.kind == "internal" else op.nbytes
    return 0
