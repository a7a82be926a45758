"""Benchmark-side spans around the program's public entry points.

:func:`install` replaces each entry point named in ``README.md``'s
layer table with a wrapper that records a span (name, start, end,
parent, attributes) and then calls the original.  Install
it in an op's interpreter *before* any process pool forks, so forked
workers inherit the wrappers.  Nothing under ``src/`` is modified.

Spans stay in memory.  The main process writes them with :func:`dump`
when its run ends.  A pool worker appends its spans to its own file
after each task (one ``os.write``), because the program kills pool
workers at shutdown and a worker's exit hooks would never run.
All timestamps are ``time.perf_counter_ns()``, i.e. ``CLOCK_MONOTONIC``,
which every process on the host shares.
"""

import functools
import itertools
import json
import os
import threading
import time

_PID = None
_DIR = None
_SPANS = []
_IDS = itertools.count(1)
_LOCAL = threading.local()


def _stack():
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class _Span:
    __slots__ = ("name", "start", "end", "id", "parent", "attrs")

    def __init__(self, name):
        stack = _stack()
        self.name = name
        self.id = next(_IDS)
        self.parent = stack[-1] if stack else 0
        self.attrs = {}
        stack.append(self.id)
        self.start = time.perf_counter_ns()

    def close(self):
        self.end = time.perf_counter_ns()
        stack = _stack()
        stack.pop()
        _SPANS.append((self.name, self.start, self.end, self.id,
                       self.parent, self.attrs))
        if not stack and os.getpid() != _PID:
            _flush_worker()


def _flush_worker():
    if not _SPANS:
        return
    lines = "".join(json.dumps(span) + "\n" for span in _SPANS)
    _SPANS.clear()
    fd = os.open(os.path.join(_DIR, f"spans-{os.getpid()}.jsonl"),
                 os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, lines.encode())
    finally:
        os.close(fd)


def _wrap(owner, attr, name, attrs=None, is_classmethod=False):
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``attrs(args, kwargs, result)`` returns attributes recorded on the
    span; it also runs (with ``result=None``) when the call raises.
    """
    original = (owner.__dict__[attr].__func__ if is_classmethod
                else getattr(owner, attr))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        record = _Span(name)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        except BaseException as error:
            record.attrs["error"] = type(error).__name__
            raise
        finally:
            if attrs is not None:
                record.attrs.update(attrs(args, kwargs, result))
            record.close()

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def _task_attrs(args, _kwargs, _result):
    task = args[0]
    attrs = {"label": task.label()}
    shard = getattr(task, "shard", None)
    if shard is not None:
        attrs.update(shard=shard, n_shards=task.n_shards,
                     strategy=task.strategy)
    return attrs


def install(directory):
    """Wrap every timed entry point; spans go to ``directory``."""
    global _PID, _DIR
    _PID = os.getpid()
    _DIR = str(directory)
    os.makedirs(_DIR, exist_ok=True)

    import repro.graphs.partition as partition
    import repro.piuma as piuma
    import repro.piuma.analytical as analytical
    import repro.piuma.kernels as kernels
    import repro.piuma.multinode as multinode
    import repro.runtime.cache as cache
    import repro.runtime.shard as shard
    from repro.graphs.datasets import DatasetSpec
    from repro.piuma.engine import Simulator
    from repro.piuma.ops import OpProgram
    from repro.runtime.jobs import ExecPool, JobScheduler
    from repro.runtime.runner import SpMMTask
    from repro.runtime.service import PredictionService
    from repro.runtime.shard import ShardTask

    def submit_pool(original):
        # A spawn is visible only before the call: the pool is lazy.
        @functools.wraps(original)
        def wrapper(self, fn, *args):
            spawned = self._pool is None
            record = _Span("pool.submit")
            try:
                return original(self, fn, *args)
            finally:
                record.attrs.update(label=args[0].label(),
                                    width=self.max_workers, spawn=spawned)
                record.close()
        return wrapper

    ExecPool.submit = submit_pool(ExecPool.submit)

    _wrap(SpMMTask, "run", "task.run", _task_attrs)
    _wrap(ShardTask, "run", "task.run", _task_attrs)
    _wrap(DatasetSpec, "materialize", "graphs.materialize")
    _wrap(partition, "partition_graph", "graphs.partition")
    _wrap(shard, "shard_subgraph", "shard.subgraph")
    _wrap(kernels, "split_work", "kernels.split")
    _wrap(OpProgram, "from_generator", "ops.drain", is_classmethod=True)
    _wrap(Simulator, "spawn_program", "engine.compile")
    _wrap(Simulator, "run", "engine.run",
          lambda args, _kw, _res: {"events": args[0].events})
    # Callers import spmm_model from both modules at call time.
    _wrap(analytical, "spmm_model", "analytical.eq5")
    piuma.spmm_model = analytical.spmm_model
    _wrap(cache, "cache_key", "cache.key")
    import repro.runtime.checkpoint as checkpoint
    import repro.runtime.runner as runner
    import repro.runtime.service as service

    checkpoint.cache_key = runner.cache_key = service.cache_key = (
        cache.cache_key)
    _wrap(cache.ResultCache, "get", "cache.get",
          lambda _a, _kw, res: {"hit": res is not None})
    _wrap(cache.ResultCache, "put", "cache.put")

    def shards_attrs(_args, _kwargs, report):
        if report is None:
            return {}
        return {"misses": report.cache_misses,
                "workers": report.workers, **report.recovery}

    _wrap(multinode, "run_shards", "shard.run_shards", shards_attrs)
    _wrap(runner, "run_sweep", "runner.run_sweep")
    _wrap(multinode, "assemble_multinode", "multinode.assemble")

    def submit_attrs(args, kwargs, job):
        key = args[2] if len(args) > 2 else kwargs.get("key")
        attrs = {"label": args[1].label(), "key": key}
        if job is None:
            attrs["rejected"] = True
        else:
            attrs["coalesced"] = job.waiters > 1
        return attrs

    _wrap(JobScheduler, "submit", "jobs.submit", submit_attrs)

    def predict_attrs(_args, _kwargs, response):
        if response is None:
            return {}
        return {"tier": response["tier"], "key": response["key"],
                "degraded": response["degraded"]}

    _wrap(PredictionService, "predict", "service.predict", predict_attrs)
    _wrap(service, "parse_query", "service.parse")
    import repro.runtime as runtime

    runtime.run_sweep = runner.run_sweep

    def after_fork():
        _SPANS.clear()
        _LOCAL.__dict__.clear()

    os.register_at_fork(after_in_child=after_fork)


def dump():
    """Write this process's in-memory spans (call once, at the end)."""
    if _DIR is None:
        return
    path = os.path.join(_DIR, f"spans-{os.getpid()}.jsonl")
    with open(path, "a") as handle:
        for record in _SPANS:
            handle.write(json.dumps(record) + "\n")
    _SPANS.clear()


def load(directory):
    """All spans under ``directory`` as ``(pid, span-tuple)`` pairs."""
    spans = []
    if not os.path.isdir(directory):
        return spans
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        pid = int(name[len("spans-"):-len(".jsonl")])
        with open(os.path.join(directory, name)) as handle:
            spans.extend((pid, json.loads(line)) for line in handle)
    return spans
