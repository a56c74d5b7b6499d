"""One long exact search split across forked processes (Linux only).

solver.exists_k calls run when its walk has paused after _SPLIT_AT = 2^12
nodes without reusing a failed subtree and more than one CPU can run it,
with the rest of the walk's tree as prefix tasks in DFS order. run walks
the shallowest task one node deep until there are _TASKS_PER_WORKER tasks
per worker; each task is then searched by the same solver._search on its
prefix, given the node budget left at the pause and the deadline.

The task queue is one pipe. run writes every task id, 4 bytes little-endian
in DFS order, in one write and closes the write end; only then does it fork
one searcher per CPU. A searcher takes ids with 4-byte reads (_take) until
a read finds the pipe empty. Linux serializes the reads of a pipe and every
id is in it before any reader starts, so no read splits an id and no id is
read twice. The write fits in select.PIPE_BUF bytes, which any pipe holds,
so it cannot block with no reader: the expansion aims at no more than
PIPE_BUF / 4 tasks, and where a pause leaves more (after a deep first walk,
as on a long path ahead of a hard component) each id stands for a run of
consecutive tasks.

The parent searches nothing after the expansion. It merges the reports in
DFS order, so it returns a witness as soon as the tasks before it are
reported, and the searchers, taking tasks in DFS order, reach those first.
The nodes before a task are the pause's nodes plus the counts of the
entries before it, so the first witness in DFS order, the count at which it
is reached and the node at which a node budget stops are exactly those of
the one-process walk. Only nodes_walked differs: it sums what every process
walked and reported, work past the answer included, so it varies between
runs and CPU counts.

Each searcher writes one text line per finished task to its own pipe, keeps
SIGINT blocked and leaves only through os._exit; the parent kills and reaps
every searcher before run returns or raises. A searcher that exits without
reporting a task the merge needs makes run raise RuntimeError, never return
INFEASIBLE. solver imports this module only when a search splits.
"""

from __future__ import annotations

import os
import select
import signal

from . import solver
from .graph import Graph
from .solver import BUDGET_EXHAUSTED, INFEASIBLE, SearchOutcome
from .verify import Coloring

# tasks per process: enough that the last ones to finish are small
_TASKS_PER_WORKER = 32


def run(g: Graph, k: int, node_budget: int | None, deadline: float | None, nodes: int,
        tasks: list[tuple[int, ...]], workers: int) -> SearchOutcome:
    """Finish a walk that paused after `nodes` nodes, with `tasks` (prefixes
    in DFS order) left, on `workers` processes; the outcome is the walk's."""
    fits = select.PIPE_BUF // 4  # 4-byte ids that one write puts in any pipe
    entries = _expand(g, k, tasks, min(_TASKS_PER_WORKER * workers, fits))
    todo = [i for i, e in enumerate(entries) if isinstance(e, tuple)]
    per = max(1, -(-len(todo) // fits))  # tasks per id: 1 unless there are more
    runs = [todo[j:j + per] for j in range(0, len(todo), per)]
    walked = nodes + sum(e.nodes_walked for e in entries if not isinstance(e, tuple))
    left = None if node_budget is None else node_budget - nodes
    queue, end = os.pipe()
    children: list[_Child] = []
    results: dict[int, SearchOutcome] = {}
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            os.write(end, b"".join(j.to_bytes(4, "little") for j in range(len(runs))))
        finally:
            os.close(end)  # so a read past the last id returns empty and does not wait
        for _ in range(min(workers, len(runs))):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # SIGINT stays blocked: the parent ends this process
                code = 1
                try:
                    os.close(r)
                    _work(g, k, left, deadline, entries, runs, queue, w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append(_Child(pid, r))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        total, status, witness = nodes, INFEASIBLE, None
        for i, out in enumerate(entries):
            if isinstance(out, tuple):
                while i not in results:
                    _receive(children, results, i)
                out = results[i]
            total += out.nodes_explored
            if node_budget is not None and total > node_budget:
                status, total = BUDGET_EXHAUSTED, node_budget + 1
                break
            if out.status != INFEASIBLE:
                status, witness = out.status, out.witness
                break
        walked += sum(o.nodes_walked for o in results.values())
        return SearchOutcome(status, witness, total, walked)
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for child in children:
                child.close()
            os.close(queue)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _expand(g: Graph, k: int, tasks: list[tuple[int, ...]],
            want: int) -> list[tuple[int, ...] | SearchOutcome]:
    """The rest of the tree as entries in DFS order: a prefix to search, or
    the outcome of a node already walked. The last of the shallowest
    prefixes is walked one node deep, its root becoming a one-node entry
    before its children, until `want` prefixes are left or none.

    Children are deeper than their root and a splice at i leaves the entries
    before i where they were, so the shallowest prefixes are found with one
    scan per prefix length and walked from last to first.
    """
    entries: list[tuple[int, ...] | SearchOutcome] = list(tasks)
    left = len(entries)  # prefixes among the entries
    while 0 < left < want:
        depth = min(len(e) for e in entries if isinstance(e, tuple))
        shallowest = [i for i, e in enumerate(entries) if isinstance(e, tuple) and len(e) == depth]
        for i in reversed(shallowest):
            if left >= want:
                break
            out = solver._search(g, k, None, None, entries[i], 1)
            if isinstance(out, tuple):  # paused below its root
                entries[i:i + 1] = [SearchOutcome(INFEASIBLE, None, out[0], out[0]), *out[1]]
                left += len(out[1]) - 1
            else:  # a leaf, or a root without candidates
                entries[i] = out
                left -= 1
    return entries


def _take(queue: int) -> int | None:
    """The next id in the task queue, or None once it is empty."""
    raw = os.read(queue, 4)
    return int.from_bytes(raw, "little") if raw else None


def _work(g: Graph, k: int, budget: int | None, deadline: float | None,
          entries: list[tuple[int, ...] | SearchOutcome], runs: list[list[int]], queue: int,
          out_fd: int) -> None:
    """A searcher's loop: take the next id, search its run of tasks and
    report each one, until the queue is empty."""
    while (j := _take(queue)) is not None:
        for i in runs[j]:
            out = solver._search(g, k, budget, deadline, entries[i], solver._NEVER)
            colors = out.witness.colors if out.witness else ()
            line = " ".join(map(str, (i, out.status, out.nodes_explored, out.nodes_walked,
                                      *colors)))
            data = f"{line}\n".encode()
            while data:
                data = data[os.write(out_fd, data):]


class _Child:
    """A forked searcher: its pid (0 once reaped) and the read end of its pipe."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd, self.buf = pid, fd, b""

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


def _receive(children: list[_Child], results: dict[int, SearchOutcome], need: int) -> None:
    """Wait until a searcher reports or exits, and store what it reported."""
    live = {c.fd: c for c in children if c.fd >= 0}
    if not live:
        raise RuntimeError(f"the search process holding task {need} exited without its result")
    poller = select.poll()
    for fd in live:
        poller.register(fd, select.POLLIN)
    for fd, _ in poller.poll():
        child = live[fd]
        data = os.read(fd, 1 << 16)
        if data:
            *lines, child.buf = (child.buf + data).split(b"\n")
            for line in lines:
                i, status, nodes, walked, *colors = line.decode().split()
                witness = Coloring(tuple(map(int, colors))) if status == "witness" else None
                results[int(i)] = SearchOutcome(status, witness, int(nodes), int(walked))
            continue
        os.close(fd)
        child.fd = -1
        _, status = os.waitpid(child.pid, 0)
        child.pid = 0
        if status:
            raise RuntimeError(f"a search process failed with wait status {status}")
