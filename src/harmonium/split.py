"""One long exact search split across forked processes (Linux only).

solver.exists_k calls run when its walk has paused after _SPLIT_AT = 2^12
nodes without reusing a failed subtree, which it allows only when more than
one CPU can run it: a long proof such as GP(10,3)'s at k = 9 (1.08M nodes)
then runs on every CPU after its first 4,096 nodes. The rest of the
walk's tree arrives as prefix tasks in DFS order. run walks the shallowest
task one node deep until there are _TASKS_PER_WORKER tasks per worker,
forks one child per extra CPU, and searches every task with the same
solver._search on its prefix, given the node budget left at the pause and
the deadline. The parent takes the tasks in DFS order and the children the
DFS-last ones nobody has claimed: the large shallow subtrees go to the
children, and the parent meets a child's task only near the end (Rao &
Kumar, "Parallel depth first search", IJPP 1987).

The results merge in DFS order. The nodes before a task in DFS order are
the pause's nodes plus the counts of the entries before it, so the first
witness in DFS order, the count at which it is reached and the node at
which a node budget stops are exactly those of the one-process walk. Only
nodes_walked differs: it sums what every process walked and reported,
work past the answer included, so it varies between runs and CPU counts.

The processes share the claim counters through a memfd under a POSIX
record lock, which the kernel drops when its holder dies, and each child
writes one text line per finished task to its own pipe. The children keep SIGINT
blocked and leave only through os._exit; the parent kills and reaps every
child before run returns or raises. A child that exits without reporting
a task the merge needs makes run raise RuntimeError, never return
INFEASIBLE. solver imports this module only when a search splits, so
none of it is compiled on the import path.
"""

from __future__ import annotations

import fcntl
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
    entries = _expand(g, k, tasks, _TASKS_PER_WORKER * workers)
    todo = [i for i, e in enumerate(entries) if isinstance(e, tuple)]
    walked = nodes + sum(e.nodes_walked for e in entries if not isinstance(e, tuple))
    left = None if node_budget is None else node_budget - nodes
    claims = os.memfd_create("harmonium-claims")
    children: list[_Child] = []
    results: dict[int, SearchOutcome] = {}
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        os.write(claims, _pack(0, len(todo)))
        for _ in range(min(workers, len(todo)) - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # SIGINT stays blocked: the parent ends this process
                code = 1
                try:
                    os.close(r)
                    _work(g, k, left, deadline, entries, todo, claims, w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append(_Child(pid, r))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        total, status, witness = nodes, INFEASIBLE, None
        for i, entry in enumerate(entries):
            if not isinstance(entry, tuple):
                out = entry
            elif _claim(claims, back=False) is not None:
                budget = None if node_budget is None else node_budget - total
                out = solver._search(g, k, budget, deadline, entry, solver._NEVER)
                walked += out.nodes_walked
            else:
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
            os.close(claims)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _expand(g: Graph, k: int, tasks: list[tuple[int, ...]],
            want: int) -> list[tuple[int, ...] | SearchOutcome]:
    """The rest of the tree as entries in DFS order: a prefix to search, or
    the outcome of a node already walked. The last of the shallowest
    prefixes is walked one node deep, its root becoming a one-node entry
    before its children, until `want` prefixes are left or none."""
    entries: list[tuple[int, ...] | SearchOutcome] = list(tasks)
    while True:
        todo = [i for i, e in enumerate(entries) if isinstance(e, tuple)]
        if not todo or len(todo) >= want:
            return entries
        i = min(reversed(todo), key=lambda i: len(entries[i]))
        out = solver._search(g, k, None, None, entries[i], 1)
        if isinstance(out, tuple):  # paused below its root
            entries[i:i + 1] = [SearchOutcome(INFEASIBLE, None, out[0], out[0]), *out[1]]
        else:  # a leaf, or a root without candidates
            entries[i] = out


def _pack(lo: int, hi: int) -> bytes:
    return lo.to_bytes(8, "little") + hi.to_bytes(8, "little")


def _claim(fd: int, back: bool) -> int | None:
    """Claim the first (or, with back, the last) unclaimed position of the
    task list; None when every task is claimed."""
    fcntl.lockf(fd, fcntl.LOCK_EX)
    try:
        raw = os.pread(fd, 16, 0)
        lo, hi = int.from_bytes(raw[:8], "little"), int.from_bytes(raw[8:], "little")
        if lo == hi:
            return None
        os.pwrite(fd, _pack(lo, hi - 1) if back else _pack(lo + 1, hi), 0)
        return hi - 1 if back else lo
    finally:
        fcntl.lockf(fd, fcntl.LOCK_UN)


def _work(g: Graph, k: int, budget: int | None, deadline: float | None,
          entries: list[tuple[int, ...] | SearchOutcome], todo: list[int], claims: int,
          out_fd: int) -> None:
    """A child's loop: search the DFS-last unclaimed task, report, repeat."""
    while (j := _claim(claims, back=True)) is not None:
        i = todo[j]
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
    """Wait until a child reports or exits, and store what it reported."""
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
