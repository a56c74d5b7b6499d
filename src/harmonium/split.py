"""One long exact search split across forked processes (Linux only).

solver.exists_k calls run when its walk has paused after _SPLIT_AT = 2^12
nodes without reusing a failed subtree and more than one CPU can run it,
with the rest of the walk's tree as prefix tasks in DFS order. run walks
the shallowest task one node deep until there are _TASKS_PER_WORKER tasks
per worker; each task is then searched by the same solver._search on its
prefix, given the node budget left at the pause and the deadline.

The tasks are dealt in stripes: searcher j of W searches tasks j, j + W,
j + 2W, ... of the DFS order, in that order, and writes one line per task
to its own pipe. The expansion splits the shallowest prefixes first, so
neighboring tasks are siblings or cousins in one part of the tree; taking
every W-th of them, each searcher gets a like share of every part, and
the searchers finish close together.

The parent searches nothing after the expansion. It merges the reports in
DFS order, reading task t's line from searcher t % W's pipe, so it returns
a witness once the tasks before it are reported, which each searcher
reaches first; a searcher blocked on a full pipe waits only for the parent
to reach its next task, whose line is already there. The nodes before a
task are the pause's nodes plus the counts of the entries before it, so the
first witness in DFS order, the count at which it is reached and the node
at which a node budget stops are exactly those of the one-process walk.
nodes_walked sums what the parent walked and the reports the merge read, a
fixed set without a deadline, so it is the same on every run for a given
number of CPUs.

Each searcher keeps SIGINT blocked and leaves only through os._exit; the
parent kills and reaps every searcher before run returns or raises. A
missing or partial line means its searcher died: run then reaps it and
raises RuntimeError, never returns INFEASIBLE. solver imports this module
only when a search splits.
"""

from __future__ import annotations

import os
import signal
from typing import BinaryIO, TextIO

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
    todo = [e for e in entries if isinstance(e, tuple)]
    width = min(workers, len(todo))
    walked = nodes + sum(e.nodes_walked for e in entries if not isinstance(e, tuple))
    left = None if node_budget is None else node_budget - nodes
    children: list[_Child] = []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for j in range(width):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # SIGINT stays blocked: the parent ends this process
                code = 1
                try:
                    os.close(r)
                    _work(g, k, left, deadline, todo[j::width], os.fdopen(w, "w"))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append(_Child(pid, os.fdopen(r, "rb")))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        total, status, witness, t = nodes, INFEASIBLE, None, 0
        for out in entries:
            if isinstance(out, tuple):
                out = children[t % width].report(t)
                walked += out.nodes_walked
                t += 1
            total += out.nodes_explored
            if node_budget is not None and total > node_budget:
                status, total = BUDGET_EXHAUSTED, node_budget + 1
                break
            if out.status != INFEASIBLE:
                status, witness = out.status, out.witness
                break
        return SearchOutcome(status, witness, total, walked)
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for child in children:
                child.close()
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


def _work(g: Graph, k: int, budget: int | None, deadline: float | None,
          tasks: list[tuple[int, ...]], pipe: TextIO) -> None:
    """A searcher: search its tasks in order, reporting each on its pipe as
    one line, `status nodes_explored nodes_walked colors...`."""
    for prefix in tasks:
        out = solver._search(g, k, budget, deadline, prefix, solver._NEVER)
        colors = out.witness.colors if out.witness else ()
        print(out.status, out.nodes_explored, out.nodes_walked, *colors, file=pipe, flush=True)


class _Child:
    """A forked searcher: its pid (0 once reaped) and its pipe's read end."""

    def __init__(self, pid: int, pipe: BinaryIO):
        self.pid, self.pipe = pid, pipe

    def report(self, task: int) -> SearchOutcome:
        """The searcher's next line, which reports `task`."""
        line = self.pipe.readline()
        if not line.endswith(b"\n"):  # the write end closed: the searcher exited
            _, status = os.waitpid(self.pid, 0)
            self.pid = 0
            raise RuntimeError(f"the search process holding task {task} exited without its "
                               f"result (wait status {status})")
        status, nodes, walked, *colors = line.decode().split()
        witness = Coloring(tuple(map(int, colors))) if status == "witness" else None
        return SearchOutcome(status, witness, int(nodes), int(walked))

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self.pipe.close()
