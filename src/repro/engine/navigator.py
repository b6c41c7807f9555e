"""Workflow navigation: join logic, edge firing, skip propagation, outcome.

Pure functions over a :class:`~repro.engine.instance.WorkflowInstance` — no
submission, no timers — so the semantics are unit-testable in isolation and
identical whether the engine runs on the simulated Grid or on real threads.

Semantics implemented here (see the module docs of
:mod:`repro.wpdl.model` for the language-level description):

* **Joins.**  An AND node becomes ready when every incoming edge has FIRED;
  it becomes unreachable (skipped) as soon as any incoming edge is dead.
  An OR node becomes ready on the first incoming FIRED edge and is skipped
  only when *all* incoming edges are dead (Figure 5's redundancy).
* **Edge firing.**  When a node terminates, each outgoing edge resolves per
  its condition and the terminal status; exception edges use most-specific
  pattern matching, with FAILED edges as the generic catch-all for
  unmatched exceptions.
* **Skip propagation.**  Dead edges make downstream nodes unreachable;
  skipping a node kills its outgoing edges with the same benignity; this
  iterates to a fixpoint.
* **Outcome.**  The workflow succeeds iff every exit node is DONE or
  SKIPPED_OK.  (A benign skip of an exit node is an untaken handler branch;
  an erroneous skip means an uncompensated failure upstream.)
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.exceptions import UserException
from ..errors import NavigationError
from ..wpdl.conditions import evaluate_condition
from ..wpdl.model import ConditionKind, JoinMode
from .instance import (
    EdgeState,
    NodeInstance,
    NodeStatus,
    WorkflowInstance,
    WorkflowStatus,
)

__all__ = [
    "ready_nodes",
    "fire_outgoing_edges",
    "propagate_skips",
    "irrelevant_running_nodes",
    "cancel_node",
    "evaluate_outcome",
    "assert_no_deadlock",
    "exception_edge_specificity",
]

# Enum members read on the per-task path, bound once: on Python 3.11 a
# member read through its class costs about ten times a global read.
_NODE_PENDING = NodeStatus.PENDING
_NODE_RUNNING = NodeStatus.RUNNING
_NODE_DONE = NodeStatus.DONE
_NODE_FAILED = NodeStatus.FAILED
_NODE_SKIPPED_OK = NodeStatus.SKIPPED_OK
_NODE_SKIPPED_ERROR = NodeStatus.SKIPPED_ERROR
_NODE_EXCEPTION = NodeStatus.EXCEPTION
_NODE_CANCELLED = NodeStatus.CANCELLED
_EDGE_PENDING = EdgeState.PENDING
_EDGE_FIRED = EdgeState.FIRED
_EDGE_DEAD_OK = EdgeState.DEAD_OK
_EDGE_DEAD_ERROR = EdgeState.DEAD_ERROR
_AND = JoinMode.AND
_COND_DONE = ConditionKind.DONE
_COND_ALWAYS = ConditionKind.ALWAYS
_COND_EXPR = ConditionKind.EXPR
_COND_FAILED = ConditionKind.FAILED
_COND_EXCEPTION = ConditionKind.EXCEPTION


def ready_nodes(
    instance: WorkflowInstance,
    candidates: "Iterable[str] | None" = None,
) -> list[str]:
    """PENDING nodes whose join condition is now satisfied, in spec order.

    *candidates* restricts the scan (incremental navigation: only targets
    of freshly fired edges can become ready); ``None`` scans every node.
    Duplicates in *candidates* are tolerated; output has no duplicates.
    """
    nodes = instance.nodes
    specs = instance.spec.nodes
    feeders = instance.links.feeders
    names = specs if candidates is None else dict.fromkeys(candidates)
    ready: list[str] = []
    for name in names:
        if nodes[name].status is not _NODE_PENDING:
            continue
        indegree = len(feeders[name])
        if indegree == 0:
            ready.append(name)  # entry node
            continue
        fired = nodes[name].fired_in
        if specs[name].join is _AND:
            if fired == indegree:
                ready.append(name)
        elif fired >= 1:  # OR
            ready.append(name)
    return ready


def exception_edge_specificity(pattern: str) -> tuple[int, int]:
    """Sort key for exception-edge matching: exact name beats glob; longer
    literal prefix beats shorter (same rule as
    :meth:`repro.core.exceptions.ExceptionBinding.specificity`)."""
    if not any(ch in pattern for ch in "*?["):
        return (2, len(pattern))
    literal = 0
    for ch in pattern:
        if ch in "*?[":
            break
        literal += 1
    return (1, literal)


def fire_outgoing_edges(
    instance: WorkflowInstance,
    name: str,
    status: NodeStatus,
    exception: UserException | None = None,
) -> list[int]:
    """Resolve every outgoing edge of *name* for terminal *status*.

    Returns the indices of edges that FIRED.  Must be called exactly once
    per node, when it reaches a terminal status.
    """
    indices = instance.links.outgoing.get(name, ())
    fired: list[int] = []

    if status in (_NODE_SKIPPED_OK, _NODE_SKIPPED_ERROR):
        dead = (
            _EDGE_DEAD_OK
            if status is _NODE_SKIPPED_OK
            else _EDGE_DEAD_ERROR
        )
        for i in indices:
            instance.set_edge(i, dead)
        return fired

    transitions = instance.spec.transitions
    if status is _NODE_DONE:
        for i in indices:
            cond = transitions[i].condition
            if cond.kind is _COND_DONE or cond.kind is _COND_ALWAYS:
                instance.set_edge(i, _EDGE_FIRED)
                fired.append(i)
            elif cond.kind is _COND_EXPR:
                if evaluate_condition(cond.expr, instance.variables):
                    instance.set_edge(i, _EDGE_FIRED)
                    fired.append(i)
                else:
                    instance.set_edge(i, _EDGE_DEAD_OK)
            else:  # FAILED / EXCEPTION edges are moot on success
                instance.set_edge(i, _EDGE_DEAD_OK)
        return fired

    if status is _NODE_FAILED:
        for i in indices:
            cond = transitions[i].condition
            if cond.kind is _COND_FAILED or cond.kind is _COND_ALWAYS:
                instance.set_edge(i, _EDGE_FIRED)
                fired.append(i)
            else:
                instance.set_edge(i, _EDGE_DEAD_ERROR)
        return fired

    if status is _NODE_EXCEPTION:
        if exception is None:
            raise NavigationError(
                f"node {name!r} ended in EXCEPTION without an exception object"
            )
        matching = [
            i
            for i in indices
            if instance.spec.transitions[i].condition.kind
            is _COND_EXCEPTION
            and _pattern_matches(
                instance.spec.transitions[i].condition.exception, exception.name
            )
        ]
        chosen: set[int] = set()
        if matching:
            best = max(
                exception_edge_specificity(
                    instance.spec.transitions[i].condition.exception
                )
                for i in matching
            )
            chosen = {
                i
                for i in matching
                if exception_edge_specificity(
                    instance.spec.transitions[i].condition.exception
                )
                == best
            }
        for i in indices:
            cond = instance.spec.transitions[i].condition
            if i in chosen or cond.kind is _COND_ALWAYS:
                instance.set_edge(i, _EDGE_FIRED)
                fired.append(i)
            elif cond.kind is _COND_FAILED and not matching:
                # Generic catch-all: an unmatched exception behaves like an
                # unmasked failure, so the alternative task still runs.
                instance.set_edge(i, _EDGE_FIRED)
                fired.append(i)
            elif cond.kind is _COND_EXCEPTION and i in matching:
                instance.set_edge(i, _EDGE_DEAD_OK)  # out-specialised
            else:
                instance.set_edge(i, _EDGE_DEAD_ERROR)
        return fired

    raise NavigationError(
        f"fire_outgoing_edges called with non-terminal status {status}"
    )


def _pattern_matches(pattern: str, name: str) -> bool:
    import fnmatch

    if any(ch in pattern for ch in "*?["):
        return fnmatch.fnmatchcase(name, pattern)
    return pattern == name


def propagate_skips(
    instance: WorkflowInstance,
    seeds: "Sequence[str] | None" = None,
) -> list[str]:
    """Skip every PENDING node that can no longer activate; iterate to a
    fixpoint.  Returns the names of nodes skipped by this call.

    *seeds* restricts the initial frontier (incremental navigation: only
    targets of freshly deadened edges can become skippable); skipping a
    node enqueues its own edge targets, so the fixpoint is complete either
    way.  ``None`` seeds the frontier with every node.
    """
    nodes = instance.nodes
    names = instance.spec.nodes.keys() if seeds is None else seeds
    # Nothing is skipped unless a seed is skippable now (only a skip
    # enqueues more nodes), so the common case is one pass over the seeds.
    for name in names:
        if _unreachable(instance, name, nodes[name]):
            break
    else:
        return []

    from collections import deque

    skipped: list[str] = []
    frontier = deque(names)
    queued = set(frontier)
    targets = instance.links.targets
    while frontier:
        name = frontier.popleft()
        queued.discard(name)
        inst = nodes[name]
        if not _unreachable(instance, name, inst):
            continue
        new_status = (
            _NODE_SKIPPED_ERROR
            if inst.dead_error_in >= 1
            else _NODE_SKIPPED_OK
        )
        inst.status = new_status
        fire_outgoing_edges(instance, name, new_status)
        skipped.append(name)
        for target in targets.get(name, ()):
            if target not in queued:
                queued.add(target)
                frontier.append(target)
    return skipped


def _unreachable(instance: WorkflowInstance, name: str, inst: NodeInstance) -> bool:
    """Whether PENDING node *name* can no longer activate: an AND join
    with a dead incoming edge, or an OR join with every incoming edge dead
    (entry nodes never are)."""
    if inst.status is not _NODE_PENDING:
        return False
    indegree = len(instance.links.feeders[name])
    if indegree == 0:
        return False  # entry nodes never skip
    if instance.spec.nodes[name].join is _AND:
        return inst.dead_in >= 1
    return inst.dead_in == indegree


def irrelevant_running_nodes(
    instance: WorkflowInstance,
    candidates: "Iterable[str] | None" = None,
) -> list[str]:
    """RUNNING nodes whose completion can no longer influence navigation.

    A running node stays relevant while it has at least one PENDING outgoing
    edge into a node that is still PENDING (that edge could contribute to an
    activation).  Once every such opportunity is gone — typically because an
    OR-join downstream already fired on a sibling branch (Figure 5) — the
    node is a zombie: the engine reaps it so workflow-level redundancy
    completes when the *first* branch wins, not the last.

    Exit nodes (no outgoing edges) are always relevant: their own completion
    is the workflow outcome.  Call after :func:`propagate_skips` so doomed
    targets are already resolved.

    *candidates* restricts the scan (incremental navigation: only nodes
    feeding into a node whose status just changed can newly become
    zombies); ``None`` scans every node.
    """
    nodes = instance.nodes
    edges = instance.edges
    links = instance.links
    names = nodes if candidates is None else dict.fromkeys(candidates)
    zombies: list[str] = []
    for name in names:
        if nodes[name].status is not _NODE_RUNNING:
            continue
        indices = links.outgoing.get(name, ())
        if not indices:
            continue
        for i, target in zip(indices, links.targets[name]):
            if (
                edges[i] is _EDGE_PENDING
                and nodes[target].status is _NODE_PENDING
            ):
                break  # still relevant
        else:
            zombies.append(name)
    return zombies


def cancel_node(instance: WorkflowInstance, name: str) -> None:
    """Mark a running node CANCELLED and deaden its unresolved edges
    benignly (nothing downstream was waiting on them)."""
    inst = instance.node(name)
    if inst.status is not _NODE_RUNNING:
        raise NavigationError(
            f"cannot cancel node {name!r} in status {inst.status}"
        )
    inst.status = _NODE_CANCELLED
    for i in instance.outgoing_indices(name):
        if instance.edges[i] is _EDGE_PENDING:
            instance.set_edge(i, _EDGE_DEAD_OK)


def evaluate_outcome(instance: WorkflowInstance) -> WorkflowStatus:
    """Workflow outcome once :meth:`WorkflowInstance.terminal` holds.

    While any node is unresolved the workflow is still RUNNING.
    """
    if not instance.terminal():
        return WorkflowStatus.RUNNING
    outgoing = instance.links.outgoing
    exits = done = False
    for name, inst in instance.nodes.items():
        if outgoing[name]:
            continue  # not an exit node
        exits = True
        if inst.status is _NODE_DONE:
            done = True
        elif inst.status is not _NODE_SKIPPED_OK:
            return WorkflowStatus.FAILED
    # Validated workflows always have exits; no exit at all is a failure.
    return WorkflowStatus.DONE if exits and done else WorkflowStatus.FAILED


def assert_no_deadlock(instance: WorkflowInstance) -> None:
    """Invariant check: with nothing running and nothing ready, every node
    must be terminal.  A violation indicates a navigator bug, not a user
    error, hence the hard failure."""
    if instance.running_nodes():
        return
    if ready_nodes(instance):
        return
    stuck = [
        name
        for name, inst in instance.nodes.items()
        if not inst.status.terminal
    ]
    if stuck:
        raise NavigationError(
            f"navigation deadlock: nodes {stuck} are pending with nothing "
            "running (this is an engine bug)"
        )
