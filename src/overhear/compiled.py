"""The forward step as a table, and the one object per set of program
fields that holds it and the step memo.

``step_plan`` reads a program's tables once into the step table, which
``CompiledProgram.forward`` walks.  ``StepMemo`` keeps the belief values
the steps meet and the links between them.  ``_compile``, the one cache,
gives every program equal in the fields the table reads one
``CompiledProgram``, its ``TeamOrientedProgram.compiled``.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .belief import NO_LINKS, Value
from .model import TERMINATE, TeamHierarchy, TeamOrientedProgram, descend, hazard

# The links and table entries that a ``StepMemo`` holds in all before it starts
# over: a 10,011-agent agent-mode replay of ``team_program(0)`` peaks at 60% of it.
MEMO_ENTRIES = 3 * 4096


def cap(act: list[float], blk: list[float]) -> tuple[list[float], list[float]]:
    """Both tables with every entry above 1 set to 1, each other entry
    left as it is: the one clip.

    Only the shared layout clips, by this function, which has two callers:
    its quiet tick, the team-mode ``CompiledProgram.forward``, and its
    evidence tick, ``yoyo._climb``, each end with it.  That layout's climb
    and rescale do not conserve mass and can push a value above 1.  No
    value of either layout is ever below 0, so there is no lower bound to
    enforce: the forward step keeps mass non-negative (it floors the one
    place rounding could break that, ``step_plan``'s ``floored``), and a
    commit only adds, multiplies, divides and takes the max of
    non-negative values.  The array layout needs no clip: its values
    exceed 1 only by rounding, an ulp or so, which is left as it is.
    """
    if max(act) > 1.0 or max(blk) > 1.0:
        act, blk = [[1.0 if v > 1.0 else v for v in t] for t in (act, blk)]
    return act, blk


def step_plan(p: TeamOrientedProgram) -> tuple[tuple, tuple[int, ...]]:
    """The forward step of p as a table, ``(nodes, floored)``, read from
    p's fields.

    ``nodes`` holds one entry per node that sheds mass, in postorder:
    ``(i, rate, moves)``.  ``rate`` is a leaf's hazard, and None for an
    internal node, whose shed is a sum that starts at 0.0 and grows as its
    children's TERMINATE edges add to it.  The team executing a node takes
    all of its edges, so the node's shed mass goes along each of them.  A
    move ``(1 - mu, pi, table, position, divisor, descent)`` scales the
    shed by the two factors, each None where it is 1.0, and adds it to
    ``position`` of one table, 0 for ``act``, 1 for ``blk`` and 2 for the
    sheds, divided by ``divisor`` unless that is None.  A move goes to one
    of three places:

    - a successor's active mass, and down its ``descents_at`` entry,
      ``descent``, which ``descend`` walks;
    - out of the program from the root: the root's blocked mass;
    - out of a parent: the parent's shed, divided among its groups.

    A node's last move blocks its share ``keep = max(0, 1 - eta)`` of the
    shed, where ``eta`` is the share its edges take silently; ``keep`` is
    taken as 0 when it rounds below 0.  ``floored`` lists the internal
    nodes that shed: only their active mass can round below zero, as the
    sum of their children's TERMINATE flows may exceed it by an ulp.

    Nothing that is always zero is in the table: nodes with ``eta <= 0``
    move nothing along their edges, edges with a factor of exactly 0 and a
    ``keep`` of 0 are left out, and so are nodes that never shed (a leaf
    with hazard 0, an internal node no TERMINATE edge feeds).
    """
    n, groups_at, descents = p.index, p.groups_at, p.descents_at
    rates = {i: hazard(p.plans[i].rate) for i in p.leaf_index}
    sheds = {i for i, rate in rates.items() if rate}
    nodes, floored = [], []
    for i in p.postorder:
        if i not in sheds:
            continue
        up, outgoing, moves = p.ancestors_at[i], p.out_at[i], []
        eta = sum((1.0 - t.mu) * t.pi for t in outgoing)  # the share its edges take silently
        for t in outgoing if eta > 0.0 else ():
            silent, pi = 1.0 - t.mu, t.pi
            if silent == 0.0 or pi == 0.0:
                continue
            factors = (None if silent == 1.0 else silent, None if pi == 1.0 else pi)
            if t.dst != TERMINATE:
                moves.append((*factors, 0, n[t.dst], None, descents[n[t.dst]]))
            elif not up:
                moves.append((*factors, 1, i, None, ()))  # program complete
            else:
                j, groups = up[0], len(groups_at[up[0]])
                moves.append((*factors, 2, j, groups if groups > 1 else None, ()))
                if j not in sheds:
                    sheds.add(j)
                    floored.append(j)
        keep = max(0.0, 1.0 - eta)
        if keep != 0.0:
            moves.append((None if keep == 1.0 else keep, None, 1, i, None, ()))
        nodes.append((i, rates.get(i), tuple(moves)))
    return tuple(nodes), tuple(floored)


class StepMemo:
    """The values met by the steps of both layouts, linked to their steps
    (see ``belief.Value``): a lazily built automaton over belief values.

    The memo's values are made in two places:

    - ``intern`` maps the exact bits of a pair of tables to one value.
      Evidence results, and the values the engine adopts (``belief.adopt``:
      a fresh ``init_beliefs``, a state built by its constructor), are
      interned, so states that start equal, or commit to equal values,
      share one value and step once; ``0.0`` and ``-0.0`` would be two
      keys, and no engine state holds ``-0.0``;
    - a quiet step from one of its values makes the next value, which
      needs no interning, as its source is already one value.

    It also keeps ``keys``, which maps a message's ``(kind, plan, team)``
    to its evidence key (``belief._message_keys``).

    This class keeps the memo's one bound.  ``linked`` lists a value once
    per link it holds, and ``len(linked)`` and the entries of both tables
    count together against ``MEMO_ENTRIES``: a link or store into a full
    memo first unlinks every listed value, clears both tables and counts an
    eviction, so the memo starts over.  ``misses`` counts, by kind (quiet,
    commit and best, which counts the answers of both queries), the steps
    computed and the answers linked, one per ``link``; a hit counts nothing.
    """

    __slots__ = ("linked", "interned", "keys", "misses", "evictions")

    def __init__(self):
        self.linked: list[Value] = []
        self.interned: dict[bytes, Value] = {}
        self.keys: dict[tuple, tuple] = {}
        self.misses = dict.fromkeys(("quiet", "commit", "best"), 0)
        self.evictions = 0

    def clear(self):
        """Unlink every value linked, and empty every table."""
        for value in self.linked:
            value.quiet = value.best = None
            value.commits = value.teams = NO_LINKS
        self.linked.clear()
        self.interned.clear()
        self.keys.clear()

    def _evict(self):
        self.clear()
        self.evictions += 1

    def _make_room(self):
        if len(self.linked) + len(self.interned) + len(self.keys) >= MEMO_ENTRIES:
            self._evict()

    def link(self, kind: str, value: Value):
        """Count one more link of ``kind`` from ``value``, one of this memo's
        values, and one more miss, first evicting if the memo is full; the
        caller sets it."""
        self._make_room()
        self.misses[kind] += 1
        self.linked.append(value)

    def store(self, table: dict, key, entry):
        """``table[key] = entry``, first evicting if the memo is full."""
        self._make_room()
        table[key] = entry

    def intern(self, act, blk) -> Value:
        """The one value holding the exact bits of ``act`` and ``blk``."""
        key = array("d", act).tobytes() + array("d", blk).tobytes()
        value = self.interned.get(key)
        if value is None:
            value = Value(act, blk, self)
            self.store(self.interned, key, value)
        return value


class CompiledProgram:
    """What every program with one set of fields compiles to:
    ``TeamOrientedProgram.compiled``.

    It holds the step table (``step_plan``), which ``forward`` walks, and
    ``memo``, the step memo (``StepMemo``) of both layouts.  Every entry
    the object stores is a function of the fields and its key, so threads
    that fill one entry at once store equal values.
    """

    __slots__ = ("nodes", "floored", "capped", "memo")

    def __init__(self, p: TeamOrientedProgram):
        self.nodes, self.floored = step_plan(p)
        self.capped = p.team_mode
        self.memo = StepMemo()

    def forward(self, A, B) -> tuple[list[float], list[float]]:
        """The forward step of the prior (active, blocked) tables: new
        lists, with A and B left as they are.

        It copies both tables and walks the step table (``step_plan``).  A
        leaf's entry runs only when its prior mass is nonzero, and computes
        its shed ``o`` as that mass times its hazard, so a leaf's shed never
        reads a copy an earlier entry wrote; an internal node's runs only
        when its shed is nonzero.  Each move computes ``(o * (1 - mu)) *
        pi``, leaving out factors of 1.0, and adds it, or its quotient by
        the move's divisor, to the move's position, and down its descent
        (``descend``).  The node then loses ``o`` from its active mass.
        After the last entry every ``floored`` node's active mass below 0.0
        is set to 0.0.  A team-mode program's step then ends with ``cap``.

        Skipping is exact.  No state value is ever -0.0, and every shed mass
        is a sum of products of non-negative values, so a skipped entry
        would only have added, subtracted or scaled an exact 0.0, which
        changes no bit, and an entry that runs on a leaf whose shed rounds
        to 0.0 does only that; likewise a shed sum that starts at 0.0
        equals one that starts at its first term, and a factor of 1.0 or a
        split into one share changes no bit.  The step runs only on a memo
        miss, and checks no length: every state reaches it through
        ``belief.adopt``, which checks both tables' lengths.
        """
        act, blk, shed = list(A), list(B), [0.0] * len(A)
        tables = (act, blk, shed)
        for i, rate, moves in self.nodes:
            if rate is None:
                o = shed[i]
                if not o:
                    continue
            else:
                x = A[i]
                if not x:
                    continue
                o = x * rate
            for silent, pi, table, c, divisor, descent in moves:
                r = o if silent is None else o * silent
                if pi is not None:
                    r *= pi
                tables[table][c] += r if divisor is None else r / divisor
                if descent:
                    descend(descent, r, act)
            act[i] -= o
        for j in self.floored:
            if act[j] < 0.0:
                act[j] = 0.0
        return cap(act, blk) if self.capped else (act, blk)


@lru_cache(maxsize=16)
def _compile(plans, transitions, root, teams, team_mode) -> CompiledProgram:
    """The compiled object of every program with these fields, the ones
    ``step_plan`` reads: a miss builds it from a program with these fields
    and no agent, which nothing here reads, and a hit builds nothing.

    Equal keys build equal tables, bit for bit: the loader stores ``mu``
    and ``pi`` as floats, and an int rate, or a -0.0 ``mu``, ``pi`` or
    rate, gives the factor, hazard or skip of the equal float.
    ``team_mode`` is in the key, as a program and its single-agent view
    compare equal but step differently.  Agents are not: the groups read
    only the team tree, so a grown team shares its object, memo included.
    Each object's memo can hold ``MEMO_ENTRIES`` links and table entries
    in all, so the cache keeps few of them.
    """
    p = TeamOrientedProgram(plans, transitions, TeamHierarchy(teams, ()), root, team_mode)
    return CompiledProgram(p)
