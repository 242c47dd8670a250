"""Generated code: the compiled forward step, and the one object per set
of program fields that holds it and the step memo.

``forward_source`` writes Python source from a program's tables, and
``_Kernel`` compiles it and registers it with ``linecache``, so tracebacks,
profilers and ``inspect.getsource`` show the generated text.  The one
cache, ``_compile``, is bounded, lives in this module and is keyed on the
fields the generator reads, never on a program object: every program equal
in those (a fresh load, a comm-applied copy) shares one object, and a hit
generates no source.  A source stays in ``linecache`` only while its
function is cached.

``_compile`` gives ``CompiledProgram``, ``TeamOrientedProgram.compiled``.
It holds the forward (quiet) step, ``forward``, whose function
(``forward_source``) steps list copies and tests each leaf's prior mass,
so a sparse belief runs few updates, and in team mode caps what it
returns.  It also holds the step memo (``StepMemo``) of both layouts,
whose belief values (``belief.Value``) are shared immutable tuples that
hold their own steps.
Every most-likely query runs ``belief.pick_leaf``, interpreted, on a memo
miss.

``model`` holds documents and tables and reaches this module only from the
property that returns the compiled object.
"""

from __future__ import annotations

import linecache
from array import array
from functools import lru_cache
from itertools import count

from .belief import NO_LINKS, Value
from .model import TERMINATE, TeamHierarchy, TeamOrientedProgram, hazard

# The links of each kind, and the entries of each table, that a
# ``StepMemo`` holds before it starts over.
MEMO_STATES = 4096

# The serial numbers that name each kernel's source in ``linecache``.
_SERIALS = count()


class _Kernel:
    """A compiled forward step and its source's ``linecache`` entry.

    ``src`` defines one function, ``forward``.  The file name holds the
    kernel's serial number, so kernels of equal source (those of programs
    that differ in plan names, say) keep one entry each, and no kernel
    takes the name of one evicted before it, as the ``id`` of a freed
    kernel, reused, would give it; it hashes no source, which would cost a
    one-shot command the ``hashlib`` import.  Only ``_compile`` holds a
    kernel, so the entry is dropped when the kernel leaves its cache, and
    ``linecache`` holds no more sources than the cache holds functions.
    """

    def __init__(self, src: str):
        self.filename = f"<forward step {next(_SERIALS)}>"
        self.entry = (len(src), None, src.splitlines(True), self.filename)
        linecache.cache[self.filename] = self.entry
        scope: dict = {}
        exec(compile(src, self.filename, "exec"), scope)
        self.function = scope["forward"]

    def __del__(self, cache=linecache.cache):
        if cache.get(self.filename) is self.entry:  # not re-registered since
            del cache[self.filename]


def _descend(groups_at, y: int, rho: str, depth: int, body: list[str]):
    """``belief.propagate_down`` of the mass named ``rho`` from position y,
    unrolled into ``body``: each group's share is ``s<depth>``, a division
    of its parent's share, written only for a group of more than one.  A
    share is added to the child's ``act`` entry."""
    for group in groups_at[y]:
        share = rho
        if len(group) > 1:
            share = f"s{depth}"
            body.append(f"{share} = {rho} / {len(group)}")
        for c in group:
            body.append(f"act[{c}] += {share}")
            _descend(groups_at, c, share, depth + 1, body)


def forward_source(p: TeamOrientedProgram) -> str:
    """The source of ``p.compiled.forward``, the forward step as one
    function of the prior (active, blocked) tables, generated from p's fields.

    Both are belief tables, indexed by node position.  It returns new
    lists and leaves its arguments as they are; a table of the wrong
    length raises ``ValueError``.  The function computes ``o<i>``, the
    mass node i sheds: a leaf's is its prior active mass times its
    hazard, and an internal node's is a sum that starts at 0.0 and only
    grows by ``+=``.  The generator walks the program in postorder and
    writes one block per shedding node, guarded so that a node that
    sheds nothing costs one test.  The team executing a node takes all
    of its edges, so the node's shed mass goes along each of them, and a
    TERMINATE edge divides it among the parent's groups.  Every float
    operation is the one the step has always made, in the same order, so
    exact ties between leaves break as they always have.

    The kernel has one shape in both modes.  It checks both lengths,
    copies the tables (``act = list(A)``, ``blk = list(B)``) and guards
    each leaf's block by its prior mass, ``if x := A[i]:``, computing
    ``o<i> = x * rate`` inside, so a leaf with no mass costs one test
    and a leaf's shed never reads a copy an earlier block wrote.  An
    internal node's block is guarded by ``if o<i>:``.  A block updates
    ``act[x]`` and ``blk[x]`` in place, and the floors below are
    statements after the last block.  The shape pays off on sparse
    beliefs, which a message resets to a point mass.  A team-mode
    kernel, the shared layout's quiet tick, ends by capping both lists
    at 1, entry by entry: ``if max(act) > 1.0: act = [1.0 if v > 1.0
    else v for v in act]``, and the same for ``blk``, the rule that also
    ends the shared layout's evidence tick (``yoyo._climb``).  A team-mode
    kernel that unpacks both tables into locals and returns capped list
    displays runs faster, but the step memo runs a kernel only on a
    miss, so one shape serves both modes and the generator holds one
    branch on ``team_mode``.

    Skipping is exact.  No state value is ever -0.0, and every shed mass
    is a sum of products of non-negative values, so a skipped block would
    only have added, subtracted or scaled an exact 0.0, which changes no
    bit, and a block that runs on a leaf whose shed rounds to 0.0 does
    only that; likewise a shed sum that starts at 0.0 equals one that
    starts at its first term.  Updates that are always zero are not
    written at all: nodes with ``eta <= 0``, edges with a factor of
    exactly 0, and nodes that never shed (a leaf with hazard 0, an
    internal node no TERMINATE edge feeds).  Factors of exactly 1 and
    splits into one share are not written either, as they change no
    bit.  Every inlined constant is finite, so ``repr`` writes it
    exactly.

    Mass stays at or above zero exactly, with no pass over the state.  A
    leaf sheds at most its own prior mass, and a node's blocked share
    ``keep = 1 - eta`` is taken as 0 when it rounds below 0.  Only
    an internal node that sheds can round below zero: the sum of its
    children's TERMINATE flows may exceed its active mass by an ulp.  So
    such a node's active mass is floored at 0.0 after every block has
    read it, ``if act[i] < 0.0: act[i] = 0.0``, before any cap.  The
    single-agent view's kernel does not cap; rounding may leave one of
    its values an ulp above 1, and it is left as it is.
    """
    n, groups_at = p.index, p.groups_at
    shed: list[str] = []  # each internal o<i> set before any block runs
    blocks: list[str] = []
    rates = {i: hazard(p.plans[i].rate) for i in p.leaf_index}
    sheds = {i for i, rate in rates.items() if rate}
    floored: list[int] = []  # the internal nodes that shed

    for i in p.postorder:
        if i not in sheds:
            continue
        up, outgoing, body = p.ancestors_at[i], p.out_at[i], []
        if i in rates:  # read the prior mass once; compute o<i> only where it is nonzero
            guard = f"if x := A[{i}]:"
            body.append(f"o{i} = x * {rates[i]!r}")
        else:
            guard = f"if o{i}:"
        eta = sum((1.0 - t.mu) * t.pi for t in outgoing)  # the share its edges take silently
        carriers = [t for t in outgoing if 1.0 - t.mu != 0.0 and t.pi != 0.0] if eta > 0.0 else []
        for t in carriers:
            factors = "".join(f" * {f!r}" for f in (1.0 - t.mu, t.pi) if f != 1.0)
            r = "r" if factors else f"o{i}"
            if factors:
                body.append(f"r = o{i}{factors}")
            if t.dst != TERMINATE:
                body.append(f"act[{n[t.dst]}] += {r}")
                _descend(groups_at, n[t.dst], r, 0, body)
            elif not up:
                body.append(f"blk[{i}] += {r}")  # program complete
            else:
                j, groups = up[0], len(groups_at[up[0]])
                body.append(f"o{j} += " + (r if groups == 1 else f"{r} / {groups}"))
                if j not in sheds:
                    sheds.add(j)
                    floored.append(j)
                    shed.append(f"o{j} = 0.0")
        keep = max(0.0, 1.0 - eta)
        if keep != 0.0:
            body.append(f"blk[{i}] += o{i}" + ("" if keep == 1.0 else f" * {keep!r}"))
        body.append(f"act[{i}] -= o{i}")
        blocks.append(f"{guard}\n        " + "\n        ".join(body))

    size = len(n)
    head = [f"if len(A) != {size} or len(B) != {size}:",
            f"    raise ValueError(f'forward step of {size} nodes got tables of "
            "{len(A)} and {len(B)} entries')",
            "act = list(A)", "blk = list(B)"]
    tail = [f"if act[{j}] < 0.0:\n        act[{j}] = 0.0" for j in floored]
    if p.team_mode:
        tail += [f"if max({t}) > 1.0:\n        {t} = [1.0 if v > 1.0 else v for v in {t}]"
                 for t in ("act", "blk")]
    tail.append("return act, blk")
    body = [*head, *shed, *blocks, *tail]
    return "\n".join(["def forward(A, B):", *(f"    {line}" for line in body)]) + "\n"


class StepMemo:
    """The values met by the steps of both layouts, linked to their steps:
    a lazily built automaton over belief values.

    A state (``belief.BeliefState``) holds one ``belief.Value``.  Each
    value the memo makes holds its tables as tuples, which no step writes,
    and its live set (``belief.Value``), read off ``leaves``, the program's
    leaf positions; a step or query taken from it once is kept on it as a
    link, and taking it again is one attribute load.  The memo makes values
    in two places, both by ``make``:

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

    A link is one the engine computed from the same value.  ``links``
    counts them per kind (quiet, commit and best, which counts the answers
    of both queries), and ``linked`` lists the values that hold them.  Each
    kind, and each table, holds at most ``MEMO_STATES``; a link or store
    into a full one unlinks every listed value, clears every table and
    counts an eviction.  ``misses`` counts, by kind, the steps computed and
    the answers linked, one per ``link``; a hit counts nothing.
    """

    __slots__ = ("leaves", "linked", "links", "interned", "keys", "misses", "evictions")

    def __init__(self, leaves: tuple[int, ...]):
        self.leaves = leaves
        self.linked: list[Value] = []
        self.links = dict.fromkeys(("quiet", "commit", "best"), 0)
        self.interned: dict[bytes, Value] = {}
        self.keys: dict[tuple, tuple] = {}
        self.misses = dict.fromkeys(self.links, 0)
        self.evictions = 0

    def clear(self):
        """Unlink every value linked, and empty every table."""
        for value in self.linked:
            value.quiet = value.best = None
            value.commits = value.teams = NO_LINKS
        self.linked.clear()
        self.links = dict.fromkeys(self.links, 0)
        self.interned.clear()
        self.keys.clear()

    def _evict(self):
        self.clear()
        self.evictions += 1

    def link(self, kind: str, value: Value):
        """Count one more link of ``kind`` from ``value``, one of this memo's
        values, and one more miss, first evicting if the kind is full; the
        caller sets it."""
        if self.links[kind] >= MEMO_STATES:
            self._evict()
        self.links[kind] += 1
        self.misses[kind] += 1
        self.linked.append(value)

    def store(self, table: dict, key, entry):
        """``table[key] = entry``, first evicting if ``table`` is full."""
        if len(table) >= MEMO_STATES:
            self._evict()
        table[key] = entry

    def make(self, act, blk) -> Value:
        """A new value of this memo holding ``act`` and ``blk``, and its live set."""
        live = tuple(i for i in self.leaves if act[i] or blk[i])
        return Value(act, blk, self, live)

    def intern(self, act, blk) -> Value:
        """The one value holding the exact bits of ``act`` and ``blk``."""
        key = array("d", act).tobytes() + array("d", blk).tobytes()
        value = self.interned.get(key)
        if value is None:
            value = self.make(act, blk)
            self.store(self.interned, key, value)
        return value


class CompiledProgram:
    """What every program with one set of fields compiles to:
    ``TeamOrientedProgram.compiled``.

    ``forward`` is the forward step, ``forward_source``'s function, and
    ``memo`` is the step memo (``StepMemo``) of both layouts.  Every entry
    the object stores is a function of the fields and its key, so threads
    that fill one entry at once store equal values.
    """

    __slots__ = ("forward", "memo")

    def __init__(self, p: TeamOrientedProgram, forward):
        self.forward = forward
        self.memo = StepMemo(p.leaf_index)


@lru_cache(maxsize=16)
def _compile(plans, transitions, root, teams, team_mode) -> tuple[CompiledProgram, _Kernel]:
    """The compiled object of every program with these fields, the ones
    ``forward_source`` reads, and the kernel of its forward step: a miss
    builds both from a program with these fields and no agent, which
    nothing here reads, and a hit generates nothing.

    Equal keys give equal source: the loader stores ``mu`` and ``pi`` as
    floats, and an int rate, or a -0.0 ``mu``, ``pi`` or rate, writes the
    text of the equal float.  ``team_mode`` is in the key, as a program and
    its single-agent view compare equal but step differently.  Agents are
    not: the groups read only the team tree, so a grown team shares its
    object, memo included.  The cache holds the kernel and a program only
    the object, so a source leaves ``linecache`` when its entry leaves the
    cache.  Each object's memo can hold ``MEMO_STATES`` links per kind and
    entries per table, so the cache keeps few of them.
    """
    p = TeamOrientedProgram(plans, transitions, TeamHierarchy(teams, ()), root, team_mode)
    kernel = _Kernel(forward_source(p))
    return CompiledProgram(p, kernel.function), kernel
