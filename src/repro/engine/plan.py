"""The engine's plan IR — one algebra all four frontends lower into.

Every query language in this library ultimately denotes a *union of
``≅_B`` classes* of one rank (that is what genericity, Definition 2.4,
buys: a generic query cannot split a class).  The plan IR makes that
explicit: a :class:`Plan` is a finite dataflow tree whose nodes denote
finite sets of characteristic-tree paths, and the executor evaluates it
bottom-up against an :class:`~repro.symmetric.hsdb.HSDatabase`.

Node kinds (the ISSUE's scan/filter/quantify/fixpoint/project, plus the
boolean combinators they need):

* **scan** — :class:`Scan` (the representatives ``Cᵢ`` of a stored
  relation) and :class:`FullScan` (the whole level ``Tⁿ``);
* **filter** — :class:`FilterEq` (coordinate equality) and
  :class:`FilterAtom` (σ over a stored relation);
* **project** — :class:`Project` (reorder / duplicate / drop
  coordinates, canonicalized back onto the tree) and :class:`Extend`
  (the tree-extension ``↑``, its right inverse);
* **quantify** — :class:`Quantify` binds away the *last* coordinate,
  existentially or universally;
* **join** — :class:`Join`, the representative-level cartesian product
  (QLhs ``Product``);
* **fixpoint** — :class:`Fixpoint` wraps a full QLhs program (its
  ``while`` loops are the iteration-to-fixpoint the node is named for)
  and :class:`MachineFixpoint` wraps a Theorem 5.1 GMhs query
  procedure; both are opaque to algebraic rewrites but participate in
  caching through their (hashable) payloads;
* **combinators** — :class:`Union`, :class:`Intersect`,
  :class:`Complement` (relative to ``Tⁿ``).

All nodes are frozen, slotted dataclasses: hashable, comparable, safe
as cache keys, and small (no per-node ``__dict__``).  :func:`normalize`
computes the canonical form the plan cache keys on; :func:`plan_rank`
is the static rank checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import RankMismatchError, TypeSignatureError
from ..qlhs.ast import Program
from ..trace import limits


class Plan:
    """Base class of all plan nodes.

    The one non-field slot, ``_hash``, holds the node's cached hash
    (see :func:`_install_cached_hash`); nodes carry no ``__dict__``.
    """

    __slots__ = ("_hash",)

    def __and__(self, other: "Plan") -> "Plan":
        return Intersect((self, other))

    def __or__(self, other: "Plan") -> "Plan":
        return Union((self, other))

    def __invert__(self) -> "Plan":
        return Complement(self)


# ---------------------------------------------------------------------------
# Scans.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Scan(Plan):
    """The stored relation ``Rᵢ`` as its representative set ``Cᵢ``."""

    index: int


@dataclass(frozen=True, slots=True)
class FullScan(Plan):
    """``Tⁿ`` — every class of rank ``rank``."""

    rank: int


@dataclass(frozen=True, slots=True)
class Empty(Plan):
    """``∅`` at rank ``rank`` — the other constant relation.

    No frontend emits it; the optimizer's folding rules
    (:mod:`repro.engine.optimize`) introduce it when a subplan is
    statically contradictory (``X ∩ ∁X``, ``∁Tⁿ``, …), and further
    rules propagate it upward.  Genericity makes the folds exact: an
    empty union of ``≅_B`` classes stays empty under every generic
    operation that does not reintroduce paths.
    """

    rank: int


# ---------------------------------------------------------------------------
# Filters.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FilterEq(Plan):
    """Keep paths whose coordinates ``i`` and ``j`` carry equal labels.

    Sound on representatives because ``≅_B`` refines the equality
    pattern: two equivalent tuples agree on which coordinates coincide.
    Negative indices count from the end, as in
    :class:`~repro.qlhs.ast.SelectEq`.
    """

    child: Plan
    i: int
    j: int


@dataclass(frozen=True, slots=True)
class FilterAtom(Plan):
    """``σ_{(p[pos₁],…,p[pos_a]) ∈ R_index}`` (or its negation).

    The projected tuple is canonicalized and tested against the
    representation's membership reconstruction.
    """

    child: Plan
    index: int
    positions: tuple[int, ...]
    negate: bool = False

    def __init__(self, child: Plan, index: int,
                 positions: Sequence[int], negate: bool = False):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "positions", tuple(positions))
        object.__setattr__(self, "negate", bool(negate))


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Project(Plan):
    """Output ``canon(p[c₁], …, p[c_m])`` for each child path ``p``.

    Subsumes QLhs ``↓`` (drop coordinate 0), ``~`` (swap the last two),
    and ``Permute``; coordinates may repeat or be dropped.  Projection
    preserves ``≅_B`` classes (genericity again), so canonicalizing the
    projected tuple is exact, not approximate.
    """

    child: Plan
    coords: tuple[int, ...]

    def __init__(self, child: Plan, coords: Sequence[int]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "coords", tuple(coords))


@dataclass(frozen=True, slots=True)
class Extend(Plan):
    """``↑`` — every one-label tree extension of every child path."""

    child: Plan


@dataclass(frozen=True, slots=True)
class Join(Plan):
    """Cartesian product on representatives (QLhs ``Product``).

    ``{r ∈ T^{m+n} : canon(r[:m]) ∈ left ∧ canon(r[m:]) ∈ right}`` —
    scanning the concatenated level is what makes overlapping-element
    classes (absent from naive concatenation) appear, exactly as the
    interpreter's intrinsic computes it.
    """

    left: Plan
    right: Plan


# ---------------------------------------------------------------------------
# Quantification.
# ---------------------------------------------------------------------------

EXISTS = "exists"
FORALL = "forall"


@dataclass(frozen=True, slots=True)
class Quantify(Plan):
    """Bind away the last coordinate of the child.

    ``exists``: a rank-``n`` class survives iff *some* extension of its
    representative lies in the child — and because quantifiers
    relativize to the characteristic tree (Theorem 6.3, first
    direction), "some extension" means "some tree child".  ``forall`` is
    the De Morgan dual, evaluated directly for exactness.
    """

    child: Plan
    kind: str  # EXISTS | FORALL

    def __post_init__(self):
        if self.kind not in (EXISTS, FORALL):
            raise ValueError(f"unknown quantifier kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Combinators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Union(Plan):
    """n-ary union of same-rank children (flattened by ``normalize``)."""

    children: tuple[Plan, ...]

    def __init__(self, children: Sequence[Plan]):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True, slots=True)
class Intersect(Plan):
    """n-ary intersection of same-rank children (QLhs ``∩``)."""

    children: tuple[Plan, ...]

    def __init__(self, children: Sequence[Plan]):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True, slots=True)
class Complement(Plan):
    """``Tⁿ − child`` — complement within the child's rank."""

    child: Plan


# ---------------------------------------------------------------------------
# Fixpoints (opaque procedural payloads).
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Fixpoint(Plan):
    """A full QLhs program, run to completion by the interpreter.

    QLhs ``while`` loops iterate to a stopping condition — the node's
    namesake.  The program AST is a frozen dataclass tree, so the node
    hashes structurally and result-caches across calls.
    """

    program: Program
    result_var: str = "Y1"


@dataclass(frozen=True, slots=True)
class MachineFixpoint(Plan):
    """A Theorem 5.1 GMhs query procedure (run via ``run_query_gmhs``).

    The procedure is a Python callable; it hashes by identity, which
    bounds cache reuse to the lifetime of the callable — exactly the
    guarantee a per-process result cache can honour.

    ``max_steps`` caps the loading stage's synchronous GMhs steps; the
    executor combines it with the engine budget's deadline and
    cancellation flag (see ``docs/limits.md``).  Plans stay hashable,
    so the knob is a plain integer, not a live
    :class:`~repro.trace.Budget`.
    """

    procedure: object  # QueryProcedure; hashable by identity
    search_window: int = 512
    max_steps: int = limits.MACHINE_FIXPOINT


@dataclass(frozen=True, slots=True)
class FcfFixpoint(Plan):
    """A QLf+ program over an fcf-r-db (Section 4 semantics).

    Evaluates to an :class:`~repro.fcf.relation.FcfValue` rather than a
    path set; only :class:`~repro.engine.executor.Engine` instances
    constructed over an :class:`~repro.fcf.database.FcfDatabase` execute
    it.
    """

    program: Program


# ---------------------------------------------------------------------------
# Hash caching.
# ---------------------------------------------------------------------------

def _install_cached_hash(cls: type) -> None:
    """Replace the dataclass-generated ``__hash__`` with a caching one.

    Plans are used as dict keys everywhere (both cache levels, the
    result cache, batch shared sets), and the generated hash walks the
    whole subtree on every call — profiling showed recursive hashing
    dominating cold evaluation.  Nodes are frozen, so the hash is
    computed once and stashed in the ``_hash`` slot; child hashes are
    themselves cached, making the first hash of a tree ``O(n)`` total
    and every later one ``O(1)``.

    The slot is not a dataclass field, so pickling (the shard
    executor's transport) leaves it behind: ``hash()`` is salted per
    process, and a hash carried into another process would disagree
    with that process's hash of an equal plan.
    """
    generated = cls.__hash__

    def cached_hash(self, _generated=generated):
        try:
            return self._hash
        except AttributeError:
            h = _generated(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = cached_hash


for _cls in (Scan, FullScan, Empty, FilterEq, FilterAtom, Project, Extend,
             Join, Quantify, Union, Intersect, Complement, Fixpoint,
             MachineFixpoint, FcfFixpoint):
    _install_cached_hash(_cls)


# ---------------------------------------------------------------------------
# Static rank computation.
# ---------------------------------------------------------------------------

def _rank_step(plan: Plan, signature: tuple[int, ...], rank_of) -> int:
    """The output rank of one node, given ``rank_of(child)`` for its
    children (raises on rank errors) — the single home of the rank
    rules, shared by :func:`plan_rank` and :class:`_Ranker`."""
    if isinstance(plan, Scan):
        if not 0 <= plan.index < len(signature):
            raise TypeSignatureError(
                f"Scan({plan.index}) out of range for type {signature}")
        return signature[plan.index]
    if isinstance(plan, FullScan):
        if plan.rank < 0:
            raise RankMismatchError("FullScan rank must be >= 0")
        return plan.rank
    if isinstance(plan, Empty):
        if plan.rank < 0:
            raise RankMismatchError("Empty rank must be >= 0")
        return plan.rank
    if isinstance(plan, FilterEq):
        n = rank_of(plan.child)
        i = plan.i if plan.i >= 0 else n + plan.i
        j = plan.j if plan.j >= 0 else n + plan.j
        if not (0 <= i < n and 0 <= j < n):
            raise RankMismatchError(
                f"FilterEq({plan.i}, {plan.j}) out of range for rank {n}")
        return n
    if isinstance(plan, FilterAtom):
        n = rank_of(plan.child)
        if not 0 <= plan.index < len(signature):
            raise TypeSignatureError(
                f"FilterAtom relation {plan.index} out of range for "
                f"type {signature}")
        if len(plan.positions) != signature[plan.index]:
            raise RankMismatchError(
                f"FilterAtom has {len(plan.positions)} positions; "
                f"R{plan.index + 1} has arity {signature[plan.index]}")
        if any(not 0 <= c < n for c in plan.positions):
            raise RankMismatchError(
                f"FilterAtom positions {plan.positions} out of range "
                f"for rank {n}")
        return n
    if isinstance(plan, Project):
        n = rank_of(plan.child)
        if any(not 0 <= c < n for c in plan.coords):
            raise RankMismatchError(
                f"Project coords {plan.coords} out of range for rank {n}")
        return len(plan.coords)
    if isinstance(plan, Extend):
        return rank_of(plan.child) + 1
    if isinstance(plan, Join):
        return rank_of(plan.left) + rank_of(plan.right)
    if isinstance(plan, Quantify):
        n = rank_of(plan.child)
        if n == 0:
            raise RankMismatchError("Quantify needs rank >= 1")
        return n - 1
    if isinstance(plan, (Union, Intersect)):
        ranks = {rank_of(c) for c in plan.children}
        if not plan.children:
            raise RankMismatchError(
                f"{type(plan).__name__} needs at least one child")
        if len(ranks) != 1:
            raise RankMismatchError(
                f"{type(plan).__name__} over mixed ranks {sorted(ranks)}")
        return ranks.pop()
    if isinstance(plan, Complement):
        return rank_of(plan.child)
    if isinstance(plan, (Fixpoint, MachineFixpoint, FcfFixpoint)):
        raise RankMismatchError(
            f"{type(plan).__name__} rank is dynamic (known only after "
            "execution)")
    raise TypeError(f"unknown plan node {plan!r}")


def plan_rank(plan: Plan, signature: Sequence[int]) -> int:
    """The output rank of a plan, statically (raises on rank errors)."""
    signature = tuple(signature)
    return _rank_step(plan, signature,
                      lambda child: plan_rank(child, signature))


class _Ranker:
    """Memoized static rank for one call (normalization or
    optimization): an ``int``, or ``None`` when the rank is unknown
    (dynamic fixpoint below, missing signature) or the node is
    statically ill-ranked — either way, rewrite rules must not fire.

    Each node's rank is computed once, by :func:`_rank_step` over its
    children's memoized ranks, so a whole tree costs ``O(n)`` and a
    rebuilt node costs one step.  The memo is keyed by object identity,
    which needs no hashing of the rewritten nodes an optimizer pass
    creates.  Entries keep a reference to their plan so the id cannot
    be recycled underneath the memo; a ranker lives only for one call,
    bounding the retained garbage to that plan's rewrite history."""

    __slots__ = ("_signature", "_memo")

    def __init__(self, signature: Sequence[int] | None):
        self._signature = tuple(signature) if signature is not None else ()
        self._memo: dict[int, tuple[Plan, int | None]] = {}

    def __call__(self, plan: Plan) -> int | None:
        entry = self._memo.get(id(plan))
        if entry is not None and entry[0] is plan:
            return entry[1]
        try:
            rank = _rank_step(plan, self._signature, self._child_rank)
        except (RankMismatchError, TypeSignatureError, TypeError):
            rank = None
        self._memo[id(plan)] = (plan, rank)
        return rank

    def _child_rank(self, child: Plan) -> int:
        rank = self(child)
        if rank is None:
            raise RankMismatchError(f"rank of {type(child).__name__} "
                                    "is unknown")
        return rank


# ---------------------------------------------------------------------------
# Normalization (the plan-cache key).
# ---------------------------------------------------------------------------

def _node_key(plan: Plan) -> str:
    """A stable ordering key for commutative children."""
    return repr(plan)


def normalize(plan: Plan, signature: Sequence[int] | None = None) -> Plan:
    """The canonical form of a plan — the first cache level's key.

    Rewrites applied (all semantics-preserving):

    * ``¬¬e → e`` (complement is an involution within a rank);
    * nested unions/intersections flatten, deduplicate, and sort their
      children into a stable order (both are ACI);
    * singleton unions/intersections collapse to their child;
    * identity projections (``coords == (0, …, n−1)``) vanish — only
      when a ``signature`` is supplied, since the child's rank must be
      derivable to recognize them.

    Every node that needs none of these is returned as the same object,
    so ``normalize(q) is q`` for a normal ``q``.  Two plans that
    normalize identically share a plan-cache entry and — combined with
    a database fingerprint — a result-cache entry.
    """
    rank = _Ranker(signature) if signature is not None else None
    return _normalize(plan, rank, {})


def _normalize(plan: Plan, rank: _Ranker | None,
               normal: dict[int, Plan]) -> Plan:
    """:func:`normalize` under one call's memos: ``rank`` (``None``
    when no signature is known, so identity projections stay) and
    ``normal``, the nodes already known to be in normal form (by id),
    which are returned without another walk."""
    if normal.get(id(plan)) is plan:
        return plan
    out = _normal_step(plan, rank, normal)
    normal[id(out)] = out
    return out


def _normal_step(plan: Plan, rank: _Ranker | None,
                 normal: dict[int, Plan]) -> Plan:
    """One node of :func:`_normalize`, children first."""
    if isinstance(plan, Complement):
        child = _normalize(plan.child, rank, normal)
        if isinstance(child, Complement):
            return child.child
        return plan if child is plan.child else Complement(child)
    if isinstance(plan, (Union, Intersect)):
        cls = type(plan)
        flat: list[Plan] = []
        for c in plan.children:
            c = _normalize(c, rank, normal)
            if isinstance(c, cls):
                flat.extend(c.children)
            else:
                flat.append(c)
        unique = sorted(set(flat), key=_node_key)
        if len(unique) == 1:
            return unique[0]
        if (len(unique) == len(plan.children)
                and all(a is b for a, b in zip(unique, plan.children))):
            return plan
        return cls(unique)
    if isinstance(plan, FilterEq):
        i, j = plan.i, plan.j
        if (i >= 0) == (j >= 0) and i > j:
            i, j = j, i
        child = _normalize(plan.child, rank, normal)
        if child is plan.child and i == plan.i:
            return plan
        return FilterEq(child, i, j)
    if isinstance(plan, Project):
        child = _normalize(plan.child, rank, normal)
        if rank is not None:
            n_child = rank(child)
            if n_child is not None and plan.coords == tuple(range(n_child)):
                return child
        return plan if child is plan.child else Project(child, plan.coords)
    if isinstance(plan, Join):
        left = _normalize(plan.left, rank, normal)
        right = _normalize(plan.right, rank, normal)
        if left is plan.left and right is plan.right:
            return plan
        return Join(left, right)
    if isinstance(plan, (FilterAtom, Extend, Quantify)):
        child = _normalize(plan.child, rank, normal)
        return plan if child is plan.child else _with_child(plan, child)
    # Leaves and opaque fixpoints are already canonical.
    return plan


def _with_child(plan: Plan, child: Plan) -> Plan:
    """A single-child node rebuilt over a new ``child``."""
    if isinstance(plan, FilterEq):
        return FilterEq(child, plan.i, plan.j)
    if isinstance(plan, FilterAtom):
        return FilterAtom(child, plan.index, plan.positions, plan.negate)
    if isinstance(plan, Project):
        return Project(child, plan.coords)
    if isinstance(plan, Extend):
        return Extend(child)
    if isinstance(plan, Quantify):
        return Quantify(child, plan.kind)
    if isinstance(plan, Complement):
        return Complement(child)
    raise TypeError(f"unknown plan node {plan!r}")


def plan_size(plan: Plan) -> int:
    """Number of nodes — for stats and tests."""
    if isinstance(plan, (Scan, FullScan, Empty, Fixpoint, MachineFixpoint,
                         FcfFixpoint)):
        return 1
    if isinstance(plan, (Union, Intersect)):
        return 1 + sum(plan_size(c) for c in plan.children)
    if isinstance(plan, Join):
        return 1 + plan_size(plan.left) + plan_size(plan.right)
    return 1 + plan_size(plan.child)  # type: ignore[attr-defined]
