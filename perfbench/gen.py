"""Seeded input generators for every workload.

Everything the program receives is built here from the workload seed,
on top of ``repro.workloads`` (never ``repro.bench``), and rendered in
the ``repro.io`` bundle format.  :func:`digest` hashes the rendered
inputs so two runs can show they fed the program identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.io import bundle_to_json
from repro.model.builders import database
from repro.model.schema import DatabaseSchema, RelationSchema
from repro.workloads import random_fds, random_inds

SERVE_RELATIONS = 100
SERVE_PREMISES = 500
SERVE_TARGETS = 200
SERVE_SOURCES = 12
"""Source expressions: six chain relations, each on attribute A and B."""
SERVE_REQUESTS = 60_000
ZIPF_S = 1.1
"""Skew of the target draw: weight of the k-th hottest target ~ 1/k^s."""

DISCOVER_RELATIONS = 8
DISCOVER_ROWS = 300

ENGINE_IND_RELATIONS = 60
ENGINE_FD_ATTRS = 12
ENGINE_UNARY_RELATIONS = 20
ENGINE_CHASE_RELATIONS = 24
ENGINE_TARGETS = 150
"""Targets per pure/unary engine class (the chase class asks fewer)."""
ENGINE_CHASE_TARGETS = 48


def digest(*texts: str) -> str:
    """Short hex digest of the generated inputs, in order."""
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
        sha.update(b"\0")
    return sha.hexdigest()[:16]


@dataclass
class ServeInputs:
    """One tenant bundle, its target pool, and the request sequence."""

    schema: DatabaseSchema
    premises: list
    targets: list[str]
    sequence: list[int]
    """Target indices in send order, drawn skewed from ``targets``."""
    toggles: list[str]
    """One IND per connection that the mixed workload adds and retracts."""

    @property
    def bundle_text(self) -> str:
        return bundle_to_json(self.schema, self.premises, indent=None)

    def digest(self) -> str:
        return digest(
            self.bundle_text, json.dumps(self.targets),
            json.dumps(self.sequence), json.dumps(self.toggles),
        )


def serve_inputs(seed: int, connections: int = 2) -> ServeInputs:
    """500 INDs over a 100-relation chain plus seeded noise.

    The chain ``R_i[A,B] <= R_{i+1}[A,B]`` keeps reachable sets deep;
    the noise keeps the premise buckets busy.  ``QUIET`` is reachable
    only through a toggle, so targets into it are full-exploration
    misses until the mixed workload adds one.  Targets come from
    ``SERVE_SOURCES`` source expressions and mix shallow hits (a few
    chain hops), deep hits (most of the chain) and misses.
    """
    rng = random.Random(seed)
    busy = DatabaseSchema(
        RelationSchema(f"R{i}", ("A", "B", "C"))
        for i in range(SERVE_RELATIONS)
    )
    schema = DatabaseSchema(
        list(busy) + [RelationSchema("QUIET", ("A", "B"))]
    )
    chain = [
        IND(f"R{i}", ("A", "B"), f"R{i + 1}", ("A", "B"))
        for i in range(SERVE_RELATIONS - 1)
    ]
    noise = random_inds(
        rng, busy, count=SERVE_PREMISES - len(chain), max_arity=2
    )
    sources = [
        (start, attr)
        for start in rng.sample(range(SERVE_RELATIONS // 2), SERVE_SOURCES // 2)
        for attr in "AB"
    ]
    targets: dict[str, None] = {}
    while len(targets) < SERVE_TARGETS:
        start, attr = rng.choice(sources)
        room = SERVE_RELATIONS - 1 - start
        kind = rng.randrange(4)
        if kind == 0:  # shallow hit: a few chain hops
            rhs = f"R{start + 1 + rng.randrange(3)}[{attr}]"
        elif kind == 1:  # deep hit: most of the chain
            rhs = f"R{start + room // 2 + rng.randrange(room // 2 + 1)}[{attr}]"
        elif kind == 2:  # off-chain column: hit or miss through the noise
            rhs = f"R{rng.randrange(SERVE_RELATIONS)}[C]"
        else:  # miss: nothing reaches QUIET until a toggle lands
            rhs = f"QUIET[{rng.choice('AB')}]"
        targets[f"R{start}[{attr}] <= {rhs}"] = None
    targets = list(targets)
    rng.shuffle(targets)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(targets))]
    sequence = rng.choices(
        range(len(targets)), weights=weights, k=SERVE_REQUESTS
    )
    # A toggle links a mid-chain relation to QUIET, so adding it flips
    # the misses of every source upstream of it.
    toggles = []
    for conn in range(connections):
        attr = "AB"[conn % 2]
        toggles.append(
            f"R{rng.randrange(50, SERVE_RELATIONS)}[{attr}] <= QUIET[{attr}]"
        )
    return ServeInputs(
        schema=schema,
        premises=chain + noise,
        targets=targets,
        sequence=sequence,
        toggles=toggles,
    )


def discover_database(seed: int):
    """A multi-relation database with a planted FK cycle and FDs.

    Relation ``T_i(ID, GRP, FK, FGRP)``: ``ID`` is a key and ``GRP`` a
    function of it over ``DISCOVER_ROWS // 10`` values; ``FK`` is a
    seeded permutation of ``T_{i+1}.ID`` (indices mod
    ``DISCOVER_RELATIONS``) and ``FGRP`` copies the referenced row's
    ``GRP``.  So the unary IND ``T_i[FK] <= T_{i+1}[ID]``, the binary
    IND ``T_i[FK,FGRP] <= T_{i+1}[ID,GRP]`` and the FD
    ``T_i: FK -> FGRP`` are planted; the small ``GRP`` domain adds many
    incidental unary INDs for the reduction to prune.
    """
    rng = random.Random(seed)
    n, rows = DISCOVER_RELATIONS, DISCOVER_ROWS
    ids = [rng.sample(range(10 * rows), rows) for _ in range(n)]
    # Every group value and every parent row is used, so which
    # dependencies hold does not hinge on the seed's coverage luck.
    groups = [{key: k % (rows // 10) for k, key in enumerate(keys)}
              for keys in ids]
    contents = {}
    for i in range(n):
        parent = (i + 1) % n
        fks = rng.sample(ids[parent], rows)
        contents[f"T{i}"] = [
            (key, groups[i][key], fk, groups[parent][fk])
            for key, fk in zip(ids[i], fks)
        ]
    schema = {name: ("ID", "GRP", "FK", "FGRP") for name in contents}
    return database(schema, contents)


def discover_bundle(seed: int) -> str:
    db = discover_database(seed)
    return bundle_to_json(db.schema, db=db, indent=None)


def engine_bundles(seed: int) -> dict[str, tuple[str, list[str]]]:
    """One ``(bundle, targets)`` pair per engine class.

    Each class has a fixed backbone plus seeded extras and a fixed
    number of targets per kind, so the work of a pass varies little
    from seed to seed:

    * ``ind``: pure INDs (Corollary 3.2) -- a chain plus noise.
    * ``fd``: pure FDs (attribute closure) -- a chain over one wide
      relation plus random FDs.
    * ``unary``: unary FDs and INDs (Section 4) -- an IND chain, one
      short cycle, an FD on every third relation and forward-only
      extras; the workload asks every target under both semantics.
    * ``chase``: general FDs plus an acyclic IND chain (budgeted chase).
    """
    rng = random.Random(seed)
    bundles: dict[str, tuple[str, list[str]]] = {}

    n = ENGINE_IND_RELATIONS
    busy = DatabaseSchema(
        RelationSchema(f"R{i}", ("A", "B", "C")) for i in range(n)
    )
    inds = [
        IND(f"R{i}", ("A", "B"), f"R{i + 1}", ("A", "B"))
        for i in range(n - 1)
    ] + random_inds(rng, busy, count=2 * n, max_arity=2)
    ind_targets = []
    for k in range(ENGINE_TARGETS):
        s = rng.randrange(n // 2)
        t = s + 1 + rng.randrange(n // 2) if k % 2 else rng.randrange(n)
        ind_targets.append(str(IND(f"R{s}", (rng.choice("AB"),),
                                   f"R{t}", (rng.choice("ABC"),))))
    bundles["ind"] = (bundle_to_json(busy, inds, indent=None), ind_targets)

    attrs = [f"X{j}" for j in range(ENGINE_FD_ATTRS)]
    wide = DatabaseSchema([RelationSchema("W", tuple(attrs))])
    fds = [FD("W", (attrs[j],), (attrs[j + 1],))
           for j in range(ENGINE_FD_ATTRS - 1)]
    fds += random_fds(rng, wide, count=ENGINE_FD_ATTRS, max_lhs=3)
    fd_targets = []
    for _ in range(ENGINE_TARGETS):
        lhs = rng.sample(attrs, 1 + rng.randrange(3))
        rhs = rng.choice([a for a in attrs if a not in lhs])
        fd_targets.append(str(FD("W", tuple(lhs), (rhs,))))
    bundles["fd"] = (bundle_to_json(wide, fds, indent=None), fd_targets)

    m = ENGINE_UNARY_RELATIONS
    unary_schema = DatabaseSchema(
        RelationSchema(f"U{i}", ("A", "B")) for i in range(m)
    )
    unary: list = [IND(f"U{i}", ("A",), f"U{i + 1}", ("A",))
                   for i in range(m - 1)]
    # One short cycle with FDs on it: where finite and unrestricted
    # implication part ways (the cycle rule of Section 4).
    unary += [IND("U2", ("B",), "U0", ("B",)), IND("U0", ("B",), "U1", ("B",))]
    unary += [FD(f"U{i}", ("A",), ("B",)) for i in range(0, m, 3)]
    for _ in range(m // 2):  # forward extras keep the cycle count fixed
        a, b = sorted(rng.sample(range(3, m), 2))
        unary.append(IND(f"U{a}", (rng.choice("AB"),), f"U{b}",
                         (rng.choice("AB"),)))
    unary_targets = []
    for k in range(ENGINE_TARGETS):
        s, t = rng.sample(range(m), 2)
        if k % 2:
            unary_targets.append(str(IND(f"U{s}", (rng.choice("AB"),),
                                         f"U{t}", (rng.choice("AB"),))))
        else:
            unary_targets.append(str(FD(f"U{s}", ("B",), ("A",))))
    bundles["unary"] = (
        bundle_to_json(unary_schema, unary, indent=None), unary_targets
    )

    c = ENGINE_CHASE_RELATIONS
    chase_schema = DatabaseSchema(
        RelationSchema(f"C{i}", ("A", "B", "C")) for i in range(c)
    )
    chase: list = [
        IND(f"C{i}", ("A", "B"), f"C{i + 1}", ("A", "B"))
        for i in reversed(range(c - 1))
    ]
    chase += [FD(f"C{i}", ("A",), ("B",)) for i in range(c)]
    chase += [FD(f"C{i}", ("B",), ("C",))
              for i in sorted(rng.sample(range(c), c // 2))]
    chase_targets = []
    for k in range(ENGINE_CHASE_TARGETS):
        hops = 1 + k % (c // 2)  # the same spread of distances every seed
        s = rng.randrange(c - hops)
        t = s + hops
        if k % 2:
            chase_targets.append(str(IND(f"C{s}", ("A",), f"C{t}", ("A",))))
        else:
            chase_targets.append(str(FD(f"C{s}", ("A",), ("C",))))
    bundles["chase"] = (
        bundle_to_json(chase_schema, chase, indent=None), chase_targets
    )
    return bundles
