"""Named verification checks, suite registry, and report assembly.

Each check computes its claim from scratch against the loop in the
context (no frozen constants) and returns ``(ok, witness)``; the context
only caches shared expensive artifacts (multiplication-group bundle, subloop
lattice, distinguished subloops, Z(M), M' and Phi(M) as read-only masks over
M's element order, fixpoint results as the lattice's own members), each built
once per loop, so a full-suite run stays within desk-scale budgets and
``mloop invariants`` reads the same values.
Reports are deterministic for a fixed loop and seed: checks run in
registration order and all witnesses are built from sorted data.
"""

import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List

import numpy as np

from . import mult_group as mg
from . import perm_group as pg
from . import structure as st
from .errors import ChainStalled, OrderOverflow
from .loop_core import _first_index
from .normalizer import normalizer as _run_fixpoint
from .perm_rows import blocks, row_keys, row_set
from .reporting import CheckResult, verdict

ARTIFACT_VERSION = "0.1.0"
PROP3_SAMPLE_COUNT = 200
GROUP_CHAIN_SAMPLES = 20


class LoopContext:
    """Per-loop artifacts, each built on first use and then cached."""

    def __init__(self, loop, seed=0, lattice_guard=st.LATTICE_GUARD_DEFAULT):
        self.loop = loop
        self.seed = int(seed)
        self.lattice_guard = lattice_guard
        self._fixpoints: Dict[bytes, st.Subloop] = {}

    @cached_property
    def lattice(self):
        return st.all_subloops(self.loop, lattice_guard=self.lattice_guard)

    @cached_property
    def by_members(self):
        return {s.key: s for s in self.lattice}

    @cached_property
    def whole(self):
        return st.full_subloop(self.loop)

    @cached_property
    def center(self):
        return st.center(self.loop)

    @cached_property
    def derived(self):
        return st.associator_subloop(self.loop)

    @cached_property
    def cubes(self):
        return st.cube_subloop(self.loop)

    @cached_property
    def series(self):
        return st.upper_central_series(self.loop)

    @cached_property
    def maximals(self):
        return st._maximal_over(self.loop, self.derived)

    @cached_property
    def frattini(self):
        return st._frattini_over(self.loop, self.derived)

    @cached_property
    def bundle(self):
        return mg.multiplication_group(self.loop)

    @cached_property
    def m_center(self):
        return pg._center(self.bundle.M)

    @cached_property
    def m_derived(self):
        return pg._derived(self.bundle.M)[0]

    @cached_property
    def m_frattini(self):
        return pg._frattini(self.bundle.M)

    def fixpoint_result(self, subloop):
        """The lattice member that the P/D fixpoint of ``subloop`` in L returns."""
        key = subloop.key
        if key not in self._fixpoints:
            result = _run_fixpoint(self.loop, self.whole, subloop).result
            if result.key not in self.by_members:
                raise AssertionError(f"fixpoint result {result.serialize()} is not in the lattice")
            self._fixpoints[key] = self.by_members[result.key]
        return self._fixpoints[key]


# -- identity checks ---------------------------------------------------------


def _check_inner_mapping_identity(ctx):
    bad = ctx.loop.inner_identity_violation()
    return bad is None, None if bad is None else {"xyz": list(bad)}


def _check_associator_symmetries(ctx):
    # Read on coset triples, exact by the coset lemma of the loop_core module docstring.
    loop = ctx.loop
    assoc = loop.associator_table()
    reps, proj = loop.central_cosets()
    inv = loop.inverse_array()
    cyc = np.transpose(assoc, (1, 2, 0))  # (a,b,c) -> assoc[b,c,a]
    swapped = np.transpose(assoc, (1, 0, 2))  # (a,b,c) -> assoc[b,a,c]
    inv_first = np.transpose(assoc[proj[inv[reps]]], (1, 0, 2))  # (a,b,c) -> assoc[inv(b),a,c]
    laws = [
        ("cyclic", assoc != cyc),
        ("swap_inverts", assoc != inv[swapped]),
        ("inverse_argument", assoc != inv_first),
    ]
    failures = {}
    for label, bad in laws:
        if bad.any():
            failures[label] = [int(reps[i]) for i in _first_index(bad)]
    return not failures, failures or None


def _check_product_expansion(ctx):
    # Exact: (u, v) enters every term only through the column A[:, u, v], so equal columns
    # agree; A_q's column (b, c) stands for the |Z|^2 pairs (u, v) over b x c, least (r_b, r_c).
    # x and y run over reps by the coset lemma of the loop_core module docstring.
    loop = ctx.loop
    t = loop.table
    assoc = loop.associator_table()
    reps, proj = loop.central_cosets()
    n, m = loop.n, len(reps)
    cols = assoc.reshape(m, m * m).T  # row b*m + c is the column A_q[:, b, c]
    classes = {}  # column bytes -> [least b*m + c, multiplicity]
    for rows in blocks(m * m, m):
        for k, key in enumerate(row_keys(cols[rows]), rows.start):
            classes.setdefault(key, [k, 0])[1] += 1
    px, py = np.arange(m)[:, None], np.arange(m)[None, :]
    pxy = proj[t[np.ix_(reps, reps)]]  # the coset of r_a r_b
    violations, first = 0, None
    for k, count in classes.values():
        col = cols[k]  # (x, u, v) at x's coset
        a, c = col[px], col[py]  # (x, u, v) and (y, u, v)
        bad = col[pxy] != t[t[a, assoc[proj[a], px, py]], t[c, assoc[proj[c], py, px]]]
        if bad.any():
            violations += count * (n // m) ** 4 * int(bad.sum())
            found = tuple(int(r) for r in reps[list(_first_index(bad) + divmod(k, m))])
            first = found if first is None else min(first, found)
    ok = violations == 0
    return ok, None if ok else {"violations": violations, "first_xyuv": list(first)}


# -- structural bridge checks ------------------------------------------------


def _check_lemma1(ctx):
    return mg.verify_lemma1(ctx.bundle, ctx.derived)


def _check_lemma2(ctx):
    bad = (~ctx.center.mask()[st._powers(ctx.loop, 3)]).nonzero()[0]
    first = int(bad[0]) if bad.size else None
    ok = first is None and ctx.cubes <= ctx.center
    return ok, None if ok else {"element": first, "cube_order": ctx.cubes.size}


def _check_lemma4(ctx):
    loop_ok = ctx.derived <= ctx.frattini
    group_ok = not (ctx.m_derived & ~ctx.m_frattini).any()
    witness = {
        "derived_order": ctx.derived.size,
        "frattini_order": ctx.frattini.size,
        "m_derived_order": int(ctx.m_derived.sum()),
        "m_frattini_order": int(ctx.m_frattini.sum()),
    }
    return verdict(witness, loop_ok=loop_ok, group_ok=group_ok)


def _check_lemma6(ctx):
    loop_side = ctx.frattini.is_full
    group_side = bool(ctx.m_frattini.all())
    witness = {"loop_frattini_is_whole": loop_side, "group_frattini_is_whole": group_side}
    return loop_side == group_side, witness


def _check_lemma7(ctx):
    return mg.verify_lemma7(ctx.bundle, ctx.derived)


def _check_prop1(ctx):
    return mg.verify_prop1(ctx.bundle, ctx.center)


def _check_prop3(ctx):
    lattice = ctx.lattice
    found = _containments(lattice)
    picks = range(len(found))
    if len(picks) > PROP3_SAMPLE_COUNT:
        picks = random.Random(ctx.seed).sample(picks, PROP3_SAMPLE_COUNT)
    pairs = sorted(((lattice[h], lattice[k]) for h, k in found[list(picks)].tolist()),
                   key=lambda pair: (pair[0].members, pair[1].members))
    checked = failures = 0
    first = None
    for (h, k), normal in zip(pairs, _normal_in(ctx.loop, pairs)):
        if not normal:
            continue
        checked += 1
        result = ctx.fixpoint_result(h)
        if not k <= result:
            failures += 1
            if first is None:
                first = {"h": list(h.members), "k_prime": list(k.members),
                         "fixpoint_result": list(result.members)}
    ok = failures == 0
    witness = {"pairs_checked": checked, "failures": failures}
    if first is not None:
        witness["first_failure"] = first
    return ok, witness


def _normal_in(loop, pairs):
    """``st.is_normal(loop, h, k)`` for each pair (H, K), H <= K, off one normality matrix C
    over the distinct H: H is normal in K iff C[h][c, c'] for all cosets c, c' of Z(L) meeting K."""
    if not pairs:
        return []
    rows = {h: i for i, h in enumerate(dict.fromkeys(h for h, _ in pairs))}
    c = st._normality_matrix(loop, np.array([h.mask() for h in rows]), None)[3]
    return [bool(c[rows[h]][np.ix_(k._coset_index()[0], k._coset_index()[0])].all()) for h, k in pairs]


def _containments(lattice):
    """Every pair (H, K) of lattice indices with H <= K and H proper, as (pairs, 2) rows in
    (H, K) order.  The lattice is sorted by order and ends with the whole loop, so
    only the members from H's order on can hold H: per row block of H, ``st._inside``
    tests those in tiles of at most GATHER_BLOCK pairs, re-sorted by H, kept as int32."""
    masks = np.array([s.mask() for s in lattice])
    sizes = np.array([s.size for s in lattice])
    found, proper = [np.zeros((0, 2), dtype=np.int32)], masks[:-1]
    for b in blocks(len(proper), masks.shape[1]):
        first, rows = int(np.searchsorted(sizes, sizes[b.start])), proper[b]
        tiles = np.concatenate([np.argwhere(st._inside(rows, masks[first:][c])).astype(np.int32)
                                + np.int32([b.start, first + c.start])
                                for c in blocks(len(masks) - first, len(rows))])
        found.append(tiles[np.argsort(tiles[:, 0], kind="stable")])
    return np.concatenate(found)


def _check_prop4(ctx):
    cls = ctx.series.nilpotency_class
    loop_max = 0
    for h in ctx.lattice:
        steps = 0
        current = h
        while not current.is_full:
            current, last = ctx.fixpoint_result(current), current
            if current is last:
                raise ChainStalled(f"normalizer chain stalled at subloop {last.serialize()}")
            steps += 1
        loop_max = max(loop_max, steps)
    group_bound = max(0, 2 * cls - 1)
    chains = _group_chains(ctx.bundle.M, group_bound + 3)
    group_max = max((len(chain) - 1 for chain in chains), default=0)
    ok = loop_max <= cls and group_max <= group_bound
    witness = {
        "nilpotency_class": cls,
        "loop_chain_max_steps": loop_max,
        "group_chain_max_steps": group_max,
        "group_chains_sampled": len(chains),
    }
    return ok, witness


def _group_chains(m, limit):
    """Normalizer chains H, N(H), N(N(H)), ... as masks over m's element index,
    from the first GROUP_CHAIN_SAMPLES distinct cyclic subgroups in element
    order; each chain stops at m or after ``limit`` steps."""
    chains = {}
    for h in _cyclic_subgroups(m):
        if len(chains) == GROUP_CHAIN_SAMPLES:
            break
        chains.setdefault(h.tobytes(), [h])
    for chain in chains.values():
        while not chain[-1].all() and len(chain) <= limit:
            chain.append(pg._normalizer_mask(m, chain[-1]))
    return list(chains.values())


def _cyclic_subgroups(m):
    """The masks of <e_i> for i = 1, 2, ... in m's element order: e_i's powers walked
    down m's chain until the identity, in row blocks of at most GATHER_BLOCK entries."""
    order, base = m.order(), np.array(m.base, dtype=np.intp)
    for b in blocks(order - 1, order):
        at = np.arange(1, order)[b]
        masks, live, images = np.zeros((len(at), order), dtype=bool), np.arange(len(at)), base
        while len(live):
            images = pg._walk(m, at[live], np.broadcast_to(images, (len(live), len(base))))
            power = m._index(images)
            masks[live, power] = True
            live, images = live[power != 0], images[power != 0]
        yield from masks


def _check_theorem2(ctx):
    sizes = []
    first = None
    for h in ctx.lattice:
        if h.is_full:
            continue
        result = ctx.fixpoint_result(h)
        sizes.append({"h": h.serialize(), "normalizer_order": result.size})
        if result == h and first is None:
            first = h.serialize()
    witness = {"proper_subloops": len(sizes), "normalizer_sizes": sizes}
    if first is not None:
        witness["self_normalizing"] = first
    return first is None, witness


def _check_frattini(ctx):
    loop = ctx.loop
    lattice_maximals = st._maximal_members(ctx.lattice)
    maximals_ok = set(ctx.maximals) == set(lattice_maximals)
    frattini_ok = ctx.frattini == st._meet(loop, lattice_maximals)

    # exact: x is a non-generator iff no lattice maximum M has <M, x> = L
    first_bad = next((x for x in range(loop.n) if (x in ctx.frattini)
                      != (st.non_generator_witness(loop, x, lattice_maximals) is None)), None)
    non_gen_ok = first_bad is None

    group_note = "skipped"
    group_ok = True
    m = ctx.bundle.M
    if m.order() <= pg.FRATTINI_ORACLE_GUARD:
        oracle = pg.frattini_subgroup_oracle(m).element_keys()
        group_ok = oracle == row_set(m.element_array()[ctx.m_frattini])
        group_note = int(ctx.m_frattini.sum())

    witness = {
        "frattini_order": ctx.frattini.size,
        "maximal_count": len(ctx.maximals),
        "group_frattini_order": group_note,
    }
    ok, witness = verdict(witness, maximals_ok=maximals_ok, frattini_ok=frattini_ok,
                          non_generator_ok=non_gen_ok, group_ok=group_ok)
    if first_bad is not None:
        witness["element"] = first_bad
    return ok, witness


def _check_divisible(ctx):
    loop = ctx.loop
    loop_div = st.is_divisible(loop)
    m = ctx.bundle.M
    group_div = pg.is_divisible_group(m)
    loop_ok = loop_div == (loop.n == 1)
    group_ok = group_div == (m.order() == 1)
    witness = {
        "loop_divisible": loop_div,
        "group_divisible": group_div,
        "divisible_part_order": 1,
        "complement_order": m.order(),
    }
    return verdict(witness, loop_ok=loop_ok, group_ok=group_ok)


# -- registry ----------------------------------------------------------------

CHECK_REGISTRY = (
    ("inner_mapping_identity", "identities", _check_inner_mapping_identity),
    ("associator_symmetries", "identities", _check_associator_symmetries),
    ("product_associator_expansion", "identities", _check_product_expansion),
    ("lemma1_quotient_action", "lemma1", _check_lemma1),
    ("lemma2_cubes_central", "lemma2", _check_lemma2),
    ("lemma4_frattini_containments", "lemma4", _check_lemma4),
    ("lemma6_frattini_biconditional", "lemma6", _check_lemma6),
    ("lemma7_derived_four_way", "lemma7", _check_lemma7),
    ("prop1_center_correspondence", "prop1", _check_prop1),
    ("prop3_normalizer_containments", "prop3", _check_prop3),
    ("prop4_chain_bounds", "prop4", _check_prop4),
    ("theorem2_normalizer_condition", "theorem2", _check_theorem2),
    ("frattini_agreement", "frattini", _check_frattini),
    ("divisible_degeneracy", "divisible", _check_divisible),
)

SUITE_NAMES = tuple(dict.fromkeys(suite for _, suite, _ in CHECK_REGISTRY)) + ("all",)

_LATTICE_SUITES = {"prop3", "prop4", "theorem2", "frattini"}


@dataclass
class VerdictReport:
    artifact_version: str
    loop_name: str
    loop_order: int
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self):
        return all(c.status == "pass" for c in self.checks)

    def as_dict(self):
        return {
            "artifact_version": self.artifact_version,
            "loop": {"name": self.loop_name, "order": self.loop_order},
            "checks": [c.as_dict() for c in self.checks],
        }


def run_suite(loop, suite, seed=0, lattice_guard=st.LATTICE_GUARD_DEFAULT):
    """Run the named suite (or "all") and assemble the report."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    selected = [
        entry for entry in CHECK_REGISTRY if suite in ("all", entry[1])
    ]
    needs_lattice = any(entry[1] in _LATTICE_SUITES for entry in selected)
    if needs_lattice and loop.n > lattice_guard:
        raise OrderOverflow("lattice", lattice_guard, loop.n)
    ctx = LoopContext(loop, seed=seed, lattice_guard=lattice_guard)
    report = VerdictReport(
        artifact_version=ARTIFACT_VERSION,
        loop_name=loop.name,
        loop_order=loop.n,
    )
    for name, _, fn in selected:
        start = time.perf_counter()
        ok, witness = fn(ctx)
        millis = int((time.perf_counter() - start) * 1000)
        report.checks.append(CheckResult(name, "pass" if ok else "fail", witness, millis))
    return report
