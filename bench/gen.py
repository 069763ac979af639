"""Seeded project generators and the oracles that check essencekit's answers.

Every workload is built from ``random.Random(f"{workload}:{seed}")`` as a
plain JSON document in the canonical layout ``save_project`` writes, so a
save of the loaded file must give the same bytes back. The answers the
benchmark checks come from the generator's own bookkeeping (which record
it wrote last, which suffixes it grew, which groups it merged), never from
the code under test. The only input taken from the package is the builtin
kernel's state table, exported as a document.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

ASPECTS = ("Function", "Product", "Location")
PREFIX = {"Function": "=", "Product": "-", "Location": "+"}
REQUIRED_TYPES = ("ComponentConnector", "ModuleInterface", "Allocation")
STRUCTURE_TYPES = REQUIRED_TYPES + ("Other",)
DESCRIPTION_KINDS = ("Practice", "Process", "Team", "Other")
HEAVY_ALPHAS = ("System Definition", "System Realization")
# Distinct reads and updates per workload: enough that their medians do not
# hinge on where a few ids happen to sit in lists and hash-ordered sets.
OPS = 240
DESIGNATIONS = 48  # designations the trees workload checks

# Evidence is strict where it matters, on the records workload, and off on
# the others. A per-seed draw would make a run's cost depend on the seed.
STRICT = {"records": True, "trees": False, "model": False}

# Sizes at scale 1.0; the self-test runs the same code at a small scale.
SIZES = {
    "records": {"heavy": 64, "light": 336, "light_recorded": 312,
                "drop": 0.04, "work_products": 50, "tree_nodes": 12,
                "elements": 8},
    "trees": {"heavy": 4, "light": 16, "light_recorded": 16, "drop": 0.2,
              "work_products": 8, "tree_nodes": 10_000, "elements": 12},
    "model": {"heavy": 1, "light": 9, "light_recorded": 9, "drop": 0.5,
              "work_products": 4, "tree_nodes": 12, "elements": 2_500},
}


@dataclass
class Spec:
    """One generated workload: the document plus everything the oracles know."""

    workload: str
    seed: int
    doc: dict
    kernel: dict  # alpha name -> [(state, [checkpoint ids], {cp: text})]
    instances: dict[str, str] = field(default_factory=dict)  # id -> alpha
    levels: dict[str, str] = field(default_factory=dict)
    work_products: list[str] = field(default_factory=list)
    # Operations the loop cycles through; built from the same rng.
    record_ops: list[dict] = field(default_factory=list)
    state_queries: list[tuple[str, str]] = field(default_factory=list)
    designations: list[str] = field(default_factory=list)
    suffix_counts: dict[tuple[str, tuple[str, ...]], int] = field(
        default_factory=dict)
    arch_queries: list[list[str]] = field(default_factory=list)
    class_queries: list[str] = field(default_factory=list)
    model_ops: list[tuple] = field(default_factory=list)
    groups: dict[str, frozenset[str]] = field(default_factory=dict)
    bound: dict[str, str] = field(default_factory=dict)
    view_types: dict[str, str] = field(default_factory=dict)
    extended: set[str] = field(default_factory=set)
    stats: dict = field(default_factory=dict)

    def dumps(self) -> bytes:
        return dumps(self.doc)


def dumps(doc: dict) -> bytes:
    """The canonical project encoding: two-space indent, UTF-8, final newline."""
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def kernel_table(kernel_doc: dict) -> dict:
    return {
        alpha["name"]: [
            (state["name"], [cp["id"] for cp in state["checkpoints"]],
             {cp["id"]: cp["text"] for cp in state["checkpoints"]})
            for state in alpha["states"]
        ]
        for alpha in kernel_doc["alphas"]
    }


def generate(workload: str, seed: int, kernel_doc: dict,
             scale: float = 1.0) -> Spec:
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    size = {k: (v if isinstance(v, float) else max(min(v, 10), round(v * scale)))
            for k, v in SIZES[workload].items()}
    size["light_recorded"] = min(size["light_recorded"], size["light"])
    spec = Spec(workload=workload, seed=seed, doc={},
                kernel=kernel_table(kernel_doc))
    assessment = _assessment(rng, spec, size, kernel_doc)
    trees = _trees(rng, spec, size["tree_nodes"])
    description = _description(rng, spec, size["elements"])
    spec.doc = {
        "format-version": 1,
        "project-id": f"bench-{workload}-{seed}",
        "kernel": "builtin",
        "assessment": assessment,
        "trees": trees,
        "description": description,
    }
    _record_ops(rng, spec)
    if workload == "trees":
        _designations(rng, spec)
    else:
        # Small designation set so every workload exercises the same code.
        _designations(rng, spec, count=8)
    _model_queries(rng, spec)
    return spec


# Assessment


def _assessment(rng: random.Random, spec: Spec, size: dict,
                kernel_doc: dict) -> dict:
    light_alphas = [a for a in spec.kernel if a not in HEAVY_ALPHAS]
    # The heavy instances sit evenly spaced in the instance list, so the
    # cost of finding their records' instance is the same for every seed.
    count = size["heavy"] + size["light"]
    heavy_at = {int((j + 0.5) * count / size["heavy"])
                for j in range(size["heavy"])}
    alphas = []
    for i in range(count):
        if i in heavy_at:
            alphas.append(HEAVY_ALPHAS[len(alphas) % 2])
        else:
            alphas.append(rng.choice(light_alphas))
    instances = []
    for i, alpha in enumerate(alphas):
        inst_id = f"ai-{i:04d}"
        level = "UsingSystem" if rng.random() < 0.2 else "SystemOfInterest"
        spec.instances[inst_id] = alpha
        spec.levels[inst_id] = level
        instances.append({"id": inst_id, "alpha": alpha, "system-level": level})
    wp_defs = [wp["name"] for wp in kernel_doc.get("workproducts", [])]
    work_products = []
    for i in range(size["work_products"]):
        item = {"id": f"wp-{i:03d}", "definition": rng.choice(wp_defs),
                "label": rng.choice(("", "report", "as-built model", "plan"))}
        if rng.random() < 0.4:
            segments = "".join("=" + rng.choice(("F1", "A1", "12", "N4"))
                               for _ in range(rng.randint(1, 3)))
            item["document-designation"] = (
                f"{segments}&{rng.choice('AM')}{rng.choice(('CA', 'BB', 'DC'))}")
        work_products.append(item)
        spec.work_products.append(item["id"])

    keys: list[tuple[str, str, str, bool]] = []
    light_ids = [i for i, a in spec.instances.items() if a not in HEAVY_ALPHAS]
    recorded_light = set(rng.sample(light_ids, size["light_recorded"]))
    for inst_id, alpha in spec.instances.items():
        states = spec.kernel[alpha]
        if alpha not in HEAVY_ALPHAS:
            if inst_id in recorded_light:
                state, cps, _ = states[0]
                keys.append((inst_id, state, cps[0], rng.random() < 0.7))
            continue
        # A satisfied leading run of states with a few holes, then a
        # scattering, so achieved states spread over the whole table. An
        # exact share of checkpoints stays unrecorded, so every seed gives
        # the same number of records.
        depth = rng.randrange(len(states) + 1)
        own = [(i, state, cp) for i, (state, cps, _) in enumerate(states)
               for cp in cps]
        dropped = set(rng.sample(range(len(own)), round(len(own) * size["drop"])))
        for j, (i, state, cp) in enumerate(own):
            if j not in dropped:
                satisfied = rng.random() < (0.97 if i < depth else 0.5)
                keys.append((inst_id, state, cp, satisfied))
    rng.shuffle(keys)
    records = []
    clock = 1_700_000_000
    for inst_id, state, cp, satisfied in keys:
        clock += rng.randrange(1, 600)
        evidence = []
        if rng.random() < 0.6:
            evidence = rng.sample(spec.work_products, rng.randint(1, 2))
        records.append({"alpha-instance": inst_id, "state": state,
                        "checkpoint": cp, "satisfied": satisfied,
                        "evidence": evidence, "recorded-at": clock})
    return {"strict-evidence": STRICT[spec.workload], "instances": instances,
            "work-products": work_products, "records": records}


def _record_ops(rng: random.Random, spec: Spec, count: int = OPS) -> None:
    """Checkpoint records to apply: half supersede a record, half are new."""
    records = spec.doc["assessment"]["records"]
    recorded = {(r["alpha-instance"], r["state"], r["checkpoint"])
                for r in records}
    free = [(inst, state, cp)
            for inst, alpha in spec.instances.items()
            for state, cps, _ in spec.kernel[alpha] for cp in cps
            if (inst, state, cp) not in recorded]
    for i in range(count):
        if i % 2 == 0 or not free:
            old = rng.choice(records)
            key = (old["alpha-instance"], old["state"], old["checkpoint"])
            satisfied = not old["satisfied"]
        else:
            key = rng.choice(free)
            satisfied = rng.random() < 0.8
        evidence = (rng.sample(spec.work_products, 1)
                    if rng.random() < 0.5 else [])
        spec.record_ops.append({
            "alpha-instance": key[0], "state": key[1], "checkpoint": key[2],
            "satisfied": satisfied, "evidence": evidence,
            "recorded-at": 1_800_000_000 + i})
    heavy = [i for i, a in spec.instances.items() if a in HEAVY_ALPHAS]
    light = [i for i, a in spec.instances.items() if a not in HEAVY_ALPHAS]
    for i in range(count):
        inst = rng.choice(heavy if i % 4 != 3 else light)
        target = rng.choice(spec.kernel[spec.instances[inst]])[0]
        spec.state_queries.append((inst, target))


def apply_record(records: list[dict], op: dict) -> list[dict]:
    """Oracle for recording: supersede the record with op's key, else append."""
    key = (op["alpha-instance"], op["state"], op["checkpoint"])
    out = [dict(r) for r in records]
    for i, r in enumerate(out):
        if (r["alpha-instance"], r["state"], r["checkpoint"]) == key:
            out[i] = dict(op)
            return out
    out.append(dict(op))
    return out


class StateOracle:
    """Achieved states from a last-wins fold and a brute-force prefix test."""

    def __init__(self, spec: Spec, records: list[dict], strict: bool):
        self.spec = spec
        last: dict[tuple[str, str, str], dict] = {}
        for rec in records:
            last[(rec["alpha-instance"], rec["state"], rec["checkpoint"])] = rec
        self.satisfied = {
            key for key, rec in last.items()
            if rec["satisfied"] and (not strict or rec["evidence"])
        }

    def done(self, inst: str) -> list[tuple[str, int, int]]:
        return [
            (state, sum((inst, state, cp) in self.satisfied for cp in cps),
             len(cps))
            for state, cps, _ in self.spec.kernel[self.spec.instances[inst]]
        ]

    def achieved_index(self, inst: str) -> int:
        best = -1
        done = self.done(inst)
        for i in range(len(done)):
            if all(d == t for _, d, t in done[: i + 1]):
                best = i
        return best

    def state(self, inst: str) -> tuple[str | None, str | None, int]:
        """(achieved, next, number of blockers in the next state)."""
        states = self.spec.kernel[self.spec.instances[inst]]
        idx = self.achieved_index(inst)
        achieved = states[idx][0] if idx >= 0 else None
        if idx + 1 < len(states):
            state, cps, _ = states[idx + 1]
            blockers = sum((inst, state, cp) not in self.satisfied for cp in cps)
            return achieved, state, blockers
        return achieved, None, 0

    def blockers(self, inst: str, target: str) -> list[tuple[str, str]]:
        out = []
        for state, cps, _ in self.spec.kernel[self.spec.instances[inst]]:
            out.extend((state, cp) for cp in cps
                       if (inst, state, cp) not in self.satisfied)
            if state == target:
                break
        return out


# Breakdown trees


def _segment_pool(rng: random.Random, count: int) -> list[str]:
    alphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ"
    pool: set[str] = set()
    while len(pool) < count:
        pool.add(rng.choice(alphabet) + str(rng.randrange(1, 100))
                 if rng.random() < 0.7 else str(rng.randrange(1, 100)))
    return sorted(pool)


def _trees(rng: random.Random, spec: Spec, nodes_per_tree: int,
           max_depth: int = 12, pool_size: int = 40) -> dict:
    pool = _segment_pool(rng, pool_size)
    trees = {}
    counts: dict[tuple[str, tuple[str, ...]], int] = {}
    total = 0
    deepest = 0
    for aspect in ASPECTS:
        # Flat node table: parent index, depth, segment, child indices.
        roots: list[int] = []
        parent: list[int] = []
        depth: list[int] = []
        segment: list[str] = []
        children: list[list[int]] = []
        open_nodes: list[int] = []
        while len(segment) < nodes_per_tree:
            if not open_nodes or rng.random() < 0.002:
                siblings, up, d = roots, -1, 1
            else:
                up = rng.choice(open_nodes)
                siblings, d = children[up], depth[up] + 1
            taken = {segment[i] for i in siblings}
            free = [s for s in pool if s not in taken]
            if not free:
                if up >= 0:
                    open_nodes.remove(up)
                continue
            idx = len(segment)
            parent.append(up)
            depth.append(d)
            segment.append(rng.choice(free))
            children.append([])
            siblings.append(idx)
            if d < max_depth:
                open_nodes.append(idx)
        paths: list[tuple[str, ...]] = []
        for i in range(len(segment)):
            path = (paths[parent[i]] if parent[i] >= 0 else ()) + (segment[i],)
            paths.append(path)
            for take in range(1, len(path) + 1):
                key = (aspect, path[-take:])
                counts[key] = counts.get(key, 0) + 1
        spec.stats.setdefault("paths", {})[aspect] = paths
        total += len(segment)
        deepest = max(deepest, max(depth))

        def node_doc(i: int) -> dict:
            doc: dict = {"segment": segment[i]}
            if children[i]:
                doc["children"] = [node_doc(c) for c in children[i]]
            return doc

        trees[aspect] = [node_doc(r) for r in roots]
    spec.suffix_counts = counts
    spec.stats["tree_nodes"] = total
    spec.stats["max_depth"] = deepest
    return trees


def chain_text(aspect: str, segments: tuple[str, ...]) -> str:
    return "".join(PREFIX[aspect] + s for s in segments)


def _designations(rng: random.Random, spec: Spec,
                  count: int = DESIGNATIONS) -> None:
    """Full paths, short suffixes and absent chains, alone and combined."""
    paths = spec.stats["paths"]

    def chain(kind: str, aspect: str) -> str:
        path = rng.choice(paths[aspect])
        if kind == "full":
            return chain_text(aspect, path)
        if kind == "suffix":
            return chain_text(aspect, path[-rng.randint(1, min(2, len(path))):])
        return chain_text(aspect, path[-rng.randint(1, 2):] + ("ZZ0",))

    # Widths and kinds follow a fixed pattern, so every seed asks for the
    # same number of chains of each kind.
    kinds = ("full", "suffix", "absent")
    for i in range(count):
        width = 1 + i % 3
        aspects = rng.sample(ASPECTS, width)
        spec.designations.append(" / ".join(
            chain(kinds[(i + j) % 3] if width > 1 else kinds[i // 3 % 3], a)
            for j, a in enumerate(aspects)))


def parse_chains(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Split a generated designation back into (aspect, segments) chains."""
    by_prefix = {p: a for a, p in PREFIX.items()}
    out = []
    for part in text.split(" / "):
        prefix = part[0]
        out.append((by_prefix[prefix], tuple(part[1:].split(prefix))))
    return out


def match_count(spec: Spec, aspect: str, segments: tuple[str, ...]) -> int:
    return spec.suffix_counts.get((aspect, segments), 0)


# Description model


def _description(rng: random.Random, spec: Spec, n_elements: int) -> dict:
    small = n_elements < 100
    n_viewpoints = 20 if not small else 8
    viewpoints = []
    for i in range(n_viewpoints):
        viewpoints.append({
            "name": f"vp-{i:02d}",
            "structure-type": STRUCTURE_TYPES[i % 4],
            "concerns": rng.sample(("cost", "safety", "fit", "schedule"),
                                   rng.randrange(3)),
            "description-kind": DESCRIPTION_KINDS[(i // 4 + i) % 4],
        })
    ids = [f"el-{i:04d}" for i in range(n_elements)]
    n_extended = round(n_elements * 0.7)
    extended = set(rng.sample(ids, n_extended))
    spec.extended = extended
    elements = [{"id": e, "label": f"element {e[3:]}", "has-extent": e in extended}
                for e in ids]
    n_views = 100 if not small else 4
    views = []
    for i in range(n_views):
        vp = viewpoints[i % n_viewpoints] if i < n_viewpoints else (
            rng.choice(viewpoints))
        view = {"name": f"view-{i:03d}", "viewpoint": vp["name"],
                "elements": rng.sample(ids, min(len(ids), rng.randint(10, 40)))}
        views.append(view)
        spec.view_types[view["name"]] = vp["structure-type"]
    n_nodes = 600 if not small else 4
    nodes = []
    for i in range(n_nodes):
        designators = {}
        for aspect in ASPECTS:
            if rng.random() < 0.6 or (aspect == "Location" and not designators):
                designators[aspect] = chain_text(aspect, tuple(
                    rng.choice(("F1", "12", "N4", "DN18", "M13", "A1", "B2"))
                    for _ in range(rng.randint(1, 4))))
        nodes.append({"id": f"rn-{i:03d}", "designators": designators})
    node_ids = [n["id"] for n in nodes]

    # Coextension classes of 2-6 members over 85 % of the extended elements.
    pool = sorted(extended)
    rng.shuffle(pool)
    pool = pool[: round(len(pool) * 0.85)]
    # Sizes cycle through 2..6 before shuffling, so every seed makes the
    # same number of classes.
    sizes = []
    while sum(sizes) < len(pool):
        sizes.append(2 + len(sizes) % 5)
    sizes[-1] -= sum(sizes) - len(pool)
    if sizes[-1] < 2:
        short = sizes.pop()
        sizes[-1] += short
    rng.shuffle(sizes)
    classes = []
    for take in sizes:
        classes.append(frozenset(pool[:take]))
        pool = pool[take:]
    spec.groups = {e: frozenset({e}) for e in extended}
    for cls in classes:
        for member in cls:
            spec.groups[member] = cls
    bound: dict[str, str] = {}
    for cls in rng.sample(classes, round(len(classes) * 0.8)):
        node = rng.choice(node_ids)
        for member in cls:
            bound[member] = node
    singles = [e for e in sorted(extended) if len(spec.groups[e]) == 1]
    for e in rng.sample(singles, len(singles) // 3):
        bound[e] = rng.choice(node_ids)
    spec.bound = bound
    spec.stats.update(elements=n_elements, classes=len(classes),
                      bindings=len(bound), views=n_views,
                      realization_nodes=n_nodes)
    return {
        "viewpoints": viewpoints,
        "views": views,
        "elements": elements,
        "realization-nodes": nodes,
        "coextension": sorted(sorted(cls) for cls in classes),
        "bindings": [[e, bound[e]] for e in sorted(bound)],
    }


def _model_queries(rng: random.Random, spec: Spec, count: int = OPS) -> None:
    by_type: dict[str, list[str]] = {}
    for view, kind in spec.view_types.items():
        by_type.setdefault(kind, []).append(view)
    for i in range(count):
        if i % 2 == 0:
            # Passing: one view of every required type plus a few others.
            names = [rng.choice(by_type[t]) for t in REQUIRED_TYPES]
            names += rng.sample(sorted(spec.view_types), 2)
        else:
            # Failing: leave out at least one required type.
            keep = rng.sample(REQUIRED_TYPES, i // 2 % 3) + ["Other"]
            names = [rng.choice(by_type[t]) for t in keep for _ in range(2)]
        rng.shuffle(names)
        spec.arch_queries.append(names)
    extended = sorted(spec.extended)
    spec.class_queries = [rng.choice(extended) for _ in range(count)]
    node_ids = [n["id"] for n in spec.doc["description"]["realization-nodes"]]
    for i in range(count):
        if i % 2 == 0:
            a, b = rng.sample(extended, 2)
            na, nb = spec.bound.get(a), spec.bound.get(b)
            while na is not None and nb is not None and na != nb:
                a, b = rng.sample(extended, 2)
                na, nb = spec.bound.get(a), spec.bound.get(b)
            spec.model_ops.append(("coextend", a, b))
        else:
            e = rng.choice(extended)
            node = spec.bound.get(e) or rng.choice(node_ids)
            spec.model_ops.append(("bind", e, node))


def arch_expect(spec: Spec, names: list[str]) -> tuple[list[str], list[str]]:
    present = {spec.view_types[n] for n in names}
    return ([t for t in REQUIRED_TYPES if t in present],
            [t for t in REQUIRED_TYPES if t not in present])


def model_op_expect(spec: Spec, op: tuple) -> tuple[frozenset[str], str | None]:
    """Class of op's first element after the op, and the node it is bound to."""
    kind, a, b = op
    if kind == "coextend":
        cls = spec.groups[a] | spec.groups[b]
        return cls, spec.bound.get(a) or spec.bound.get(b)
    return spec.groups[a], b
