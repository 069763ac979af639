"""Seeded random generators and independent oracles for the test suite.

Everything here takes an explicit random.Random so test runs are
reproducible. The oracles deliberately use naive algorithms (full
prefix scans, breadth-first path enumeration, fixpoint merging) so they
share as little structure as possible with the implementations they
check.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from essencekit import (
    AlphaDefinition,
    AlphaInstance,
    AreaOfConcern,
    Aspect,
    AspectChain,
    Assessment,
    BreakdownNode,
    BreakdownTree,
    Checkpoint,
    CheckpointRecord,
    DescriptionKind,
    DescriptionModel,
    DesignationError,
    EssenceError,
    KernelDefinition,
    MultiAspectDesignation,
    Project,
    ProjectError,
    RealizationNode,
    StateDefinition,
    StructureType,
    SystemLevel,
    View,
    ViewElement,
    Viewpoint,
    WorkProductDefinition,
    WorkProductInstance,
    add_element,
    add_instance,
    add_realization_node,
    add_view,
    add_viewpoint,
    add_work_product,
    assert_coextension,
    bind_element,
    builtin_se_kernel,
    find_alpha,
    kernel_from_doc,
    new_project,
    parse_designation,
    parse_document_designation,
    record_checkpoint,
    validate_kernel,
)
from essencekit._schema import (
    check_keys,
    enum_of,
    get,
    nested,
)
from essencekit.designation import (
    ASPECT_ORDER, MAX_TREE_DEPTH, _ASPECT_BY_PREFIX, _SEGMENT_RE, too_deep)
from essencekit.errors import ModelError
from essencekit.metamodel import AREA_NAMES

SEGMENT_POOL = ("F1", "12", "N4", "DN18", "M13", "A1", "B2", "C3")


# Assessments


def random_assessment(
    rng: random.Random, *, strict: bool = False, alpha_name: str | None = None
) -> tuple[Assessment, str]:
    """One instance over the builtin kernel with a random record history."""
    kernel = builtin_se_kernel()
    if alpha_name is None:
        alpha = rng.choice(kernel.alphas)
    else:
        alpha = find_alpha(kernel, alpha_name)
    a = Assessment(project_id="t", kernel=kernel, strict_evidence=strict)
    a = add_instance(a, AlphaInstance(id="i-1", alpha=alpha.name))
    for i in range(rng.randrange(3)):
        a = add_work_product(a, WorkProductInstance(
            id=f"wp-{i}", definition=rng.choice(kernel.workproducts).name))
    wp_ids = [wp.id for wp in a.work_products]
    # Bulk-satisfy a leading run of states (with a few holes), then
    # scatter records over the rest, so achieved depth varies widely.
    depth = rng.randrange(len(alpha.states) + 1)
    for i, state in enumerate(alpha.states):
        for cp in state.checkpoints:
            if i < depth:
                if rng.random() < 0.06:
                    continue
                satisfied = rng.random() > 0.04
            else:
                roll = rng.random()
                if roll < 0.5:
                    continue
                satisfied = roll < 0.85
            evidence = ()
            if wp_ids and rng.random() < 0.5:
                evidence = tuple(rng.sample(wp_ids, rng.randint(1, len(wp_ids))))
            a = record_checkpoint(a, CheckpointRecord(
                alpha_instance="i-1", state=state.name, checkpoint=cp.id,
                satisfied=satisfied, evidence=evidence,
                recorded_at=rng.randrange(10 ** 6)))
    # Supersede a few records so last-wins semantics gets exercised.
    for rec in rng.sample(a.records, min(len(a.records), rng.randrange(4))):
        a = record_checkpoint(a, replace(
            rec, satisfied=rng.random() < 0.5, evidence=()))
    return a, "i-1"


def effective_satisfied(a: Assessment, instance_id: str) -> set[tuple[str, str]]:
    """Oracle fold: last record per key wins; strict mode needs evidence."""
    last: dict[tuple[str, str], CheckpointRecord] = {}
    for rec in a.records:
        if rec.alpha_instance == instance_id:
            last[(rec.state, rec.checkpoint)] = rec
    return {
        key for key, rec in last.items()
        if rec.satisfied and (not a.strict_evidence or rec.evidence)
    }


def prefix_oracle(alpha: AlphaDefinition, satisfied: set[tuple[str, str]]) -> int:
    """Brute force: test every prefix of the state list independently."""
    best = -1
    for i in range(len(alpha.states)):
        complete = True
        for state in alpha.states[: i + 1]:
            for cp in state.checkpoints:
                if (state.name, cp.id) not in satisfied:
                    complete = False
        if complete:
            best = max(best, i)
    return best


# Breakdown trees


def random_tree(
    rng: random.Random, aspect: Aspect, max_nodes: int = 50
) -> BreakdownTree:
    """Random forest with a small segment pool, so suffixes repeat."""
    roots: list[dict] = []
    nodes: list[dict] = []
    for _ in range(rng.randint(1, max_nodes)):
        siblings = roots if not nodes or rng.random() < 0.25 else (
            rng.choice(nodes)["children"])
        taken = {n["segment"] for n in siblings}
        free = [s for s in SEGMENT_POOL if s not in taken]
        if not free:
            continue
        node = {"segment": rng.choice(free), "children": []}
        siblings.append(node)
        nodes.append(node)

    def build(item: dict) -> BreakdownNode:
        return BreakdownNode(
            segment=item["segment"],
            children=tuple(build(child) for child in item["children"]))

    return BreakdownTree(aspect=aspect, roots=tuple(build(r) for r in roots))


def enumerate_paths(tree: BreakdownTree) -> list[tuple[str, ...]]:
    """Oracle path listing: breadth-first with an explicit queue."""
    paths: list[tuple[str, ...]] = []
    queue: list[tuple[BreakdownNode, tuple[str, ...]]] = [
        (root, ()) for root in tree.roots]
    while queue:
        node, prefix = queue.pop(0)
        path = prefix + (node.segment,)
        paths.append(path)
        queue.extend((child, path) for child in node.children)
    return paths


def depth_first_paths(tree: BreakdownTree) -> list[tuple[str, ...]]:
    """Oracle path listing in depth-first order, with an explicit stack."""
    paths: list[tuple[str, ...]] = []
    stack: list[tuple[BreakdownNode, tuple[str, ...]]] = [
        (root, ()) for root in reversed(tree.roots)]
    while stack:
        node, prefix = stack.pop()
        path = prefix + (node.segment,)
        paths.append(path)
        stack.extend((child, path) for child in reversed(node.children))
    return paths


def suffix_count(paths: list[tuple[str, ...]], segments: tuple[str, ...]) -> int:
    return sum(1 for path in paths if path[-len(segments):] == segments)


def suffix_matches(
    paths: list[tuple[str, ...]], segments: tuple[str, ...]
) -> tuple[tuple[str, ...], ...]:
    """Reference resolve: the paths ending with segments, in list order."""
    return tuple(path for path in paths if path[-len(segments):] == segments)


def chain_tree(aspect: Aspect, depth: int) -> BreakdownTree:
    """One root-to-leaf chain of nodes N1 ... N<depth>, built bottom-up."""
    node = BreakdownNode(f"N{depth}")
    for level in range(depth - 1, 0, -1):
        node = BreakdownNode(f"N{level}", (node,))
    return BreakdownTree(aspect=aspect, roots=(node,))


def reference_trees(raw: dict) -> tuple[BreakdownTree, ...]:
    """Reference reader of a project document's "trees" map.

    It recurses once per tree level and builds every BreakdownNode, so
    the node and tree constructors check segments and siblings, and it
    reports each refusal as load_project does: shape errors at the node
    map's path, a node or tree constructor's error as SCHEMA_ERROR
    "<code>: <message>" at the tree's path.
    """
    trees = []
    for key, roots in raw.items():
        path = f"trees.{key}"
        aspect = enum_of(key, Aspect, "trees", ProjectError)
        if not isinstance(roots, list):
            raise ProjectError(
                "SCHEMA_ERROR", "tree roots must be a list", path=path)
        trees.append(nested(ProjectError, path, BreakdownTree, aspect,
                            _reference_nodes(roots, path, path)))
    return tuple(trees)


def _reference_nodes(items: list, at: str, path: str,
                     depth: int = 1) -> tuple[BreakdownNode, ...]:
    """The nodes of tree path's level depth, whose maps are at at[i]: a
    node's shape checked before its children, its segment after them."""
    nodes = []
    for i, item in enumerate(items):
        here = f"{at}[{i}]"
        if not isinstance(item, dict):
            raise ProjectError("SCHEMA_ERROR", "tree node must be a map",
                               path=here)
        check_keys(item, frozenset({"segment", "children"}), here,
                   ProjectError)
        children = get(item, "children", list, here, ProjectError, ())
        if children:
            if depth == MAX_TREE_DEPTH:
                raise too_deep(ProjectError, path)
            children = _reference_nodes(children, f"{here}.children", path,
                                        depth + 1)
        segment = get(item, "segment", str, here, ProjectError)
        nodes.append(nested(ProjectError, path, BreakdownNode, segment,
                            children))
    return tuple(nodes)


TREE_FAULTS = ("not-a-map", "unknown-key", "children-not-a-list",
               "no-segment", "segment-not-text", "lowercase-segment",
               "repeated-root", "repeated-sibling", "too-deep")


def plant_tree_fault(rng: random.Random, trees: dict) -> str:
    """Plant one fault of TREE_FAULTS in a "trees" map of node maps;
    return its kind."""
    roots = trees[rng.choice(sorted(trees))]
    # Every list of sibling maps, and every node map with its list.
    lists, maps = [roots], []
    for siblings in lists:
        for node in siblings:
            if isinstance(node, dict):
                maps.append((node, siblings))
                if isinstance(node.get("children"), list):
                    lists.append(node["children"])
    kind = rng.choice(TREE_FAULTS)
    if not maps and kind not in ("repeated-root", "too-deep"):
        kind = "repeated-root"
    node, siblings = rng.choice(maps) if maps else ({}, roots)
    if kind == "not-a-map":
        at = next(i for i, n in enumerate(siblings) if n is node)
        siblings[at] = rng.choice(
            ["A", 7, None, [], [{"segment": "A"}]])
    elif kind == "unknown-key":
        node[rng.choice(["extra", "Segment", ""])] = 1
    elif kind == "children-not-a-list":
        node["children"] = rng.choice([{}, "A", 0, None, {"segment": "A"}])
    elif kind == "no-segment":
        node.pop("segment", None)
    elif kind == "segment-not-text":
        node["segment"] = rng.choice([7, None, ["A"], True, {}])
    elif kind == "lowercase-segment":
        node["segment"] = rng.choice(["a1", "", "A-1", "\u00c9", "n4"])
    elif kind == "too-deep":
        chain = {"segment": "Z"}
        for _ in range(MAX_TREE_DEPTH):
            chain = {"segment": "Z", "children": [chain]}
        siblings.insert(rng.randint(0, len(siblings)), chain)
    else:  # a repeated segment among the roots or a node's children
        if kind == "repeated-root":
            siblings = roots
        elif not isinstance(node.get("children"), list):
            siblings = node["children"] = []
        else:
            siblings = node["children"]
        taken = [n["segment"] for n in siblings
                 if isinstance(n, dict) and "segment" in n]
        segment = rng.choice(taken or list(SEGMENT_POOL))
        for _ in range(1 if taken else 2):
            siblings.insert(rng.randint(0, len(siblings)), {"segment": segment})
    return kind


def random_chain(
    rng: random.Random, aspect: Aspect,
    paths: list[tuple[str, ...]] | None = None,
) -> AspectChain:
    """A suffix of an existing path, or free-form segments."""
    if paths and rng.random() < 0.7:
        path = rng.choice(paths)
        take = rng.randint(1, len(path))
        return AspectChain(aspect=aspect, segments=path[-take:])
    segments = tuple(
        rng.choice(SEGMENT_POOL) for _ in range(rng.randint(1, 3)))
    return AspectChain(aspect=aspect, segments=segments)


def reference_parse_designation(text: str) -> MultiAspectDesignation:
    """The character scanner ``parse_designation`` was before it matched
    each chain whole: every value, code, message and column it gives is
    the one the parser must give. It builds its values through their
    constructors."""
    if text == "":
        raise DesignationError("EMPTY_INPUT", "designation is empty")
    chains: list[AspectChain] = []
    seen: set[Aspect] = set()
    pos = 0
    end = len(text)
    while True:
        if pos == end or text[pos] not in _ASPECT_BY_PREFIX:
            raise DesignationError(
                "BAD_PREFIX",
                f"expected aspect prefix '=', '-' or '+' at column {pos + 1}",
            )
        prefix = text[pos]
        aspect = _ASPECT_BY_PREFIX[prefix]
        segments: list[str] = []
        while pos < end and text[pos] in _ASPECT_BY_PREFIX:
            if text[pos] != prefix:
                raise DesignationError(
                    "MIXED_CHAIN",
                    f"prefix {text[pos]!r} after {prefix!r} within one chain "
                    f"at column {pos + 1}",
                )
            pos += 1
            found = _SEGMENT_RE.match(text, pos)
            if found is None:
                raise DesignationError(
                    "BAD_SEGMENT", f"empty segment at column {pos + 1}"
                )
            segments.append(found.group())
            pos = found.end()
        if aspect in seen:
            raise DesignationError(
                "DUPLICATE_ASPECT",
                f"aspect {aspect.value} appears in two chains",
            )
        seen.add(aspect)
        chains.append(AspectChain(aspect=aspect, segments=tuple(segments)))
        if pos == end:
            return MultiAspectDesignation(chains=tuple(chains))
        ws_start = pos
        while pos < end and text[pos] == " ":
            pos += 1
        if pos == end:
            raise DesignationError(
                "BAD_SEGMENT", f"trailing whitespace at column {ws_start + 1}"
            )
        if text[pos] != "/":
            raise DesignationError(
                "BAD_SEGMENT",
                f"unexpected character {text[pos]!r} at column {pos + 1}",
            )
        pos += 1
        while pos < end and text[pos] == " ":
            pos += 1


def reference_designators(raw: dict, path: str,
                           error: type[EssenceError]) -> tuple[AspectChain, ...]:
    """The designator reader a load used before it matched each
    designator whole: every text goes through ``parse_designation``.
    Every value, code, message and path it gives for the designators map
    ``raw`` at ``path`` is the one a load must give."""
    chains = []
    for name, text in raw.items():
        chain_path = f"{path}.{name}"
        aspect = enum_of(name, Aspect, path, error)
        if not isinstance(text, str):
            raise error("SCHEMA_ERROR", "designator must be text",
                        path=chain_path)
        parsed = nested(error, chain_path, parse_designation, text)
        if len(parsed.chains) != 1 or parsed.chains[0].aspect is not aspect:
            raise error("SCHEMA_ERROR", "designator must be a single "
                        f"{aspect.value} chain", path=chain_path)
        chains.append(parsed.chains[0])
    return tuple(chains)


# Description models


def random_elements(
    rng: random.Random, max_elements: int = 100
) -> tuple[DescriptionModel, list[str], list[str]]:
    """Model with only elements: returns (model, extended ids, plain ids)."""
    model = DescriptionModel()
    extended: list[str] = []
    plain: list[str] = []
    for i in range(rng.randint(2, max_elements)):
        has_extent = rng.random() < 0.7
        model = add_element(model, ViewElement(id=f"e{i}", has_extent=has_extent))
        (extended if has_extent else plain).append(f"e{i}")
    return model, extended, plain


def closure_oracle(pairs: list[tuple[str, str]]) -> set[frozenset[str]]:
    """Fixpoint merging: keep joining groups that share a member."""
    groups = [set(pair) for pair in pairs]
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] and groups[j] and groups[i] & groups[j]:
                    groups[i] |= groups[j]
                    groups[j] = set()
                    changed = True
    return {frozenset(g) for g in groups if len(g) > 1}


# Kernels and whole projects


def random_kernel(rng: random.Random) -> KernelDefinition:
    """Small custom kernel; always passes validate_kernel."""
    alphas = []
    for i in range(rng.randint(1, 3)):
        states = tuple(
            StateDefinition(
                name=f"S{j}", summary=f"summary {j}",
                checkpoints=tuple(
                    Checkpoint(id=f"S{j}-{k}", text=f"criterion {j}.{k}")
                    for k in range(1, rng.randint(2, 5))))
            for j in range(rng.randint(1, 3)))
        alphas.append(AlphaDefinition(
            name=f"Alpha {i}", area=rng.choice(AREA_NAMES),
            description=f"test alpha {i}", states=states))
    if len(alphas) >= 2 and rng.random() < 0.5:
        alphas[0] = replace(alphas[0], subalphas=(alphas[1].name,))
    workproducts = ()
    if rng.random() < 0.5:
        workproducts = (WorkProductDefinition(
            name="Dossier", evidences=alphas[0].name),)
    kernel = KernelDefinition(
        name=f"Kernel {rng.randrange(100)}",
        areas=tuple(AreaOfConcern(n) for n in AREA_NAMES),
        alphas=tuple(alphas),
        workproducts=workproducts)
    assert validate_kernel(kernel).ok
    return kernel


def chain_kernel(length: int) -> KernelDefinition:
    """Valid kernel whose alphas form one sub-alpha chain A0 -> A1 -> ..."""
    state = StateDefinition(name="S", summary="s",
                            checkpoints=(Checkpoint(id="S-1", text="done"),))
    return KernelDefinition(
        name="chain",
        areas=tuple(AreaOfConcern(n) for n in AREA_NAMES),
        alphas=tuple(
            AlphaDefinition(
                name=f"A{i}", area="Solution", states=(state,),
                subalphas=(f"A{i + 1}",) if i + 1 < length else ())
            for i in range(length)))


def random_project(rng: random.Random) -> Project:
    kernel = None if rng.random() < 0.7 else random_kernel(rng)
    p = new_project(
        f"proj-{rng.randrange(10 ** 6)}",
        kernel=kernel,
        strict_evidence=rng.random() < 0.3)
    a = p.assessment
    k = a.kernel
    for i in range(rng.randrange(4)):
        a = add_instance(a, AlphaInstance(
            id=f"inst-{i}", alpha=rng.choice(k.alphas).name,
            system_level=rng.choice(tuple(SystemLevel))))
    if k.workproducts:
        for i in range(rng.randrange(3)):
            designation = None
            if rng.random() < 0.5:
                designation = parse_document_designation(
                    f"={rng.choice(SEGMENT_POOL)}&{rng.choice('AM')}CA")
            a = add_work_product(a, WorkProductInstance(
                id=f"wp-{i}", definition=rng.choice(k.workproducts).name,
                label=rng.choice(("", "report", "as-built model")),
                document_designation=designation))
    wp_ids = [wp.id for wp in a.work_products]
    for inst in a.instances:
        alpha = find_alpha(k, inst.alpha)
        for _ in range(rng.randrange(6)):
            state = rng.choice(alpha.states)
            cp = rng.choice(state.checkpoints)
            evidence = ()
            if wp_ids and rng.random() < 0.4:
                evidence = tuple(rng.sample(wp_ids, rng.randint(1, len(wp_ids))))
            a = record_checkpoint(a, CheckpointRecord(
                alpha_instance=inst.id, state=state.name, checkpoint=cp.id,
                satisfied=rng.random() < 0.7, evidence=evidence,
                recorded_at=rng.randrange(10 ** 9)))
    trees = tuple(
        random_tree(rng, aspect, max_nodes=8)
        for aspect in ASPECT_ORDER if rng.random() < 0.6)
    model = DescriptionModel()
    viewpoint_names = []
    for i in range(rng.randrange(4)):
        model = add_viewpoint(model, Viewpoint(
            name=f"vp-{i}",
            structure_type=rng.choice(tuple(StructureType)),
            concerns=tuple(rng.sample(("cost", "safety", "fit"),
                                      rng.randrange(3))),
            description_kind=rng.choice(tuple(DescriptionKind))))
        viewpoint_names.append(f"vp-{i}")
    extended = []
    for i in range(rng.randrange(6)):
        has_extent = rng.random() < 0.6
        model = add_element(model, ViewElement(
            id=f"el-{i}", label=f"element {i}", has_extent=has_extent))
        if has_extent:
            extended.append(f"el-{i}")
    element_ids = [e.id for e in model.elements]
    if viewpoint_names:
        for i in range(rng.randrange(3)):
            chosen = tuple(rng.sample(element_ids,
                                      rng.randrange(len(element_ids) + 1)))
            model = add_view(model, View(
                name=f"view-{i}", viewpoint=rng.choice(viewpoint_names),
                elements=chosen))
    node_ids = []
    for i in range(rng.randrange(3)):
        chains = tuple(
            random_chain(rng, aspect)
            for aspect in ASPECT_ORDER if rng.random() < 0.4)
        model = add_realization_node(model, RealizationNode(
            id=f"rn-{i}", designators=chains))
        node_ids.append(f"rn-{i}")
    if len(extended) >= 2:
        for _ in range(rng.randrange(4)):
            x, y = rng.sample(extended, 2)
            model = assert_coextension(model, x, y)
    if node_ids and extended:
        for _ in range(rng.randrange(3)):
            try:
                model = bind_element(
                    model, rng.choice(extended), rng.choice(node_ids))
            except ModelError:
                pass  # conflicting rebind; skip, the model stays valid
    return replace(p, assessment=a, trees=trees, description=model)


# Loading by folding the public operations


def _coextend(model: DescriptionModel, members: list[str]) -> DescriptionModel:
    for member in members[1:]:
        model = assert_coextension(model, members[0], member)
    return model


# Each list of a container, by field, with the single operation that adds
# one of its items, in the order the constructors and load_project take
# the lists: a coextension class is asserted member by member with its
# first, a binding is bound.
FOLDS = {
    Assessment: (("instances", add_instance),
                 ("work_products", add_work_product),
                 ("records", record_checkpoint)),
    DescriptionModel: (("viewpoints", add_viewpoint),
                       ("elements", add_element),
                       ("views", add_view),
                       ("realization_nodes", add_realization_node),
                       ("coextension", _coextend),
                       ("bindings", lambda model, pair: bind_element(model, *pair))),
}


def fold_lists(value, lists: dict[str, list]):
    """``value`` with the items of ``lists``, by field, added one at a time
    by the single operations, list by list in ``FOLDS`` order. The first
    refusal is raised again at the item's path, ``field[i]``."""
    for field, op in FOLDS[type(value)]:
        for i, item in enumerate(lists.get(field, ())):
            try:
                value = op(value, item)
            except EssenceError as exc:
                raise type(exc)(exc.code, exc.message, path=f"{field}[{i}]") from exc
    return value


def document_lists(doc: dict) -> dict[str, dict[str, list]]:
    """The items of the assessment and description lists of a document of
    the saved form, by section and container field, in document order:
    entries as the public constructors make them, a coextension class
    and a binding as lists of ids."""
    raw = doc.get("assessment", {})
    assessment = {
        "instances": [AlphaInstance(
            id=item["id"], alpha=item["alpha"],
            system_level=SystemLevel(item["system-level"]))
            for item in raw.get("instances", [])],
        "work_products": [WorkProductInstance(
            id=item["id"], definition=item["definition"], label=item["label"],
            document_designation=(
                None if item.get("document-designation") is None
                else parse_document_designation(item["document-designation"])))
            for item in raw.get("work-products", [])],
        "records": [CheckpointRecord(
            alpha_instance=item["alpha-instance"], state=item["state"],
            checkpoint=item["checkpoint"], satisfied=item["satisfied"],
            evidence=tuple(item["evidence"]), recorded_at=item["recorded-at"])
            for item in raw.get("records", [])]}
    raw = doc.get("description", {})
    description = {
        "viewpoints": [Viewpoint(
            name=item["name"], structure_type=StructureType(item["structure-type"]),
            concerns=tuple(item["concerns"]),
            description_kind=DescriptionKind(item["description-kind"]))
            for item in raw.get("viewpoints", [])],
        "elements": [ViewElement(id=item["id"], label=item["label"],
                                 has_extent=item["has-extent"])
                     for item in raw.get("elements", [])],
        "views": [View(name=item["name"], viewpoint=item["viewpoint"],
                       elements=tuple(item["elements"]))
                  for item in raw.get("views", [])],
        "realization_nodes": [RealizationNode(id=item["id"], designators=tuple(
            parse_designation(text).chains[0]
            for text in item["designators"].values()))
            for item in raw.get("realization-nodes", [])],
        "coextension": raw.get("coextension", []),
        "bindings": raw.get("bindings", [])}
    return {"assessment": assessment, "description": description}


def fold_project(data: bytes | str) -> Project:
    """Reference loader for well-formed project documents.

    Folds the public operations over the decoded entries in document
    order and reports the first refused entry the way load_project
    does: SCHEMA_ERROR, "<code>: <message>", the entry's path. It checks
    no document shape, so feed it only documents of the saved form.
    """
    doc = json.loads(data)
    kernel_doc = doc.get("kernel", "builtin")
    project = new_project(
        doc["project-id"],
        kernel=None if kernel_doc == "builtin" else kernel_from_doc(kernel_doc),
        strict_evidence=doc.get("assessment", {}).get("strict-evidence", False))
    lists = document_lists(doc)
    values = {}
    for at, empty in (("assessment", project.assessment),
                      ("description", DescriptionModel())):
        try:
            values[at] = fold_lists(empty, lists[at])
        except EssenceError as exc:
            raise ProjectError(
                "SCHEMA_ERROR", f"{exc.code}: {exc.message}",
                path=f"{at}.{exc.path.replace('_', '-')}") from exc

    def node(item: dict) -> BreakdownNode:
        return BreakdownNode(
            segment=item["segment"],
            children=tuple(node(child) for child in item.get("children", [])))

    trees = tuple(
        BreakdownTree(aspect=Aspect(aspect), roots=tuple(map(node, roots)))
        for aspect, roots in doc.get("trees", {}).items())
    return replace(project, assessment=values["assessment"], trees=trees,
                   description=values["description"])


def _insert(rng: random.Random, items: list, item) -> None:
    items.insert(rng.randint(0, len(items)), item)


def supersede_records(rng: random.Random, doc: dict) -> None:
    """Valid edit: append later records for keys already recorded."""
    records = doc["assessment"]["records"]
    for rec in rng.sample(records, min(len(records), 3)):
        records.append(dict(rec, satisfied=not rec["satisfied"], evidence=[]))


def mutate_document(rng: random.Random, doc: dict) -> str:
    """Plant one kind of bad entry in a saved project document.

    Entries go at random positions, so the first refused entry is not
    always the planted one's neighbour. Returns the kind planted.
    """
    assessment = doc["assessment"]
    model = doc["description"]
    kinds = ["dangling-view-element", "duplicate-element", "binding-conflict"]
    if assessment["instances"]:
        kinds += ["dangling-instance", "duplicate-instance",
                  "unknown-checkpoint", "dangling-evidence"]
    kind = rng.choice(kinds)
    if assessment["instances"]:
        instance = rng.choice(assessment["instances"])
        kernel = (builtin_se_kernel() if doc["kernel"] == "builtin"
                  else kernel_from_doc(doc["kernel"]))
        state = rng.choice(find_alpha(kernel, instance["alpha"]).states)
        record = {"alpha-instance": instance["id"], "state": state.name,
                  "checkpoint": rng.choice(state.checkpoints).id,
                  "satisfied": True, "evidence": [], "recorded-at": 0}
    if kind == "dangling-instance":
        _insert(rng, assessment["records"], dict(record, **{
            "alpha-instance": "ghost"}))
    elif kind == "duplicate-instance":
        _insert(rng, assessment["instances"], dict(instance))
    elif kind == "unknown-checkpoint":
        _insert(rng, assessment["records"], dict(record, checkpoint="ZZ-9"))
    elif kind == "dangling-evidence":
        _insert(rng, assessment["records"], dict(record, evidence=["ghost"]))
    elif kind == "dangling-view-element":
        if not model["viewpoints"]:
            model["viewpoints"].append({
                "name": "vp-x", "structure-type": "Other", "concerns": [],
                "description-kind": "Other"})
        _insert(rng, model["views"], {
            "name": "view-x", "viewpoint": model["viewpoints"][0]["name"],
            "elements": ["ghost"]})
    elif kind == "duplicate-element":
        _insert(rng, model["elements"], {
            "id": "el-x", "label": "", "has-extent": True})
        _insert(rng, model["elements"], {
            "id": "el-x", "label": "again", "has-extent": False})
    else:
        for suffix in "xy":
            model["elements"].append(
                {"id": f"el-{suffix}", "label": "", "has-extent": True})
            model["realization-nodes"].append(
                {"id": f"rn-{suffix}", "designators": {}})
        _insert(rng, model["coextension"], ["el-x", "el-y"])
        model["bindings"] += [["el-x", "rn-x"], ["el-y", "rn-y"]]
    return kind
