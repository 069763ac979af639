"""Multi-aspect reference designations and document designation codes.

A reference designation names a system node in up to three aspects, in
the style of IEC 81346: function (prefix ``=``), product (prefix ``-``),
and location (prefix ``+``). The accepted grammar is exact:

    designation = chain *( OWS "/" OWS chain )
    chain       = prefix segment *( prefix segment )   ; one prefix per chain
    prefix      = "=" | "-" | "+"
    segment     = 1*( A-Z / 0-9 )
    OWS         = *( " " )

Lowercase input is rejected, not folded: canonical forms are bit-exact.
Chains resolve against per-aspect breakdown trees by path-suffix match,
so a partial designator may be ambiguous; a designation is acceptable
when at least one of its chains is not.

A breakdown tree is two depth-first arrays, and its file format lives
here alone: ``read_trees`` reads a project file's ``trees`` map into
the arrays, a tree writes its node maps from them for ``_schema.emit``,
and ``MAX_TREE_DEPTH`` bounds both.

Document designations follow IEC 61355 in shape: a system designation,
``&``, and a three-letter document classification code whose first
letter (the technical area) must exist in the active DCC table. The
file formats of designators and document designations live here too,
as the entry-field kinds ``DESIGNATORS`` and ``DOCUMENT_DESIGNATION``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from json.encoder import encode_basestring as _quote
from types import MappingProxyType

from ._schema import (Kind, _at, _Refused, check_keys, decode, enum_of, get,
                      nested, nonempty)
from ._value import member, unsupported
from .errors import DesignationError, EssenceError

# One segment: a chain's segments and a node's segment match it whole.
_SEGMENT_RE = re.compile(r"[A-Z0-9]+")
# One chain of a designation: a prefix, segments that each follow that
# same prefix, and the separator after the chain, if one follows.
_CHAIN_RE = re.compile(r"([=+-])([A-Z0-9]+(?:\1[A-Z0-9]+)*)( */ *)?")
# A parsed value is built as its constructor would build it, less the
# checks the match has made; no instance dict is materialized.
_new, _put = object.__new__, object.__setattr__


class Aspect(str, Enum):
    FUNCTION = "Function"
    PRODUCT = "Product"
    LOCATION = "Location"


_PREFIX_BY_ASPECT = {Aspect.FUNCTION: "=", Aspect.PRODUCT: "-", Aspect.LOCATION: "+"}
_ASPECT_BY_PREFIX = {prefix: aspect for aspect, prefix in _PREFIX_BY_ASPECT.items()}
# An aspect's file key; an aspect by its file key and its prefix.
_KEY_OF = {aspect: aspect.value for aspect in Aspect}
_ASPECT_OF = {(_KEY_OF[aspect], prefix): aspect
              for aspect, prefix in _PREFIX_BY_ASPECT.items()}

# Canonical chain order within a designation.
ASPECT_ORDER = (Aspect.FUNCTION, Aspect.PRODUCT, Aspect.LOCATION)
_RANK = {aspect: rank for rank, aspect in enumerate(ASPECT_ORDER)}


def in_aspect_order(items: Iterable, twice) -> tuple:
    """``items`` in ``ASPECT_ORDER`` of their ``aspect``, placed in one
    pass; ``twice(aspect)`` is the error raised for the first aspect in
    that order that two of them share."""
    slots: list = [None, None, None]
    repeated = 3  # the rank of the first aspect held twice; 3 if none is
    for item in items:
        rank = _RANK[item.aspect]
        if slots[rank] is not None and rank < repeated:
            repeated = rank
        slots[rank] = item
    if repeated < 3:
        raise twice(ASPECT_ORDER[repeated])
    return tuple([item for item in slots if item is not None])


@dataclass(frozen=True)
class AspectChain:
    """One aspect's segment path, e.g. ``-12-N4-DN18``."""

    aspect: Aspect
    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "aspect", member(
            self.aspect, Aspect, DesignationError, "aspect"))
        segments = self.segments
        if isinstance(segments, str) or not isinstance(segments, Iterable):
            raise DesignationError(
                "BAD_SEGMENT",
                f"segments {segments!r} are not a sequence of texts")
        object.__setattr__(self, "segments", tuple(segments))
        if not self.segments:
            raise DesignationError("BAD_SEGMENT", "chain has no segments")
        for segment in self.segments:
            if not isinstance(segment, str) or not _SEGMENT_RE.fullmatch(segment):
                raise DesignationError(
                    "BAD_SEGMENT",
                    f"segment {segment!r} is not uppercase-alphanumeric",
                )

    def __str__(self) -> str:
        prefix = _PREFIX_BY_ASPECT[self.aspect]
        return prefix + prefix.join(self.segments)


@dataclass(frozen=True, eq=False)
class MultiAspectDesignation:
    """Chains of one designation; at most one chain per aspect.

    Equality is aspect-keyed: two designations are equal when they carry
    the same chains, regardless of chain order. ``chains`` preserves the
    order of construction (for parsed input, the input order).
    """

    chains: tuple[AspectChain, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.chains, Iterable):
            raise DesignationError(
                "BAD_SEGMENT", f"chains {self.chains!r} are not a sequence")
        object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise DesignationError("EMPTY_INPUT", "designation has no chains")
        seen: set[Aspect] = set()
        for chain in self.chains:
            _require_chain(chain)
            if chain.aspect in seen:
                raise DesignationError(
                    "DUPLICATE_ASPECT",
                    f"aspect {chain.aspect.value} appears in two chains",
                )
            seen.add(chain.aspect)

    def by_aspect(self) -> dict[Aspect, AspectChain]:
        return {chain.aspect: chain for chain in self.chains}

    def _key(self) -> frozenset[tuple[Aspect, tuple[str, ...]]]:
        return frozenset((chain.aspect, chain.segments) for chain in self.chains)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiAspectDesignation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return format_designation(self)


def parse_designation(text: str) -> MultiAspectDesignation:
    """Parse a designation string; raises DesignationError on any deviation.

    Error codes: EMPTY_INPUT, BAD_PREFIX, BAD_SEGMENT, MIXED_CHAIN,
    DUPLICATE_ASPECT. Every input yields a value or exactly one of these;
    input that is not text is BAD_PREFIX. Each chain is one match of
    _CHAIN_RE, and an error's code and column come from where it stops.
    """
    if not isinstance(text, str):
        raise _not_text("designation", text)
    if text == "":
        raise DesignationError("EMPTY_INPUT", "designation is empty")
    chains: list[AspectChain] = []
    pos, end = 0, len(text)
    while True:
        found = _CHAIN_RE.match(text, pos)
        if found is None:
            if pos == end or text[pos] not in _ASPECT_BY_PREFIX:
                raise DesignationError(
                    "BAD_PREFIX",
                    f"expected aspect prefix '=', '-' or '+' at column {pos + 1}",
                )
            raise DesignationError(
                "BAD_SEGMENT", f"empty segment at column {pos + 2}")
        prefix, _, separator = found.groups()
        pos = found.end(2)
        if separator is None and pos < end and text[pos] in _ASPECT_BY_PREFIX:
            if text[pos] == prefix:
                raise DesignationError(
                    "BAD_SEGMENT", f"empty segment at column {pos + 2}")
            raise DesignationError(
                "MIXED_CHAIN",
                f"prefix {text[pos]!r} after {prefix!r} within one chain "
                f"at column {pos + 1}",
            )
        aspect = _ASPECT_BY_PREFIX[prefix]
        if any(earlier.aspect is aspect for earlier in chains):
            raise DesignationError(
                "DUPLICATE_ASPECT", f"aspect {aspect.value} appears in two chains")
        chains.append(_chain(aspect, found))
        if separator is not None:
            pos = found.end()
        elif pos == end:
            designation = _new(MultiAspectDesignation)
            _put(designation, "chains", tuple(chains))
            return designation
        else:
            rest = text[pos:].lstrip(" ")
            raise DesignationError("BAD_SEGMENT", (
                f"unexpected character {rest[0]!r} at column "
                f"{end - len(rest) + 1}" if rest
                else f"trailing whitespace at column {pos + 1}"))


def _chain(aspect: Aspect, found: re.Match) -> AspectChain:
    """The chain of ``aspect`` that ``found``, a match of _CHAIN_RE, holds."""
    chain = _new(AspectChain)
    _put(chain, "aspect", aspect)
    _put(chain, "segments", tuple(found[2].split(found[1])))
    return chain


def _not_text(what: str, value: object) -> DesignationError:
    return DesignationError(
        "BAD_PREFIX", f"{what} must be text, not {type(value).__name__}")


def _require_chain(chain: object) -> None:
    if not isinstance(chain, AspectChain):
        raise DesignationError(
            "BAD_SEGMENT", f"chain {chain!r} is not an AspectChain")


def _require_designation(d: object) -> None:
    if not isinstance(d, MultiAspectDesignation):
        raise DesignationError(
            "BAD_PREFIX", f"designation {d!r} is not a MultiAspectDesignation")


def format_designation(d: MultiAspectDesignation) -> str:
    """Canonical form: aspect order Function, Product, Location; " / " joins."""
    _require_designation(d)
    by_aspect = d.by_aspect()
    return " / ".join(
        str(by_aspect[aspect]) for aspect in ASPECT_ORDER if aspect in by_aspect
    )


class _Designators(Kind):
    """A tuple of AspectChains, which a file holds as the map of each
    chain's aspect to its text."""

    def load(self, raw, path, key, error):
        chains = []
        for name, text in raw.items():
            # One chain of its key's aspect, matched whole.
            found = text.__class__ is str and _CHAIN_RE.fullmatch(text)
            aspect = found and found[3] is None and _ASPECT_OF.get((name, found[1]))
            if not aspect:  # the general parser words the refusal
                aspect = enum_of(name, Aspect, _at(path, key), error)
                chain_path = f"{_at(path, key)}.{name}"
                if not isinstance(text, str):
                    raise error("SCHEMA_ERROR", "designator must be text",
                                path=chain_path)
                nested(error, chain_path, parse_designation, text)
                raise error("SCHEMA_ERROR", "designator must be a single "
                            f"{aspect.value} chain", path=chain_path)
            chains.append(_chain(aspect, found))
        return tuple(chains)

    def dump(self, values, path, key, error):
        return [{_KEY_OF[chain.aspect]: str(chain) for chain in chains}
                for chains in values]


DESIGNATORS = _Designators(tuple, dict)


@dataclass(frozen=True, eq=False)
class BreakdownNode:
    """A node and its subtree. Equality and hash see the subtree's
    depth-first arrays, and repr keeps its own stack, so none of them
    recurses; repr's text is the generated dataclass repr."""

    segment: str
    children: tuple[BreakdownNode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _nodes(self.children))
        if not isinstance(self.segment, str) or not _SEGMENT_RE.fullmatch(
                self.segment):
            raise _bad_segment(self.segment)
        _require_unique_siblings(
            (child.segment for child in self.children), self.segment)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _flatten((self,)) == _flatten((other,))

    def __hash__(self) -> int:
        return hash(_flatten((self,)))

    def __repr__(self) -> str:
        # The open nodes, and an iterator over this node alone below one
        # over each open node's numbered children.
        parts: list[str] = []
        opened: list[BreakdownNode] = []
        levels = [enumerate((self,))]
        while levels:
            for i, node in levels[-1]:
                parts.append(f"{', ' if i else ''}{type(node).__qualname__}"
                             f"(segment={node.segment!r}, children=(")
                opened.append(node)
                levels.append(enumerate(node.children))
                break
            else:
                levels.pop()
                if opened:  # a one-item tuple's repr ends in a comma
                    parts.append(",))" if len(opened.pop().children) == 1
                                 else "))")
        return "".join(parts)


@dataclass(frozen=True, eq=False)
class BreakdownTree:
    """One aspect's system hierarchy; sibling segments are unique.

    The value is two arrays of its nodes in depth-first order: each
    node's segment, and the position of its parent (-1 for a root).
    The constructor flattens ``roots`` into them; a tree from
    ``read_trees``, a copy or a pickle builds ``roots`` on first read.
    Equality, hash, copies and pickles see ``aspect`` and the arrays,
    and do not recurse; repr and ``dataclasses.replace`` go through
    ``roots``. The first ``resolve`` also indexes nodes by segment.
    """

    aspect: Aspect
    # No class attribute: a tree without roots builds them in __getattr__.
    roots: tuple[BreakdownNode, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "aspect", member(
            self.aspect, Aspect, DesignationError, "aspect"))
        object.__setattr__(self, "roots", _nodes(self.roots))
        _require_unique_siblings((root.segment for root in self.roots), None)
        object.__setattr__(self, "_arrays", _flatten(self.roots))

    def __getattr__(self, name: str):
        """``roots`` of a tree made without them, built on first read."""
        if name != "roots":
            raise AttributeError(name)
        roots = self.__dict__["roots"] = _roots(*self._arrays)
        return roots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BreakdownTree):
            return NotImplemented
        return self.aspect == other.aspect and self._arrays == other._arrays

    def __hash__(self) -> int:
        return hash((self.aspect, self._arrays))

    def __getstate__(self) -> dict:
        return {"aspect": self.aspect, "_arrays": self._arrays}

    def paths(self) -> tuple[tuple[str, ...], ...]:
        """All root-to-node paths, depth-first."""
        out: list[tuple[str, ...]] = []
        for segment, parent in zip(*self._arrays):
            out.append((out[parent] + (segment,)) if parent >= 0 else (segment,))
        return tuple(out)

    @cached_property
    def _positions(self) -> dict[str, list[int]]:
        """The positions of each segment's nodes, in ascending order."""
        positions: dict[str, list[int]] = {}
        for pos, segment in enumerate(self._arrays[0]):
            same = positions.get(segment)
            if same is None:
                positions[segment] = [pos]
            else:
                same.append(pos)
        return positions

    def _write_json(self, write, depth: int) -> None:
        """Write the list of the roots' node maps ``{"segment": ...,
        "children": [...]}``, children left out when there are none, as
        ``_schema.emit`` does at ``depth``, from the arrays; refused,
        midway, as TREE_TOO_DEEP at a node with children at level
        ``MAX_TREE_DEPTH``."""
        segments, parents = self._arrays
        first, later, leaf, opened, closed = _node_texts(depth + 1)
        write("[")
        # The open nodes: the ancestors of the node being written.
        ups: list[int] = []
        for pos, (up, segment, below) in enumerate(
                zip(parents, segments, parents[1:] + (-1,))):
            while ups and ups[-1] != up:
                ups.pop()
                write(closed[len(ups)])
            level = len(ups)
            text = (first if up == pos - 1 else later)[level] + _quote(segment)
            if below == pos:
                if level + 1 == MAX_TREE_DEPTH:
                    raise _Refused(self, too_deep)
                ups.append(pos)
                write(text + opened[level])
            else:
                write(text + leaf[level])
        while ups:
            ups.pop()
            write(closed[len(ups)])
        write("\n" + "  " * depth + "]" if segments else "]")


# The deepest breakdown tree a document holds, a root being level 1.
# Reading and writing keep their own stack, and so do the equality,
# hash and repr of BreakdownNode; the JSON decoder recurses twice per
# tree level, and the pickling of BreakdownNode about four times. At
# this depth all of them stay well inside Python's default recursion
# limit.
MAX_TREE_DEPTH = 128


def too_deep(error: type[EssenceError], path: str | None) -> EssenceError:
    """TREE_TOO_DEEP for the breakdown tree at ``path``."""
    return error("TREE_TOO_DEEP",
                 f"breakdown tree is more than {MAX_TREE_DEPTH} levels deep",
                 path=path)


@lru_cache(maxsize=16)
def _node_texts(depth: int) -> tuple[tuple[str, ...], ...]:
    """By tree level, for node maps whose roots are at ``depth``: the
    text before the segment of a first child and of a later one, and
    the text after the segment of a leaf and of a node with children;
    then the text that closes a node with children."""
    first, later, leaf, opened, closed = [], [], [], [], []
    for level in range(MAX_TREE_DEPTH):
        indent = "\n" + "  " * (depth + 2 * level)
        head = "{" + indent + '  "segment": '
        first.append(indent + head)
        later.append("," + indent + head)
        leaf.append(indent + "}")
        opened.append("," + indent + '  "children": [')
        closed.append(indent + "  ]" + indent + "}")
    return tuple(map(tuple, (first, later, leaf, opened, closed)))


def read_trees(doc: dict, error: type[EssenceError]) -> tuple[BreakdownTree, ...]:
    """The trees of a project file's ``trees`` map ``doc``, each read
    from its roots' node maps straight into its arrays, in one checked
    pass; a tree that the pass refuses is read again node by node.
    Errors are ``error``: a map's shape errors at the map's path, a
    segment's SCHEMA_ERROR at the tree's path ``trees.<Aspect>``, as
    ``nested`` reports them."""
    trees = []
    for key, roots in doc.items():
        path = f"trees.{key}"
        aspect = enum_of(key, Aspect, "trees", error)
        if not isinstance(roots, list):
            raise error("SCHEMA_ERROR", "tree roots must be a list", path=path)
        arrays = _read_tree(roots)
        if arrays is None:  # read again, node by node, to place the refusal
            arrays = nested(error, path, _tree_arrays, roots, path, error)
        segments, parents = arrays
        tree = object.__new__(BreakdownTree)
        tree.__dict__.update(aspect=aspect,
                             _arrays=(tuple(segments), tuple(parents)))
        trees.append(tree)
    return tuple(trees)


def _flatten(
    roots: tuple[BreakdownNode, ...]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The segments and parents of these nodes, in depth-first order."""
    segments: list[str] = []
    parents: list[int] = []
    # The open nodes' child iterators, and the open nodes' positions.
    stack = [iter(roots)]
    ups = [-1]
    while stack:
        up = ups[-1]
        for node in stack[-1]:
            segments.append(node.segment)
            parents.append(up)
            if node.children:
                stack.append(iter(node.children))
                ups.append(len(parents) - 1)
                break
        else:
            stack.pop()
            ups.pop()
    return tuple(segments), tuple(parents)


def _roots(segments: tuple[str, ...],
           parents: tuple[int, ...]) -> tuple[BreakdownNode, ...]:
    """The roots of depth-first arrays, built bottom-up."""
    children: dict[int, list[BreakdownNode]] = {}
    for pos in range(len(segments) - 1, -1, -1):
        node = BreakdownNode(segments[pos],
                             tuple(reversed(children.pop(pos, ()))))
        children.setdefault(parents[pos], []).append(node)
    return tuple(reversed(children.get(-1, ())))


_NODE_KEYS = frozenset({"segment", "children"})
_NO_CHILDREN: list = []  # the children of a node map without "children"
# Segments each followed by a line break: a tree's segments joined, whole.
_SEGMENT_LINES_RE = re.compile(r"(?:[A-Z0-9]+\n)*")


def _read_tree(roots: list) -> tuple[list[str], list[int]] | None:
    """The segments and parents, depth-first, of the tree whose roots'
    node maps are ``roots``, or None when ``_tree_arrays`` would refuse
    them: in one pass, a node's shape, its segment's class, the depth
    and each level's uniqueness; then every segment at once, as the
    lines of their joined text. It keeps its own stack."""
    segments: list[str] = []
    parents: list[int] = []
    add_segment, add_parent, keys_fit = (segments.append, parents.append,
                                         _NODE_KEYS.issuperset)
    # The levels above the one being read. A level is an iterator over
    # its node maps, the list and the position of their parent (-1 for
    # the roots), and the segments of the maps it has read.
    levels: list[tuple] = []
    items, siblings, up, seen = iter(roots), roots, -1, set()
    while True:
        for item in items:
            if item.__class__ is not dict or not keys_fit(item):
                return None
            segment = item.get("segment")
            children = item.get("children", _NO_CHILDREN)
            if segment.__class__ is not str or children.__class__ is not list:
                return None
            seen.add(segment)
            add_segment(segment)
            add_parent(up)
            if children:
                if len(levels) + 1 == MAX_TREE_DEPTH:
                    return None
                levels.append((items, siblings, up, seen))
                items, siblings, up, seen = (iter(children), children,
                                             len(parents) - 1, set())
                break
        else:  # the level is read; a segment repeats if seen is smaller
            if len(seen) < len(siblings):
                return None
            if not levels:
                break
            items, siblings, up, seen = levels.pop()
    # A segment that holds a line break adds a line.
    text = "\n".join(segments) + "\n" if segments else ""
    if text.count("\n") != len(segments) or not _SEGMENT_LINES_RE.fullmatch(text):
        return None
    return segments, parents


def _tree_arrays(roots: list, path: str,
                 error: type[EssenceError]) -> tuple[list[str], list[int]]:
    """The segments and parents, depth-first, of the tree at ``path``.

    A node's shape is checked before its children, its segment and then
    its children's uniqueness after them; the roots' uniqueness last.
    The depth is checked before each descent. Shape errors name the
    node map; segment errors are the ones the node and tree constructors
    raise. ``read_trees`` walks a tree node by node only when
    ``_read_tree`` refuses it, to place the refusal. It is also the
    fallback: should ``_read_tree`` ever refuse a tree that this walk
    accepts, the tree still loads, only more slowly. The walk keeps its
    own stack, and paths are built only when raising.
    """
    segments: list[str] = []
    parents: list[int] = []
    # The levels above the one being read. A level is an iterator over
    # its node maps, the position and map of their parent (-1 and None
    # for the roots), and the segments of the maps it has checked.
    levels: list[tuple] = []
    items, up, owner, seen = iter(roots), -1, None, set()
    while True:
        for item in items:
            pos = len(parents)
            parents.append(up)
            if item.__class__ is not dict:
                raise error("SCHEMA_ERROR", "tree node must be a map",
                            path=_node_path(path, parents, pos))
            if not _NODE_KEYS.issuperset(item):
                check_keys(item, _NODE_KEYS, _node_path(path, parents, pos),
                           error)
            segment = item.get("segment")
            segments.append(segment)
            children = item.get("children", _NO_CHILDREN)
            if children.__class__ is not list:
                get(item, "children", list, _node_path(path, parents, pos),
                    error)
            if children:
                if len(levels) + 1 == MAX_TREE_DEPTH:
                    raise too_deep(error, path)
                levels.append((items, up, owner, seen))
                items, up, owner, seen = iter(children), pos, item, set()
                break
            if segment.__class__ is not str or not _SEGMENT_RE.fullmatch(segment):
                raise _segment_error(item, path, parents, pos, error)
            seen.add(segment)
        else:  # the level is read; a segment repeats if seen is smaller
            if owner is None:
                if len(seen) < len(roots):
                    _require_unique_siblings(
                        (root["segment"] for root in roots), None)
                return segments, parents
            segment = segments[up]
            if segment.__class__ is not str or not _SEGMENT_RE.fullmatch(segment):
                raise _segment_error(owner, path, parents, up, error)
            if len(seen) < len(owner["children"]):
                _require_unique_siblings(
                    (child["segment"] for child in owner["children"]), segment)
            items, up, owner, seen = levels.pop()
            seen.add(segment)


def _node_path(path: str, parents: list[int], pos: int) -> str:
    """The path of node ``pos``'s map, as ``path[i].children[j]...``."""
    steps = []
    while pos >= 0:
        up = parents[pos]
        steps.append(f"[{parents[:pos].count(up)}]")
        pos = up
    return path + ".children".join(reversed(steps))


def _segment_error(item: dict, path: str, parents: list[int], pos: int,
                   error: type[EssenceError]) -> DesignationError:
    """The error of node ``pos``'s segment, which is not a valid one."""
    return _bad_segment(get(item, "segment", str,
                            _node_path(path, parents, pos), error))


def _nodes(items: Iterable[BreakdownNode]) -> tuple[BreakdownNode, ...]:
    """The children or roots ``items`` as a tuple, each a node."""
    # A tuple skips the slower check: ``roots`` builds a node per position.
    if items.__class__ is not tuple and not isinstance(items, Iterable):
        raise DesignationError(
            "BAD_SEGMENT", f"tree nodes {items!r} are not a sequence")
    nodes = tuple(items)
    for node in nodes:
        if not isinstance(node, BreakdownNode):
            raise DesignationError(
                "BAD_SEGMENT", f"tree node {node!r} is not a BreakdownNode")
    return nodes


def _bad_segment(segment: str) -> DesignationError:
    return DesignationError(
        "BAD_SEGMENT",
        f"node segment {segment!r} is not uppercase-alphanumeric")


def _require_unique_siblings(
    segments: Iterable[str], parent: str | None
) -> None:
    seen: set[str] = set()
    for segment in segments:
        if segment in seen:
            where = f"under {parent!r}" if parent else "at tree root"
            raise DesignationError(
                "DUPLICATE_SIBLING",
                f"sibling segment {segment!r} repeats {where}")
        seen.add(segment)


def resolve(tree: BreakdownTree, chain: AspectChain) -> tuple[tuple[str, ...], ...]:
    """All nodes whose root-to-node path ends with the chain's segments.

    Returned as full paths in depth-first order; empty when nothing
    matches. Suffix matching is what makes partial designators useful
    and, possibly, ambiguous.
    """
    _require_chain(chain)
    if not isinstance(tree, BreakdownTree):
        raise DesignationError(
            "MISSING_TREE", f"tree {tree!r} is not a BreakdownTree")
    if chain.aspect is not tree.aspect:
        raise DesignationError(
            "ASPECT_MISMATCH",
            f"{chain.aspect.value} chain resolved against "
            f"{tree.aspect.value} tree",
        )
    segments, parents = tree._arrays
    positions = tree._positions
    rest = chain.segments[-2::-1]  # the suffix above its last segment, upwards
    matches = []
    for pos in positions.get(chain.segments[-1], ()):
        up = parents[pos]
        for segment in rest:
            if up < 0 or segments[up] != segment:
                break
            up = parents[up]
        else:
            path = []
            while pos >= 0:
                path.append(segments[pos])
                pos = parents[pos]
            matches.append(tuple(reversed(path)))
    return tuple(matches)


@dataclass(frozen=True)
class ChainResolution:
    chain: AspectChain
    matches: tuple[tuple[str, ...], ...]

    @property
    def count(self) -> int:
        return len(self.matches)

    @property
    def unambiguous(self) -> bool:
        return len(self.matches) == 1


@dataclass(frozen=True)
class UnambiguityReport:
    resolutions: tuple[ChainResolution, ...]

    @property
    def ok(self) -> bool:
        return any(r.unambiguous for r in self.resolutions)


def check_at_least_one_unambiguous(
    trees: Mapping[Aspect, BreakdownTree], d: MultiAspectDesignation
) -> UnambiguityReport:
    """Not every chain must be unambiguous, but at least one must be."""
    if not isinstance(trees, Mapping):
        raise DesignationError(
            "MISSING_TREE", f"trees {trees!r} are not a map of aspects to trees")
    _require_designation(d)
    resolutions = []
    for chain in d.chains:
        tree = trees.get(chain.aspect)
        if tree is None:
            raise DesignationError(
                "MISSING_TREE", f"no breakdown tree for aspect {chain.aspect.value}"
            )
        resolutions.append(ChainResolution(chain=chain, matches=resolve(tree, chain)))
    return UnambiguityReport(resolutions=tuple(resolutions))


@dataclass(frozen=True)
class DccTable:
    """Document classification codes: area letters and class letter pairs,
    kept in read-only copies; hashed by name, rebuilt when copied."""

    name: str
    areas: Mapping[str, str] = field(hash=False)
    classes: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        Kind(str).check(self.name, "DCC table name", DesignationError)
        for attr in ("areas", "classes"):
            codes = getattr(self, attr)
            if not isinstance(codes, Mapping) or not all(
                    isinstance(item, str) for item in (*codes, *codes.values())):
                raise unsupported(DesignationError, f"DCC table {attr}",
                                  "a map of text to text", codes)
            object.__setattr__(self, attr, MappingProxyType(dict(codes)))

    def __reduce__(self):
        return type(self), (self.name, dict(self.areas), dict(self.classes))

    def area_label(self, letter: str) -> str | None:
        return self.areas.get(letter)

    def class_label(self, letters: str) -> str | None:
        return self.classes.get(letters)


BUILTIN_DCC_TABLE = DccTable(
    name="builtin",
    areas={
        "A": "overall management",
        "M": "mechanical engineering",
    },
    classes={
        "CA": "contractual and nontechnical documents",
    },
)

_DCC_RE = re.compile(r"[A-Z]{3}\Z")


@dataclass(frozen=True)
class DocumentDesignation:
    """A system designation plus a three-letter classification code."""

    system: MultiAspectDesignation
    dcc: str
    table_ref: str = BUILTIN_DCC_TABLE.name

    def __post_init__(self) -> None:
        _require_designation(self.system)
        if not isinstance(self.dcc, str) or not _DCC_RE.match(self.dcc):
            raise DesignationError(
                "MALFORMED_DCC",
                f"dcc {self.dcc!r} is not exactly three uppercase letters",
            )
        Kind(str).check(self.table_ref, "DCC table reference", DesignationError)

    @property
    def area(self) -> str:
        return self.dcc[0]

    @property
    def document_class(self) -> str:
        return self.dcc[1:]

    def __str__(self) -> str:
        return format_document_designation(self)


def parse_document_designation(
    text: str, table: DccTable = BUILTIN_DCC_TABLE
) -> DocumentDesignation:
    """Split ``<system designation>&<DCC>`` and validate the area letter."""
    if not isinstance(text, str):
        raise _not_text("document designation", text)
    Kind(DccTable).check(table, "DCC table", DesignationError)
    cut = text.find("&")
    if cut < 0:
        raise DesignationError(
            "NO_AMPERSAND", "document designation has no '&' separator"
        )
    dd = DocumentDesignation(system=parse_designation(text[:cut]),
                             dcc=text[cut + 1:], table_ref=table.name)
    if table.area_label(dd.area) is None:
        raise DesignationError(
            "UNKNOWN_TECHNICAL_AREA",
            f"area letter {dd.area!r} not in DCC table {table.name!r}",
        )
    return dd


def format_document_designation(d: DocumentDesignation) -> str:
    if not isinstance(d, DocumentDesignation):
        raise DesignationError("BAD_PREFIX", f"document designation {d!r} "
                               "is not a DocumentDesignation")
    return f"{format_designation(d.system)}&{d.dcc}"


class _Designation(Kind):
    """A DocumentDesignation or None, which a file holds as its text or
    leaves out; only designations of the builtin DCC table load back."""

    omit = True

    def fits(self, value: object) -> bool:
        return value is None or isinstance(value, DocumentDesignation)

    def load(self, raw, path, key, error):
        return nested(error, _at(path, key), parse_document_designation, raw)

    def dump(self, values, path, key, error):
        for i, value in enumerate(values):
            if value and (value.table_ref != BUILTIN_DCC_TABLE.name
                          or value.area not in BUILTIN_DCC_TABLE.areas):
                raise error("CUSTOM_DCC_TABLE", f"{str(value)!r} is not a document "
                            "designation of the builtin DCC table",
                            path=f"{path}[{i}].{key}")
        return [value and format_document_designation(value) for value in values]


DOCUMENT_DESIGNATION = _Designation(DocumentDesignation, str)


def loads_dcc_table(text: str | bytes) -> DccTable:
    """Load a DCC table document: {"name", "areas": {...}, "classes": {...}}."""
    doc = decode(text, DesignationError, "DCC table")
    name = nonempty(doc, "name", None, DesignationError, "custom")
    areas = get(doc, "areas", dict, None, DesignationError)
    classes = get(doc, "classes", dict, None, DesignationError, {})
    for key, codes, width in (("areas", areas, 1), ("classes", classes, 2)):
        for code in codes:
            if not re.fullmatch(r"[A-Z]" * width, code):
                raise DesignationError(
                    "SCHEMA_ERROR",
                    f"{key} key {code!r} must be {width} uppercase letter(s)",
                    path=key,
                )
            nonempty(codes, code, key, DesignationError)
    if not areas:
        raise DesignationError("SCHEMA_ERROR", "DCC table defines no areas",
                               path="areas")
    return DccTable(name=name, areas=areas, classes=classes)
