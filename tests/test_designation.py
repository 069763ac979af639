"""Designation grammar, breakdown resolution, and document codes."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlib
from essencekit import (
    Aspect,
    AspectChain,
    BreakdownNode,
    BreakdownTree,
    DccTable,
    DesignationError,
    DocumentDesignation,
    MultiAspectDesignation,
    check_at_least_one_unambiguous,
    format_designation,
    format_document_designation,
    loads_dcc_table,
    parse_designation,
    parse_document_designation,
    resolve,
)
from essencekit.designation import BUILTIN_DCC_TABLE

EXAMPLE = "=F1 / -12-N4-DN18 / +M13"

PARSE_ERROR_CODES = frozenset(
    {"EMPTY_INPUT", "BAD_PREFIX", "BAD_SEGMENT", "MIXED_CHAIN", "DUPLICATE_ASPECT"})


def parse_code(text: str) -> str:
    with pytest.raises(DesignationError) as err:
        parse_designation(text)
    return err.value.code


def test_parse_three_aspect_example():
    d = parse_designation(EXAMPLE)
    assert [(c.aspect, c.segments) for c in d.chains] == [
        (Aspect.FUNCTION, ("F1",)),
        (Aspect.PRODUCT, ("12", "N4", "DN18")),
        (Aspect.LOCATION, ("M13",)),
    ]
    assert format_designation(d) == EXAMPLE


def test_parse_single_chain():
    d = parse_designation("=A1")
    assert d.chains == (AspectChain(Aspect.FUNCTION, ("A1",)),)


def test_parse_multi_segment_chain():
    d = parse_designation("+M13+A1+12")
    assert d.chains[0].segments == ("M13", "A1", "12")


def test_whitespace_around_separator_is_optional():
    tight = parse_designation("=F1/-12-N4-DN18/+M13")
    wide = parse_designation("=F1   /   -12-N4-DN18 /+M13")
    assert tight == wide == parse_designation(EXAMPLE)


def test_error_codes_by_input():
    cases = {
        "": "EMPTY_INPUT",
        "F1": "BAD_PREFIX",
        " =F1": "BAD_PREFIX",
        "=F1 /": "BAD_PREFIX",
        "/=F1": "BAD_PREFIX",
        "=": "BAD_SEGMENT",
        "=f1": "BAD_SEGMENT",
        "=F1 ": "BAD_SEGMENT",
        "=F1 x": "BAD_SEGMENT",
        "=F1x": "BAD_SEGMENT",
        "=F1\t/ +M13": "BAD_SEGMENT",
        "=F1-N4": "MIXED_CHAIN",
        "-12=F1": "MIXED_CHAIN",
        "=F1/=F2": "DUPLICATE_ASPECT",
        "=F1 / =F1": "DUPLICATE_ASPECT",
        "=F1 / -12 / -N4": "DUPLICATE_ASPECT",
    }
    for text, code in cases.items():
        assert parse_code(text) == code, text


def test_error_reports_column():
    with pytest.raises(DesignationError) as err:
        parse_designation(" =F1")
    assert "column 1" in err.value.message
    with pytest.raises(DesignationError) as err:
        parse_designation("=F1-N4")
    assert "column 4" in err.value.message


def test_format_reorders_to_canonical_aspect_order():
    d = parse_designation("+M13 / =F1")
    assert format_designation(d) == "=F1 / +M13"


def test_equality_is_aspect_keyed():
    a = parse_designation("+M13 / =F1")
    b = parse_designation("=F1 / +M13")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_designation("=F1")
    assert parse_designation("=F1") != parse_designation("=F2")


def test_chain_str_uses_prefix():
    chain = AspectChain(Aspect.PRODUCT, ("12", "N4"))
    assert str(chain) == "-12-N4"


def test_chain_rejects_bad_segments():
    for segments in ((), ("",), ("f1",), ("F 1",), ("Ф1",)):
        with pytest.raises(DesignationError) as err:
            AspectChain(Aspect.FUNCTION, segments)
        assert err.value.code == "BAD_SEGMENT"


@pytest.mark.parametrize("make, code", [
    (lambda: BreakdownNode(5), "BAD_SEGMENT"),
    (lambda: BreakdownNode(None), "BAD_SEGMENT"),
    (lambda: AspectChain(Aspect.PRODUCT, (5,)), "BAD_SEGMENT"),
    (lambda: AspectChain(Aspect.PRODUCT, ("A", b"B")), "BAD_SEGMENT"),
    (lambda: AspectChain(Aspect.PRODUCT, "A1"), "BAD_SEGMENT"),
    (lambda: DocumentDesignation(parse_designation("=F1"), 5), "MALFORMED_DCC"),
    (lambda: DocumentDesignation(parse_designation("=F1"), None),
     "MALFORMED_DCC"),
    (lambda: BreakdownNode("A", (5,)), "BAD_SEGMENT"),
    (lambda: BreakdownNode("A", "B"), "BAD_SEGMENT"),
    (lambda: BreakdownTree(Aspect.PRODUCT, ("A",)), "BAD_SEGMENT"),
    (lambda: AspectChain(Aspect.PRODUCT, 5), "BAD_SEGMENT"),
    (lambda: BreakdownNode("A", 5), "BAD_SEGMENT"),
    (lambda: BreakdownTree(Aspect.PRODUCT, None), "BAD_SEGMENT"),
    (lambda: MultiAspectDesignation(5), "BAD_SEGMENT"),
    (lambda: MultiAspectDesignation(("x",)), "BAD_SEGMENT"),
    (lambda: DocumentDesignation(system="x", dcc="MCA"), "BAD_PREFIX"),
    (lambda: DocumentDesignation(parse_designation("=F1"), "MCA", table_ref=5),
     "UNSUPPORTED_VALUE"),
], ids=["node-int", "node-none", "chain-int", "chain-bytes", "chain-text",
        "dcc-int", "dcc-none", "child-int", "children-text", "root-text",
        "segments-int", "children-int", "roots-none", "chains-int",
        "chains-text", "system-text", "table-ref-int"])
def test_constructors_refuse_values_of_other_types_with_their_codes(make, code):
    with pytest.raises(DesignationError) as err:
        make()
    assert err.value.code == code


def test_designation_needs_chains():
    with pytest.raises(DesignationError) as err:
        MultiAspectDesignation(chains=())
    assert err.value.code == "EMPTY_INPUT"
    with pytest.raises(DesignationError) as err:
        MultiAspectDesignation(chains=(
            AspectChain(Aspect.FUNCTION, ("A",)),
            AspectChain(Aspect.FUNCTION, ("B",))))
    assert err.value.code == "DUPLICATE_ASPECT"


segments_st = st.lists(
    st.text(alphabet=string.ascii_uppercase + string.digits,
            min_size=1, max_size=4),
    min_size=1, max_size=4).map(tuple)


@st.composite
def designations(draw):
    aspects = draw(st.lists(
        st.sampled_from(tuple(Aspect)), unique=True, min_size=1, max_size=3))
    return MultiAspectDesignation(chains=tuple(
        AspectChain(aspect=a, segments=draw(segments_st)) for a in aspects))


@given(designations())
def test_parse_inverts_format(d):
    assert parse_designation(format_designation(d)) == d


@given(designations())
def test_format_is_idempotent_canonical_form(d):
    text = format_designation(d)
    assert format_designation(parse_designation(text)) == text


@given(designations(), st.sampled_from(["/", " /", "/ ", "    /  "]))
def test_separator_spacing_is_immaterial(d, sep):
    loose = format_designation(d).replace(" / ", sep)
    assert parse_designation(loose) == d


@settings(max_examples=300)
@given(st.text(max_size=24))
def test_parser_is_total_over_text(text):
    try:
        parse_designation(text)
    except DesignationError as err:
        assert err.code in PARSE_ERROR_CODES


def parse_outcome(parse, text):
    """The chains a parser gives, in order, or the (code, message) it
    raises."""
    try:
        return parse(text).chains
    except DesignationError as err:
        return err.code, err.message


@settings(max_examples=1000)
@given(st.one_of(
    st.text(alphabet="=+-/ ABZ019az\t&.", max_size=24),
    st.text(max_size=24),
    st.lists(st.sampled_from(["=", "-", "+", "A1", "Z", "/", " / ", " ", "a"]),
             max_size=12).map("".join)))
def test_parser_agrees_with_the_character_scanner(text):
    assert parse_outcome(parse_designation, text) == parse_outcome(
        genlib.reference_parse_designation, text)


def test_parser_agrees_with_the_character_scanner_on_long_chains():
    for text in ("-" + "-".join(["AB12"] * 5000),
                 "=A" * 3000 + " / " + "+B" * 3000,
                 "-A" * 3000 + "-",
                 "-A" * 3000 + "=A",
                 "-A" * 3000 + "  ",
                 "-A" * 3000 + " / " + "-A"):
        assert parse_outcome(parse_designation, text) == parse_outcome(
            genlib.reference_parse_designation, text)


def test_parsed_values_are_the_values_their_constructors_build():
    parsed = parse_designation("+M13 / -12-N4-DN18")
    built = MultiAspectDesignation(chains=(
        AspectChain(Aspect.LOCATION, ("M13",)),
        AspectChain(Aspect.PRODUCT, ("12", "N4", "DN18"))))
    pairs = [*zip(parsed.chains, built.chains), (parsed, built)]
    for value, expected in pairs:
        assert value == expected
        assert hash(value) == hash(expected)
        assert repr(value) == repr(expected)
        assert str(value) == str(expected)
        assert pickle.loads(pickle.dumps(value)) == expected
        assert copy.deepcopy(value) == expected
    with pytest.raises(DesignationError) as err:
        dataclasses.replace(parsed.chains[0], segments=("x",))
    assert err.value.code == "BAD_SEGMENT"
    with pytest.raises(DesignationError) as err:
        dataclasses.replace(parsed, chains=parsed.chains * 2)
    assert err.value.code == "DUPLICATE_ASPECT"


@pytest.mark.parametrize("text", [None, 5, b"=F1", ["=F1"]],
                         ids=["none", "int", "bytes", "list"])
def test_parsers_refuse_input_that_is_not_text(text):
    kind = type(text).__name__
    with pytest.raises(DesignationError) as err:
        parse_designation(text)
    assert (err.value.code, err.value.message) == (
        "BAD_PREFIX", f"designation must be text, not {kind}")
    with pytest.raises(DesignationError) as err:
        parse_document_designation(text)
    assert (err.value.code, err.value.message) == (
        "BAD_PREFIX", f"document designation must be text, not {kind}")


# Breakdown trees and resolution


def product_tree() -> BreakdownTree:
    return BreakdownTree(aspect=Aspect.PRODUCT, roots=(
        BreakdownNode("12", (
            BreakdownNode("N4", (BreakdownNode("DN18"),)),)),
        BreakdownNode("13", (
            BreakdownNode("N4", (BreakdownNode("DN18"),)),)),
    ))


def function_tree() -> BreakdownTree:
    return BreakdownTree(aspect=Aspect.FUNCTION, roots=(
        BreakdownNode("F1", (BreakdownNode("F2"), BreakdownNode("F3"))),))


def test_tree_paths_depth_first():
    assert function_tree().paths() == (("F1",), ("F1", "F2"), ("F1", "F3"))


def test_duplicate_siblings_rejected():
    with pytest.raises(DesignationError) as err:
        BreakdownTree(aspect=Aspect.FUNCTION,
                      roots=(BreakdownNode("A"), BreakdownNode("A")))
    assert err.value.code == "DUPLICATE_SIBLING"
    with pytest.raises(DesignationError) as err:
        BreakdownNode("A", (BreakdownNode("B"), BreakdownNode("B")))
    assert err.value.code == "DUPLICATE_SIBLING"


def test_node_segment_validated():
    with pytest.raises(DesignationError) as err:
        BreakdownNode("a1")
    assert err.value.code == "BAD_SEGMENT"


def test_resolve_unique_full_path():
    matches = resolve(product_tree(), AspectChain(Aspect.PRODUCT, ("12", "N4", "DN18")))
    assert matches == (("12", "N4", "DN18"),)


def test_resolve_ambiguous_suffix():
    matches = resolve(product_tree(), AspectChain(Aspect.PRODUCT, ("N4", "DN18")))
    assert matches == (("12", "N4", "DN18"), ("13", "N4", "DN18"))


def test_resolve_absent_suffix():
    assert resolve(product_tree(), AspectChain(Aspect.PRODUCT, ("Z9",))) == ()
    assert resolve(product_tree(), AspectChain(Aspect.PRODUCT, ("DN18", "N4"))) == ()


def test_resolve_wrong_aspect():
    with pytest.raises(DesignationError) as err:
        resolve(product_tree(), AspectChain(Aspect.FUNCTION, ("F1",)))
    assert err.value.code == "ASPECT_MISMATCH"


@pytest.mark.parametrize("chain", ["-12", ("12",), None],
                         ids=["text", "tuple", "none"])
def test_resolve_refuses_a_chain_that_is_no_chain(chain):
    with pytest.raises(DesignationError) as err:
        resolve(product_tree(), chain)
    assert (err.value.code, err.value.message) == (
        "BAD_SEGMENT", f"chain {chain!r} is not an AspectChain")


@pytest.mark.parametrize("check, code", [
    (lambda: resolve("x", AspectChain(Aspect.PRODUCT, ("12",))),
     "MISSING_TREE"),
    (lambda: check_at_least_one_unambiguous(
        ["x"], parse_designation("-12")), "MISSING_TREE"),
    (lambda: check_at_least_one_unambiguous(
        {Aspect.PRODUCT: "x"}, parse_designation("-12")), "MISSING_TREE"),
    (lambda: check_at_least_one_unambiguous({}, "x"), "BAD_PREFIX"),
    (lambda: format_designation(5), "BAD_PREFIX"),
    (lambda: format_document_designation(5), "BAD_PREFIX"),
], ids=["resolve-tree-text", "trees-list", "tree-text", "designation-text",
        "format-int", "format-document-int"])
def test_checks_refuse_trees_and_designations_of_other_types(check, code):
    with pytest.raises(DesignationError) as err:
        check()
    assert err.value.code == code


def test_resolve_matches_suffix_oracle_on_random_trees():
    rng = random.Random(4810)
    for _ in range(120):
        aspect = rng.choice(list(Aspect))
        tree = genlib.random_tree(rng, aspect)
        paths = genlib.enumerate_paths(tree)
        assert sorted(tree.paths()) == sorted(paths)
        in_order = genlib.depth_first_paths(tree)
        assert tree.paths() == tuple(in_order)
        for _ in range(6):
            chain = genlib.random_chain(rng, aspect, paths)
            matches = resolve(tree, chain)
            assert len(matches) == genlib.suffix_count(paths, chain.segments)
            assert matches == genlib.suffix_matches(in_order, chain.segments)


def test_resolve_edge_chains_match_the_oracle():
    rng = random.Random(9127)
    for _ in range(60):
        aspect = rng.choice(list(Aspect))
        tree = genlib.random_tree(rng, aspect)
        paths = genlib.depth_first_paths(tree)
        longest = max(paths, key=len)
        chains = [(segment,) for segment in genlib.SEGMENT_POOL]  # one segment
        chains += [path for path in paths if len(path) > 1]  # full root paths
        chains.append(("Z9",) + longest)  # longer than any path
        chains.append(longest[:-1] + ("Z9",))  # absent last segment
        chains.append(longest + ("Z9",))
        for segments in chains:
            chain = AspectChain(aspect, segments)
            assert resolve(tree, chain) == genlib.suffix_matches(paths, segments)


def test_tree_index_is_invisible_to_value_semantics():
    rng = random.Random(3301)
    for _ in range(30):
        aspect = rng.choice(list(Aspect))
        tree = genlib.random_tree(rng, aspect)
        twin = BreakdownTree(aspect=aspect, roots=tree.roots)
        chains = [genlib.random_chain(rng, aspect, list(tree.paths()))
                  for _ in range(4)]
        before = [resolve(twin, chain) for chain in chains]
        fresh = BreakdownTree(aspect=aspect, roots=tree.roots)
        assert twin == fresh and hash(twin) == hash(fresh)  # one resolved
        assert repr(twin) == repr(fresh)
        for clone in (copy.copy(twin), copy.deepcopy(twin),
                      pickle.loads(pickle.dumps(twin)),
                      dataclasses.replace(twin), copy.copy(fresh)):
            assert clone == twin and hash(clone) == hash(twin)
            assert [resolve(clone, chain) for chain in chains] == before
        assert len(pickle.dumps(twin)) == len(pickle.dumps(fresh))
        assert [resolve(fresh, chain) for chain in chains] == before


def test_deep_chain_tree_resolves_without_recursion():
    depth = 1500
    tree = genlib.chain_tree(Aspect.LOCATION, depth)
    full = tuple(f"N{level}" for level in range(1, depth + 1))
    assert tree.paths() == tuple(full[:n] for n in range(1, depth + 1))
    assert resolve(tree, AspectChain(Aspect.LOCATION, full)) == (full,)
    assert resolve(tree, AspectChain(Aspect.LOCATION, full[-3:])) == (full,)
    assert resolve(tree, AspectChain(Aspect.LOCATION, ("N1", "N3"))) == ()
    report = check_at_least_one_unambiguous(
        {Aspect.LOCATION: tree}, parse_designation(f"+N{depth - 1}+N{depth}"))
    assert report.ok
    assert report.resolutions[0].matches == (full,)


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_value_operations_on_a_deep_tree_keep_their_own_stack():
    # Equality, hash, pickles, copies and replace work on the tree's
    # depth-first arrays.
    tree = genlib.chain_tree(Aspect.LOCATION, 1500)
    twin = genlib.chain_tree(Aspect.LOCATION, 1500)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 30)
    try:
        same = tree == twin and hash(tree) == hash(twin)
        clones = (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree),
                  dataclasses.replace(tree))
        shorter = tree == genlib.chain_tree(Aspect.LOCATION, 1499)
    finally:
        sys.setrecursionlimit(limit)
    assert same and not shorter
    for clone in clones:
        assert clone == tree and hash(clone) == hash(tree)
        assert clone.paths() == tree.paths()


def generated_repr(node: BreakdownNode) -> str:
    """The repr that dataclass generates for a node, by recursion."""
    children = ", ".join(map(generated_repr, node.children))
    comma = "," if len(node.children) == 1 else ""
    return f"BreakdownNode(segment={node.segment!r}, children=({children}{comma}))"


def test_node_repr_is_the_dataclass_repr():
    assert repr(BreakdownNode("A", (BreakdownNode("B"),))) == (
        "BreakdownNode(segment='A', children=(BreakdownNode(segment='B', "
        "children=()),))")
    rng = random.Random(2718)
    for _ in range(50):
        for root in genlib.random_tree(rng, Aspect.PRODUCT, max_nodes=30).roots:
            assert repr(root) == generated_repr(root)


def test_deep_nodes_compare_hash_and_repr_with_their_own_stack():
    node = genlib.chain_tree(Aspect.PRODUCT, 2000).roots[0]
    twin = genlib.chain_tree(Aspect.PRODUCT, 2000).roots[0]
    shorter = genlib.chain_tree(Aspect.PRODUCT, 1999).roots[0]
    tree = BreakdownTree(Aspect.PRODUCT, (node,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 30)
    try:
        equal = node == twin and node != shorter and hash(node) == hash(twin)
        text = repr(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert equal
    assert text == ("BreakdownTree(aspect=<Aspect.PRODUCT: 'Product'>, roots=("
                    + "".join(f"BreakdownNode(segment='N{level}', children=("
                              for level in range(1, 2001))
                    + "))" + ",))" * 1999 + ",))")


def test_unambiguity_check_pass_and_fail():
    trees = {Aspect.FUNCTION: function_tree(), Aspect.PRODUCT: product_tree()}
    ok = check_at_least_one_unambiguous(trees, parse_designation("=F1 / -DN18"))
    assert ok.ok
    assert [r.count for r in ok.resolutions] == [1, 2]
    assert [r.unambiguous for r in ok.resolutions] == [True, False]

    ambiguous = check_at_least_one_unambiguous(trees, parse_designation("-N4-DN18"))
    assert not ambiguous.ok

    absent = check_at_least_one_unambiguous(trees, parse_designation("=Z9"))
    assert not absent.ok
    assert absent.resolutions[0].count == 0


def test_unambiguity_check_needs_trees():
    trees = {Aspect.FUNCTION: function_tree()}
    with pytest.raises(DesignationError) as err:
        check_at_least_one_unambiguous(trees, parse_designation("=F1 / +M13"))
    assert err.value.code == "MISSING_TREE"


# Document designations


def test_parse_document_designation():
    doc = parse_document_designation("=F1&MCA")
    assert format_designation(doc.system) == "=F1"
    assert doc.dcc == "MCA"
    assert doc.area == "M"
    assert doc.document_class == "CA"
    assert doc.table_ref == "builtin"
    assert format_document_designation(doc) == "=F1&MCA"
    assert str(doc) == "=F1&MCA"


def test_builtin_dcc_table_labels():
    assert BUILTIN_DCC_TABLE.area_label("A") == "overall management"
    assert BUILTIN_DCC_TABLE.area_label("M") == "mechanical engineering"
    assert BUILTIN_DCC_TABLE.area_label("X") is None
    assert BUILTIN_DCC_TABLE.class_label("CA") == (
        "contractual and nontechnical documents")
    assert BUILTIN_DCC_TABLE.class_label("ZZ") is None


def test_document_designation_error_codes():
    def code_of(text: str) -> str:
        with pytest.raises(DesignationError) as err:
            parse_document_designation(text)
        return err.value.code

    assert code_of("=F1") == "NO_AMPERSAND"
    assert code_of("=F1&MC") == "MALFORMED_DCC"
    assert code_of("=F1&MCAA") == "MALFORMED_DCC"
    assert code_of("=F1&mca") == "MALFORMED_DCC"
    assert code_of("=F1&MCA&X") == "MALFORMED_DCC"
    assert code_of("=F1&XCA") == "UNKNOWN_TECHNICAL_AREA"
    assert code_of("F1&MCA") == "BAD_PREFIX"
    assert code_of("&MCA") == "EMPTY_INPUT"


@pytest.mark.parametrize("dcc", ["MC", "MCAA", "mca", "", "MCA\n"])
def test_document_designation_value_refuses_a_bad_dcc(dcc):
    with pytest.raises(DesignationError) as err:
        DocumentDesignation(system=parse_designation("=F1"), dcc=dcc)
    assert (err.value.code, err.value.message) == (
        "MALFORMED_DCC", f"dcc {dcc!r} is not exactly three uppercase letters")


def test_only_area_letter_is_validated():
    doc = parse_document_designation("=F1&MZZ")
    assert doc.area == "M"
    assert BUILTIN_DCC_TABLE.class_label(doc.document_class) is None


def test_custom_dcc_table():
    table = loads_dcc_table(
        '{"name": "plant", "areas": {"X": "process engineering"}}')
    doc = parse_document_designation("=F1&XCA", table=table)
    assert doc.table_ref == "plant"
    with pytest.raises(DesignationError) as err:
        parse_document_designation("=F1&MCA", table=table)
    assert err.value.code == "UNKNOWN_TECHNICAL_AREA"


def test_loads_dcc_table_errors():
    def code_of(text: str) -> str:
        with pytest.raises(DesignationError) as err:
            loads_dcc_table(text)
        return err.value.code

    assert code_of("{nope") == "PARSE_ERROR"
    assert code_of("[" * 5000 + "]" * 5000) == "PARSE_ERROR"
    assert code_of('["A"]') == "SCHEMA_ERROR"
    assert code_of('{"areas": {}}') == "SCHEMA_ERROR"
    assert code_of('{"areas": {"AA": "double"}}') == "SCHEMA_ERROR"
    assert code_of('{"areas": {"A": ""}}') == "SCHEMA_ERROR"
    assert code_of('{"areas": {"A": "ok"}, "classes": {"C": "short"}}') == (
        "SCHEMA_ERROR")
    assert code_of('{"name": "", "areas": {"A": "ok"}}') == "SCHEMA_ERROR"


def test_loads_dcc_table_defaults():
    table = loads_dcc_table('{"areas": {"A": "general"}}')
    assert table.name == "custom"
    assert table.classes == {}


@pytest.mark.parametrize("args, message", [
    ((5, {"A": "general"}), "DCC table name must be text, not int"),
    (("x", 5), "DCC table areas must be a map of text to text, not int"),
    (("x", [("A", "general")]),
     "DCC table areas must be a map of text to text, not list"),
    (("x", {1: "general"}), "DCC table areas must be a map of text to text, not dict"),
    (("x", {"A": None}), "DCC table areas must be a map of text to text, not dict"),
    (("x", {"A": "general"}, None),
     "DCC table classes must be a map of text to text, not NoneType"),
    (("x", {"A": "general"}, {"CA": b"contracts"}),
     "DCC table classes must be a map of text to text, not dict"),
])
def test_dcc_table_refuses_fields_of_another_type(args, message):
    with pytest.raises(DesignationError) as err:
        DccTable(*args)
    assert (err.value.code, err.value.message, err.value.path) == (
        "UNSUPPORTED_VALUE", message, None)


def test_a_table_that_is_no_table_never_reaches_the_parser():
    with pytest.raises(DesignationError) as err:
        parse_document_designation("=F1&ACA", DccTable("x", 5))
    assert err.value.code == "UNSUPPORTED_VALUE"


def test_dcc_table_keeps_read_only_copies_of_its_maps():
    areas, classes = {"A": "general"}, {"CA": "contracts"}
    table = DccTable("plant", areas, classes)
    areas["B"] = "y"
    classes["ZZ"] = "z"
    assert table.area_label("B") is None and table.class_label("ZZ") is None
    loaded = loads_dcc_table('{"areas": {"A": "general"}}')
    for codes in (table.areas, table.classes, loaded.areas,
                  BUILTIN_DCC_TABLE.areas):
        with pytest.raises(TypeError):
            codes["B"] = "y"
    assert loaded.area_label("B") is None
    assert table.areas == {"A": "general"}


def test_equal_dcc_tables_hash_equal():
    table = DccTable("plant", {"A": "general"}, {"CA": "contracts"})
    same = loads_dcc_table('{"name": "plant", "areas": {"A": "general"}, '
                           '"classes": {"CA": "contracts"}}')
    assert table == same and hash(table) == hash(same)
    assert table != DccTable("plant", {"A": "other"}, {"CA": "contracts"})
    assert len({table, same, BUILTIN_DCC_TABLE}) == 2


def test_dcc_tables_survive_pickles_copies_and_replace():
    for table in (BUILTIN_DCC_TABLE, DccTable("plant", {"A": "general"})):
        for twin in (pickle.loads(pickle.dumps(table)), copy.copy(table),
                     copy.deepcopy(table), dataclasses.replace(table)):
            assert twin == table and hash(twin) == hash(table)
            assert twin.area_label("A") == table.area_label("A")
            with pytest.raises(TypeError):
                twin.areas["B"] = "y"
    renamed = dataclasses.replace(BUILTIN_DCC_TABLE, name="copy")
    assert renamed.areas == BUILTIN_DCC_TABLE.areas and renamed.name == "copy"
    with pytest.raises(DesignationError):
        dataclasses.replace(BUILTIN_DCC_TABLE, areas=5)
