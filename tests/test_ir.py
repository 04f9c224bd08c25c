import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersat.equiv import sample_rule_instance
from powersat.ir import (
    ARITY,
    BitVec,
    DesignBuilder,
    NetlistError,
    ParseError,
    WidthError,
    infer_width,
    parse_design,
    print_design,
)

from powersat.rewrite import rule_library

from _util import EVERY_KIND, chain, random_design

FIG1 = """
(module fig1
  (input s 1)
  (input a 16)
  (input b 8)
  (input c 8)
  (output out (mux s a (mul c b))))
"""


def test_parse_minimal_module():
    d = parse_design("(module m (input a 4) (output y (add a (const 4 1))))")
    assert d.name == "m"
    add = d.nodes[d.outputs[0][1]]
    assert add.kind == "add" and add.width == 4


def test_parse_fig1_shape():
    d = parse_design(FIG1)
    assert len(d.nodes) == 6  # four vars, the mul, the mux
    kinds = sorted(n.kind for n in d.nodes)
    assert kinds == ["mul", "mux", "var", "var", "var", "var"]
    mul = next(n for n in d.nodes if n.kind == "mul")
    assert mul.width == 16


def test_ragged_add_rejected():
    with pytest.raises(NetlistError, match="width"):
        parse_design("(module m (input a 4) (input b 8) (output y (add a b)))")


def test_print_single_var():
    b = DesignBuilder("m")
    b.add_input("a", 4)
    b.add_output("y", b.var("a"))
    text = print_design(b.finish())
    assert "(input a 4)" in text and "(output y a)" in text
    assert parse_design(text) == b.finish()


def test_roundtrip_fig1():
    d = parse_design(FIG1)
    assert parse_design(print_design(d)) == d


def test_parse_is_deterministic():
    assert parse_design(FIG1) == parse_design(FIG1)


def test_shared_subexpression_interned():
    d = parse_design("(module m (input a 4) (output y (add a a)))")
    assert len(d.nodes) == 2  # one var, one add


def test_three_operand_add_clusters():
    d = parse_design("(module m (input a 4) (input b 4) (input c 4) (output y (add a b c)))")
    root = d.nodes[d.outputs[0][1]]
    assert root.kind == "add3"
    assert parse_design(print_design(d)) == d


def test_comments_and_hex():
    d = parse_design("""
    (module m (input a 8)          ; an input
      (output y (xor a (const 8 0xff))))  ; invert via xor
    """)
    const = next(n for n in d.nodes if n.kind == "const")
    assert const.value == 255


def test_rep_syntax_roundtrip():
    d = parse_design("(module m (input s 1) (output y (rep4 s)))")
    root = d.nodes[d.outputs[0][1]]
    assert root.kind == "rep" and root.count == 4 and root.width == 4
    assert "rep4" in print_design(d)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_design("(module m\n  (input a 4)\n  (output y (add a)))")
    assert e.value.line == 3


def test_chain_deeper_than_the_recursion_limit_round_trips_as_text():
    d = chain(2000)
    assert parse_design(print_design(d)) == d


def test_error_deeper_than_the_recursion_limit_carries_position():
    line = " (output y " + "(not " * 1500 + "(foo a)" + ")" * 1500 + ")"
    with pytest.raises(ParseError, match="unknown operator 'foo'") as e:
        parse_design("(module m (input a 4)\n" + line + ")")
    assert (e.value.line, e.value.col) == (2, line.index("foo") + 1)


def test_undeclared_port():
    with pytest.raises(NetlistError):
        parse_design("(module m (input a 4) (output y (not b)))")


def test_bitvec_bounds():
    assert BitVec(4, 15).value == 15
    with pytest.raises(WidthError):
        BitVec(4, 16)
    with pytest.raises(WidthError):
        BitVec(0, 0)


@pytest.mark.parametrize(
    "kind,widths,count,expect",
    [
        ("add", (4, 4), 0, 4),
        ("mul", (8, 8), 0, 16),
        ("rep", (1,), 8, 8),
        ("shl", (8, 3), 0, 8),
        ("not", (5,), 0, 5),
        ("mux", (1, 4, 4), 0, 4),
        ("reg", (8, 1), 0, 8),
        ("add3", (4, 4, 4), 0, 4),
    ],
)
def test_infer_width(kind, widths, count, expect):
    assert infer_width(kind, widths, count) == expect


def test_infer_width_rejections():
    with pytest.raises(WidthError):
        infer_width("add", (4, 8))
    with pytest.raises(WidthError):
        infer_width("mux", (2, 4, 4))  # select must be one bit
    with pytest.raises(WidthError):
        infer_width("reg", (8, 2))  # enable must be one bit
    with pytest.raises(WidthError):
        infer_width("rep", (4,), 0)  # zero replication


def test_mul_feeding_narrow_context_rejected():
    # widths never truncate implicitly; a 16-bit product cannot meet an 8-bit leg
    with pytest.raises(NetlistError, match="width"):
        parse_design(
            "(module m (input s 1) (input a 8) (input b 8) (input c 8)"
            " (output out (mux s a (mul c b))))"
        )


def test_builder_validates_arity():
    b = DesignBuilder("m")
    b.add_input("a", 4)
    with pytest.raises(NetlistError):
        b.op("add", b.var("a"))


HEAD = "(module m (input a 4) "

# One case per way a text can fail to parse: the text, where the error is
# reported, and its message. The last group comes from the builder, with
# the location of the token that built the failing node or port.
PARSE_ERRORS = [
    ("(mod m)", 1, 2, "expected 'module', got 'mod'"),
    ("(module 9m)", 1, 9, "bad module name '9m'"),
    ("(module m (input 9a 4))", 1, 18, "bad port name '9a'"),
    ("(module m (output 9y a))", 1, 19, "bad port name '9y'"),
    ("(module m (wire a 4))", 1, 12, "expected 'input' or 'output', got 'wire'"),
    ("(module m a)", 1, 11, "expected declaration, got 'a'"),
    ("(module m (input a 4) (output y a))\n x", 2, 2, "trailing input after module, got 'x'"),
    (HEAD + "(output y 5))", 1, 33, "expected signal name, got '5'"),
    (HEAD + "(output y ))", 1, 33, "expected expression, got ')'"),
    ("(module m (input a four))", 1, 20, "expected port width, got 'four'"),
    (HEAD + "(output y (const 4 x)))", 1, 42, "expected constant value, got 'x'"),
    (HEAD + "\n (output y (not a", 2, 13, "unexpected end of input, expected ')'"),
    ("(module m (input a", 1, 18, "unexpected end of input, expected port width"),
    (HEAD + "(output y a)", 1, 34, "unexpected end of input, expected declaration or ')'"),
    ("", 1, 1, "unexpected end of input, expected '('"),
    (")", 1, 1, "expected '(', got ')'"),
    (HEAD + "(output y (foo a)))", 1, 34, "unknown operator 'foo'"),
    (HEAD + "(output y (add3 a a a)))", 1, 34, "unknown operator 'add3'"),
    (HEAD + "(input a 2))", 1, 30, "duplicate port name 'a'"),
    (HEAD + "(output y a) (input y 4))", 1, 43, "duplicate port name 'y'"),
    (HEAD + "(output y a) (output y a))", 1, 44, "duplicate port name 'y'"),
    (HEAD + "(output a a))", 1, 31, "duplicate port name 'a'"),
    (HEAD + "(output y b))", 1, 33, "undeclared input 'b'"),
    (HEAD + "(output y (const 4 16)))", 1, 42, "value 16 does not fit in 4 bits"),
    (HEAD + "(input b 8) (output y (add a b)))", 1, 46,
     "add requires equal operand widths, got (4, 8)"),
    ("(module m (input a 0))", 1, 18, "input 'a' must be at least 1 bit wide"),
    (HEAD + "(output y (const 0 0)))", 1, 42, "bitvector width must be >= 1, got 0"),
    (HEAD + "(output y (rep0 a)))", 1, 34, "replication count must be >= 1, got 0"),
    (HEAD + "(output y (add a)))", 1, 34, "add expects 2 operands, got 1"),
    (HEAD + "(output y (rep2 a a)))", 1, 34, "rep expects 1 operands, got 2"),
    # With more than one fault, the first node built that fails is reported:
    # an operand is built before its operator, so the inner fault wins.
    (HEAD + "(output y (rep0 (foo a))))", 1, 40, "unknown operator 'foo'"),
    (HEAD + "(output y (rep0 (const 0 0))))", 1, 48, "bitvector width must be >= 1, got 0"),
]


@pytest.mark.parametrize("text,line,col,msg", PARSE_ERRORS)
def test_every_parse_error_names_its_place(text, line, col, msg):
    with pytest.raises(ParseError) as e:
        parse_design(text)
    assert (e.value.line, e.value.col, str(e.value)) == (line, col, f"{line}:{col}: {msg}")


# Inputs and outputs share one namespace, whichever is declared first.
def test_builder_rejects_a_port_name_used_twice():
    b = DesignBuilder("m")
    b.add_input("a", 4)
    b.add_output("y", b.var("a"))
    for add in (lambda: b.add_input("a", 4), lambda: b.add_input("y", 4),
                lambda: b.add_output("a", 0), lambda: b.add_output("y", 0)):
        with pytest.raises(NetlistError, match="duplicate port name"):
            add()
    assert b.inputs == [("a", 4)] and b.outputs == [("y", 0)]


def test_count_is_taken_only_by_rep():
    b = DesignBuilder("m")
    b.add_input("a", 4)
    a = b.var("a")
    with pytest.raises(NetlistError, match="only rep takes a count"):
        b.op("add", a, a, count=3)
    with pytest.raises(NetlistError, match="only rep takes a count"):
        b.op("not", a, count=1)
    b.add_output("y", b.op("rep", a, count=3))
    d = b.finish()
    assert parse_design(print_design(d)) == d


# Each bad index is refused where it is passed in: `finish` trusts the
# indices it holds, and from a negative child it would walk forever.
@pytest.mark.parametrize("bad", [-1, -2, 1, 7])
def test_builder_rejects_a_missing_child(bad):
    b = DesignBuilder("m")
    b.add_input("a", 4)
    b.var("a")
    with pytest.raises(NetlistError, match=f"not operand: node {bad} is not among the 1 nodes"):
        b.op("not", bad)
    with pytest.raises(NetlistError, match=f"add operand: node {bad} is not"):
        b.op("add", 0, bad)
    assert len(b.nodes) == 1


@pytest.mark.parametrize("bad", [-1, -2, 2, 7])
def test_builder_rejects_a_missing_output_node(bad):
    b = DesignBuilder("m")
    b.add_input("a", 4)
    b.op("not", b.var("a"))
    with pytest.raises(NetlistError, match=f"output 'y': node {bad} is not among the 2 nodes"):
        b.add_output("y", bad)
    assert b.outputs == []


def assert_well_formed(d):
    """What a built design always holds: distinct port names, children
    before their node, widths as declared or inferred, interned nodes."""
    declared = dict(d.inputs)
    names = [p for p, _ in d.inputs] + [p for p, _ in d.outputs]
    assert len(set(names)) == len(names)
    assert all(0 <= idx < len(d.nodes) for _, idx in d.outputs)
    for i, n in enumerate(d.nodes):
        assert len(n.children) == ARITY[n.kind]
        assert all(0 <= c < i for c in n.children)
        if n.kind == "var":
            assert n.width == declared[n.port]
        elif n.kind == "const":
            BitVec(n.width, n.value)  # raises unless the value fits
        else:
            widths = tuple(d.nodes[c].width for c in n.children)
            assert n.width == infer_width(n.kind, widths, n.count)
            assert n.count == 0 or n.kind == "rep"
    assert len(set(d.nodes)) == len(d.nodes)


@settings(max_examples=150)
@given(st.integers(0, 10**9), st.sampled_from(["registers", "every", "rule"]))
def test_built_designs_are_well_formed(seed, source):
    rng = random.Random(seed)
    if source == "rule":
        rules = rule_library()
        designs = sample_rule_instance(rules[rng.randrange(len(rules))], rng)[0]
    elif source == "every":
        designs = [random_design(rng, max_nodes=14, kinds=EVERY_KIND)]
    else:
        designs = [random_design(rng)]
    for d in designs:
        assert_well_formed(d)


@settings(max_examples=80)
@given(st.integers(0, 10**9))
def test_roundtrip_random_designs(seed):
    d = random_design(random.Random(seed))
    assert parse_design(print_design(d)) == d
