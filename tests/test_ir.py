import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersat.ir import (
    BitVec,
    DesignBuilder,
    NetlistError,
    ParseError,
    WidthError,
    infer_width,
    parse_design,
    print_design,
)

from _util import chain, random_design

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


@settings(max_examples=80)
@given(st.integers(0, 10**9))
def test_roundtrip_random_designs(seed):
    d = random_design(random.Random(seed))
    assert parse_design(print_design(d)) == d
