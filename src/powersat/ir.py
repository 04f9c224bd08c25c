"""Word-level netlist IR: bitvectors, operator nodes, designs, and an s-expression syntax."""

import re
from dataclasses import dataclass, field


class NetlistError(Exception):
    pass


class ParseError(NetlistError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class WidthError(NetlistError):
    pass


# Fixed arity per operator. Variable-arity "add" in the surface syntax maps to
# "add" (2 children) or "add3" (3 children, a carry-save style clustered adder).
ARITY = {
    "var": 0,
    "const": 0,
    "not": 1,
    "rep": 1,
    "mux": 3,
    "add3": 3,
    "add": 2,
    "sub": 2,
    "mul": 2,
    "shl": 2,
    "shr": 2,
    "and": 2,
    "or": 2,
    "xor": 2,
    "reg": 2,
    "treg": 2,
}

# Operators whose children must all share the output width.
_EQUAL_WIDTH = {"add", "sub", "and", "or", "xor", "add3"}


@dataclass(frozen=True)
class BitVec:
    """An unsigned value of a fixed bit width."""

    width: int
    value: int

    def __post_init__(self):
        if self.width < 1:
            raise WidthError(f"bitvector width must be >= 1, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise WidthError(f"value {self.value} does not fit in {self.width} bits")


def infer_width(kind: str, child_widths: tuple[int, ...], count: int = 0) -> int:
    """Output width of an operator applied to children of the given widths."""
    if kind in _EQUAL_WIDTH:
        w = child_widths[0]
        if any(c != w for c in child_widths):
            raise WidthError(f"{kind} requires equal operand widths, got {child_widths}")
        return w
    if kind == "mux":
        ws, wa, wb = child_widths
        if ws != 1:
            raise WidthError(f"mux select must be 1 bit wide, got {ws}")
        if wa != wb:
            raise WidthError(f"mux branches must share a width, got {wa} and {wb}")
        return wa
    if kind in ("reg", "treg"):
        wd, we = child_widths
        if we != 1:
            raise WidthError(f"{kind} enable must be 1 bit wide, got {we}")
        return wd
    if kind == "mul":
        return child_widths[0] + child_widths[1]
    if kind in ("shl", "shr"):
        return child_widths[0]
    if kind == "not":
        return child_widths[0]
    if kind == "rep":
        if count < 1:
            raise WidthError(f"replication count must be >= 1, got {count}")
        return count * child_widths[0]
    raise WidthError(f"cannot infer width for operator {kind!r}")


@dataclass(frozen=True)
class Node:
    """One operator in a design. Children are indices of earlier nodes."""

    kind: str
    children: tuple[int, ...] = ()
    width: int = 0
    port: str = ""  # var: the input port it reads
    value: int = 0  # const: the literal value
    count: int = 0  # rep: the replication count


@dataclass
class Design:
    """An acyclic word-level netlist with named input and output ports.

    Nodes are structurally interned: two identical subexpressions share one
    node index, and indices are assigned in first-use order, so parsing the
    same text twice yields identical numbering.
    """

    name: str
    inputs: list[tuple[str, int]] = field(default_factory=list)
    outputs: list[tuple[str, int]] = field(default_factory=list)
    nodes: list[Node] = field(default_factory=list)

    def signature(self) -> tuple:
        return (tuple(self.inputs), tuple((name, self.nodes[idx].width) for name, idx in self.outputs))


class DesignBuilder:
    """Builds a Design with structural interning, and checks each fact of
    it as it enters: ports, operator arity, node indices and widths. This is
    the one place a design is checked; the parser adds only a location."""

    def __init__(self, name: str):
        self.name = name
        self.inputs: list[tuple[str, int]] = []
        self.outputs: list[tuple[str, int]] = []
        self.nodes: list[Node] = []
        self._intern: dict[Node, int] = {}
        self._declared: dict[str, int] = {}
        self._ports: set[str] = set()  # inputs and outputs share one namespace

    def _claim(self, port: str) -> None:
        if port in self._ports:
            raise NetlistError(f"duplicate port name {port!r}")
        self._ports.add(port)

    def add_input(self, port: str, width: int) -> None:
        if width < 1:
            raise WidthError(f"input {port!r} must be at least 1 bit wide")
        self._claim(port)
        self._declared[port] = width
        self.inputs.append((port, width))

    def _put(self, node: Node) -> int:
        idx = self._intern.get(node)
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(node)
            self._intern[node] = idx
        return idx

    def var(self, port: str) -> int:
        if port not in self._declared:
            raise NetlistError(f"undeclared input {port!r}")
        return self._put(Node("var", width=self._declared[port], port=port))

    def const(self, width: int, value: int) -> int:
        BitVec(width, value)
        return self._put(Node("const", width=width, value=value))

    def op(self, kind: str, *children: int, count: int = 0) -> int:
        if kind not in ARITY or kind in ("var", "const"):
            raise NetlistError(f"unknown operator {kind!r}")
        if len(children) != ARITY[kind]:
            raise NetlistError(f"{kind} expects {ARITY[kind]} operands, got {len(children)}")
        if count and kind != "rep":
            raise NetlistError(f"only rep takes a count, got {kind} with count {count}")
        built = len(self.nodes)
        for c in children:
            if not 0 <= c < built:
                raise NetlistError(f"{kind} operand: node {c} is not among the {built} nodes built")
        widths = tuple(self.nodes[c].width for c in children)
        width = infer_width(kind, widths, count)
        return self._put(Node(kind, tuple(children), width, count=count))

    def add_output(self, port: str, node: int) -> None:
        built = len(self.nodes)
        if not 0 <= node < built:
            raise NetlistError(f"output {port!r}: node {node} is not among the {built} nodes built")
        self._claim(port)
        self.outputs.append((port, node))

    def finish(self) -> Design:
        # Renumber into first-use order from the outputs so a Design built in
        # any topological order compares equal to its reparse. Nodes no output
        # reaches have no place in the expression syntax and are dropped. The
        # walk numbers a node once its children, left to right, are numbered,
        # on an explicit stack so chain depth is not bounded by recursion.
        remap: dict[int, int] = {}
        nodes: list[Node] = []
        for _, top in self.outputs:
            stack = [top]
            while stack:
                idx = stack[-1]
                if idx in remap:
                    stack.pop()
                    continue
                n = self.nodes[idx]
                pending = [c for c in n.children if c not in remap]
                if pending:
                    stack.extend(reversed(pending))
                    continue
                stack.pop()
                remap[idx] = len(nodes)
                nodes.append(Node(n.kind, tuple(remap[c] for c in n.children),
                                  n.width, n.port, n.value, n.count))
        outputs = [(port, remap[idx]) for port, idx in self.outputs]
        return Design(self.name, list(self.inputs), outputs, nodes)


# ---------------------------------------------------------------------------
# s-expression syntax


@dataclass(frozen=True)
class _Tok:
    kind: str  # "(", ")", "atom"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(_Tok(ch, ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            startcol = col
            while i < len(text) and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append(_Tok("atom", text[start:i], line, startcol))
    return toks


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_REP = re.compile(r"rep([0-9]+)$")


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self, what: str) -> _Tok:
        t = self._peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("atom", "", 1, 1)
            raise ParseError(f"unexpected end of input, expected {what}", last.line, last.col)
        self.pos += 1
        return t

    def _expect(self, kind: str, what: str) -> _Tok:
        t = self._next(what)
        if t.kind != kind:
            raise ParseError(f"expected {what}, got {t.text!r}", t.line, t.col)
        return t

    def _atom(self, what: str) -> _Tok:
        return self._expect("atom", what)

    def _int(self, what: str) -> tuple[int, _Tok]:
        t = self._atom(what)
        try:
            value = int(t.text, 16) if t.text.lower().startswith("0x") else int(t.text, 10)
        except ValueError:
            raise ParseError(f"expected {what}, got {t.text!r}", t.line, t.col) from None
        return value, t

    def module(self) -> Design:
        self._expect("(", "'('")
        kw = self._atom("'module'")
        if kw.text != "module":
            raise ParseError(f"expected 'module', got {kw.text!r}", kw.line, kw.col)
        name = self._atom("module name")
        if not _IDENT.match(name.text):
            raise ParseError(f"bad module name {name.text!r}", name.line, name.col)
        b = DesignBuilder(name.text)
        while True:
            t = self._next("declaration or ')'")
            if t.kind == ")":
                break
            if t.kind != "(":
                raise ParseError(f"expected declaration, got {t.text!r}", t.line, t.col)
            head = self._atom("'input' or 'output'")
            if head.text == "input":
                port = self._atom("port name")
                if not _IDENT.match(port.text):
                    raise ParseError(f"bad port name {port.text!r}", port.line, port.col)
                width, _ = self._int("port width")
                try:
                    b.add_input(port.text, width)
                except NetlistError as e:
                    raise ParseError(str(e), port.line, port.col) from None
            elif head.text == "output":
                port = self._atom("port name")
                if not _IDENT.match(port.text):
                    raise ParseError(f"bad port name {port.text!r}", port.line, port.col)
                idx = self.expr(b)
                try:
                    b.add_output(port.text, idx)
                except NetlistError as e:
                    raise ParseError(str(e), port.line, port.col) from None
            else:
                raise ParseError(f"expected 'input' or 'output', got {head.text!r}", head.line, head.col)
            self._expect(")", "')'")
        t = self._peek()
        if t is not None:
            raise ParseError(f"trailing input after module, got {t.text!r}", t.line, t.col)
        return b.finish()

    def expr(self, b: DesignBuilder) -> int:
        """One expression. Open operators wait on an explicit stack while
        their operands are parsed, so nesting is not bounded by Python's
        recursion limit; nodes are built in the same post-order."""
        stack: list[tuple[_Tok, str, int, list[int]]] = []
        while True:
            idx = self._leaf_or_open(b, stack)
            while True:
                if idx is not None:
                    if not stack:
                        return idx
                    stack[-1][3].append(idx)
                head = stack[-1][0]
                t = self._peek()
                if t is None:
                    raise ParseError("unexpected end of input, expected ')'", head.line, head.col)
                if t.kind != ")":
                    break
                self.pos += 1
                idx = self._close(b, *stack.pop())

    def _leaf_or_open(self, b: DesignBuilder, stack: list) -> int | None:
        """Parse a name or a constant and return its node, or open an
        operator onto `stack` and return None."""
        t = self._next("expression")
        if t.kind == "atom":
            if not _IDENT.match(t.text):
                raise ParseError(f"expected signal name, got {t.text!r}", t.line, t.col)
            try:
                return b.var(t.text)
            except NetlistError as e:
                raise ParseError(str(e), t.line, t.col) from None
        if t.kind != "(":
            raise ParseError(f"expected expression, got {t.text!r}", t.line, t.col)
        head = self._atom("operator")
        op = head.text
        if op == "const":
            width, _ = self._int("constant width")
            value, vt = self._int("constant value")
            self._expect(")", "')'")
            try:
                return b.const(width, value)
            except NetlistError as e:
                raise ParseError(str(e), vt.line, vt.col) from None
        rep = _REP.match(op)
        count = 0
        if rep is not None:
            count = int(rep.group(1))
            op = "rep"
        elif op not in ARITY or op in ("var", "add3"):
            raise ParseError(f"unknown operator {op!r}", head.line, head.col)
        stack.append((head, op, count, []))
        return None

    def _close(self, b: DesignBuilder, head: _Tok, op: str, count: int,
               children: list[int]) -> int:
        """Build an operator whose operands and ')' have been read."""
        if op == "add" and len(children) == 3:
            op = "add3"
        try:
            return b.op(op, *children, count=count)
        except NetlistError as e:
            raise ParseError(str(e), head.line, head.col) from None


def parse_design(text: str) -> Design:
    """Parse module text into a Design. Raises ParseError with line:col context."""
    return _Parser(text).module()


def _render(d: Design, idx: int) -> str:
    """One expression as text, walked on an explicit stack of node indices
    and literal text, so depth is not bounded by Python's recursion limit."""
    parts: list[str] = []
    todo: list[int | str] = [idx]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        n = d.nodes[item]
        if n.kind == "var":
            parts.append(n.port)
        elif n.kind == "const":
            parts.append(f"(const {n.width} {n.value})")
        else:
            name = f"rep{n.count}" if n.kind == "rep" else ("add" if n.kind == "add3" else n.kind)
            parts.append(f"({name}")
            todo.append(")")
            for c in reversed(n.children):
                todo += (c, " ")
    return "".join(parts)


def print_design(d: Design) -> str:
    """Render a Design back to module text. parse_design(print_design(d)) == d."""
    lines = [f"(module {d.name}"]
    for port, width in d.inputs:
        lines.append(f"  (input {port} {width})")
    for port, idx in d.outputs:
        lines.append(f"  (output {port} {_render(d, idx)})")
    lines.append(")")
    return "\n".join(lines) + "\n"
