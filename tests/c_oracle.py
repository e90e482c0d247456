"""MiniC to C, so that a C compiler can say whether it accepts what MiniC accepts.

``to_c`` parses a program, rewrites nodes of that tree in place and prints
it item by item with ``pretty_print``, adding a few C lines between items. No
text is rewritten. The C differs from the MiniC in four ways:

- a prelude includes ``<stdbool.h>`` and declares the builtins:
  ``int read(void);`` and ``void print(int, ...);``. Each ``print`` call gets
  a leading ``0`` argument, so that it takes any arguments, or none, under
  every C standard (C23 reads ``void print();`` as ``void print(void);``);
- ``typedef struct P P;`` comes before each struct, since MiniC names a
  struct type by its bare name;
- an array parameter or field ``int[] a`` is written ``int a[]``, C's order;
- ``::g`` is written ``(*g__g)``, through the line
  ``static __typeof__(g) *const g__g = &g;`` after the global ``g``.
"""

from minicog import ast
from minicog.parser import parse_source
from minicog.printer import pretty_print

PRELUDE = "#include <stdbool.h>\nvoid print(int, ...);\nint read(void);\n"


def _c_node(node):
    if node.__class__ is ast.GlobalRef:
        return ast.VarRef(f"(*{node.name}__g)")
    return node


def to_c(source: str) -> str:
    tree = parse_source(source)
    for node in tree.nodes:
        for name, is_list in ast.CHILD_FIELDS[node.__class__]:
            value = getattr(node, name)
            if value is None:
                continue
            if is_list:
                value[:] = map(_c_node, value)
            else:
                setattr(node, name, _c_node(value))
        if node.__class__ is ast.Call and node.callee == "print":
            node.args.insert(0, ast.Literal("0"))
        elif node.__class__ in (ast.Param, ast.RecordField) and node.type.is_array:
            size = node.type.array_size
            node.name += "[]" if size is None else f"[{size}]"
            node.type = ast.TypeRef(node.type.name)
    parts = [PRELUDE]
    for item in tree.items:
        if item.__class__ is ast.RecordDef:
            parts.append(f"typedef struct {item.name} {item.name};\n")
        parts.append(pretty_print(ast.SyntaxTree([item])))
        if item.__class__ is ast.DeclStmt:
            parts.append(f"static __typeof__({item.name}) *const {item.name}__g = &{item.name};\n")
    return "".join(parts)
