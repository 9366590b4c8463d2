"""Dead-code guard: every name in src/risae has a user in the program.

A top-level function, class or constant of ``src/risae/*.py``, and a method
or property of one of its classes, counts as used when its name is loaded or
imported anywhere in ``src/risae/`` or ``perfbench/``, or spelled as a string
constant in ``src/risae/``. Strings in ``perfbench/`` do not count: the
benchmark wraps functions by name, and a function that only its wrap table
names is still one nothing calls. A config field, and any other dataclass
field, counts as used when it is read as an attribute in either place,
outside its class's ``__post_init__`` check, and a parameter of a function
or method when its body reads it. A parameter's default counts as used
when some program call sets the parameter and some leaves the default in
place, and a parameter counts as a parameter only when the program calls
do not all fill it with one literal or upper-case constant: such a value is
a constant the function can read itself. The parameter rules skip a function
placed in a table, which may be called with any arguments; a class counts
as placed there when its name is passed as a value, not when it only names
a type (in an annotation, an ``isinstance`` check, an ``except`` clause, a
class base or ``X.__new__(X)``). Tests do not count: nothing in ``src/``
should exist only so that a test can call it.
"""

import ast
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import risae
from risae.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(risae.__file__).resolve().parent  # src/risae, or the copy a mutation run imports
PROGRAM_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# (module, name): why the name stays without a caller in the program
EXEMPT = {
    ("attack", "load_perturbation"): "reads back the file `risae attack --out` writes",
    ("neural", "cross_entropy_loss"): "perfbench/tracing.py wraps it by name (ROADMAP item 6)",
}


def top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def used_names(tree: ast.Module, strings: bool) -> set[str]:
    """Names the module loads, reads as attributes or imports, and with
    strings=True the string constants it spells."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def program_uses() -> set[str]:
    used = set()
    for path in PROGRAM_FILES:
        used |= used_names(ast.parse(path.read_text(encoding="utf-8")),
                           strings=path.parent == PACKAGE)
    return used


def test_every_top_level_name_has_a_program_user():
    used = program_uses()
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in top_level_names(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in used and (path.stem, name) not in EXEMPT:
                dead.append(f"{path.stem}.{name}")
    assert not dead, f"top-level names with no user in src/risae or perfbench: {dead}"


def test_exemptions_are_still_needed():
    # an exempt name that gained a user, or was deleted, leaves the list
    used = program_uses()
    for module, name in EXEMPT:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in top_level_names(tree)
        assert name not in used


def methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of every method and property of the module's classes,
    dunder methods aside."""
    out = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            out.extend((cls.name, node.name) for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (node.name.startswith("__") and node.name.endswith("__")))
    return out


def test_every_method_has_a_program_user():
    used = program_uses()
    dead = [f"{path.stem}.{cls}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for cls, name in methods(ast.parse(path.read_text(encoding="utf-8")))
            if name not in used]
    assert not dead, f"methods and properties with no user in src/risae or perfbench: {dead}"


# -- config fields ------------------------------------------------------------

def config_fields(cls, path: str = "") -> list[str]:
    """Dotted path of every field in the config tree rooted at cls."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        out.append(where)
        if is_dataclass(hints[f.name]):
            out.extend(config_fields(hints[f.name], where))
    return out


def attributes_read() -> set[str]:
    """Attribute names loaded in src/risae or perfbench, not counting the
    loads in a ``__post_init__``: a field only its own class's check reads
    carries nothing to a reader."""
    read = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in PROGRAM_FILES:
        visit(ast.parse(path.read_text(encoding="utf-8")))
    return read


# -- dataclass fields ---------------------------------------------------------

def dataclass_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) of every annotated field of the module's dataclasses."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            out.extend((cls.name, node.target.id) for node in cls.body
                       if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))
    return out


def test_every_dataclass_field_is_read_by_the_program():
    # A result field that only tests read is bookkeeping no run reports, and
    # a config field no program code reads changes nothing when a user sets
    # it. Every config field is a dataclass field, so the config fields are
    # named again by their path in the config tree.
    read = attributes_read()
    unread = [f"{path.stem}.{cls}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for cls, name in dataclass_fields(ast.parse(path.read_text(encoding="utf-8")))
              if name not in read]
    unread_config = [where for where in config_fields(ExperimentConfig)
                     if where.rsplit(".", 1)[-1] not in read]
    assert not unread, (f"dataclass fields no code in src/risae or perfbench reads: {unread}; "
                        f"of them config fields: {unread_config}")


# -- parameters ---------------------------------------------------------------

def defaulted_signatures(tree: ast.Module) -> list[tuple[str, str, list[str], list[str],
                                                       set[str]]]:
    """(name a call uses, qualified name, positional parameters as a call
    fills them, keyword-only parameters, parameters with a default) of every
    function and method. A method drops its first parameter, and a class's
    ``__init__`` goes by the class name, because a call to the class fills it."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if cls is not None:
                    positional = positional[1:]  # self, or cls of a classmethod
                with_default = set(positional[len(positional) - len(args.defaults):])
                with_default |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None}
                qualname = node.name if cls is None else f"{cls}.{node.name}"
                out.append((cls if node.name == "__init__" else node.name, qualname,
                            positional, [a.arg for a in args.kwonlyargs], with_default))
                visit(node.body, None)

    visit(tree.body, None)
    return out


def call_sites(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """(callee's bare or attribute name, call) of every call."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                sites.append((node.func.id, node))
            elif isinstance(node.func, ast.Attribute):
                sites.append((node.func.attr, node))
    return sites


def type_uses(node: ast.AST) -> list[ast.AST]:
    """The children of node that name a type rather than pass a value: an
    annotation, a class base, an ``except`` clause's type, the second
    argument of ``isinstance`` or ``issubclass``, and both names in
    ``X.__new__(X)``, which builds an X without calling its ``__init__``."""
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, ast.ClassDef):
        return node.bases
    if isinstance(node, ast.ExceptHandler):
        return [node.type]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
        return [node.args[1]]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "__new__":
        return [node.func, *node.args]
    return []


def value_references(tree: ast.Module) -> set[str]:
    """Names loaded as values rather than called, such as a function placed
    in a table or a class passed to a call; a name bound locally (a parameter
    or variable) does not count, and neither does one that only names a type
    (``type_uses``)."""
    refs = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            local = local | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            local |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
            local |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            refs.add(node.id)
        types = type_uses(node)
        for child in ast.iter_child_nodes(node):
            if not (isinstance(node, ast.Call) and child is node.func
                    and isinstance(child, ast.Name)) and not any(child is t for t in types):
                visit(child, local)

    visit(tree, frozenset())
    return refs


def parameters_set(positional: list[str], call: ast.Call) -> set[str] | None:
    """Parameters a call fills, by position or keyword; None when a ``**``
    argument may fill any of them (a ``*`` argument fills the rest of the
    positional ones)."""
    filled = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            filled.update(positional[i:])
            break
        if i < len(positional):
            filled.add(positional[i])
    for kw in call.keywords:
        if kw.arg is None:
            return None
        filled.add(kw.arg)
    return filled


def program_trees() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The modules of src/risae by name, whose functions the parameter
    rules check, and every program module, whose calls they read."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM_FILES}
    package = {path.stem: tree for path, tree in trees.items() if path.parent == PACKAGE}
    return package, list(trees.values())


def defaults_by_call(package: dict[str, ast.Module],
                     trees: list[ast.Module]) -> list[tuple[str, set[str], set[str], set[str]]]:
    """(function's module and qualified name, its defaulted parameters, those
    some call in trees sets, those some call leaves in place) of every
    function and method of package with a default that is not placed in a
    table; a ``**`` argument counts as setting and leaving every one."""
    sites = [site for tree in trees for site in call_sites(tree)]
    refs = set().union(*(value_references(tree) for tree in trees))
    out = []
    for module, tree in sorted(package.items()):
        for name, qualname, positional, _, with_default in defaulted_signatures(tree):
            if not with_default or name in refs:
                continue
            filled, left = set(), set()
            for callee, call in sites:
                if callee == name:
                    params = parameters_set(positional, call)
                    filled |= with_default if params is None else params
                    left |= with_default if params is None else with_default - params
            out.append((f"{module}.{qualname}", with_default, filled, left))
    return out


def unset_parameters(package, trees) -> list[str]:
    """module.function.parameter of every default no call in trees overrides."""
    return [f"{where}.{p}" for where, with_default, filled, _ in defaults_by_call(package, trees)
            for p in sorted(with_default - filled)]


def test_every_defaulted_parameter_is_set_by_the_program():
    # A parameter whose default no call in src/risae or perfbench overrides
    # is a knob only tests turn. A call to a class fills its __init__; a
    # function placed in a table, like the attack builders, may be called
    # with any of its parameters.
    unset = unset_parameters(*program_trees())
    assert not unset, f"parameters no call in src/risae or perfbench sets: {unset}"


def test_every_default_is_relied_on_by_the_program():
    # A default that every call in src/risae or perfbench overrides is a
    # value only tests take: the program would read the same without it. A
    # function no program code calls is left to the rule above.
    overridden = [f"{where}.{p}" for where, with_default, filled, left
                  in defaults_by_call(*program_trees()) if filled
                  for p in sorted(with_default - left)]
    assert not overridden, f"defaults every call in src/risae or perfbench overrides: {overridden}"


# -- parameters filled with one constant --------------------------------------

# (module, qualified function, parameter): why every program call may fill it
# with the same constant
ONE_CONSTANT_EXEMPT = {
    ("autoencoder", "estimate_received_power", "num_blocks"):
        "perfbench/tracing.py's _refpower_key reads it by name (ROADMAP item 6)",
}


def is_constant(node: ast.expr) -> bool:
    """A literal, or a name or attribute spelled in upper case: a module constant."""
    if isinstance(node, ast.Name):
        return node.id.isupper()
    if isinstance(node, ast.Attribute):
        return node.attr.isupper()
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return False
    return True


def one_constant_parameters(package: dict[str, ast.Module],
                            trees: list[ast.Module]) -> dict[tuple[str, str, str], str]:
    """(module, qualified function, parameter) -> the constant's source, for
    every parameter of a function or method of package that every call in
    trees fills with one and the same literal or upper-case constant. A
    function placed in a table, one a call reaches with a ``*`` or ``**``
    argument, and one no call reaches are left out."""
    sites = [site for tree in trees for site in call_sites(tree)]
    refs = set().union(*(value_references(tree) for tree in trees))
    out = {}
    for module, tree in sorted(package.items()):
        for name, qualname, positional, keyword_only, _ in defaulted_signatures(tree):
            calls = [call for callee, call in sites if callee == name]
            filled = [parameters_set(positional, call) for call in calls]
            if name in refs or not calls or None in filled or any(
                    isinstance(arg, ast.Starred) for call in calls for arg in call.args):
                continue
            for param in positional + keyword_only:
                if not all(param in f for f in filled):
                    continue  # some call leaves the default in place
                values = [argument(call, positional, param) for call in calls]
                if all(is_constant(v) for v in values) and len({ast.dump(v) for v in values}) == 1:
                    out[(module, qualname, param)] = ast.unparse(values[0])
    return out


def argument(call: ast.Call, positional: list[str], param: str) -> ast.expr:
    """The expression a call without ``*`` arguments fills param with."""
    if param in positional and positional.index(param) < len(call.args):
        return call.args[positional.index(param)]
    return next(kw.value for kw in call.keywords if kw.arg == param)


def test_no_parameter_is_one_constant():
    # A parameter that every call in src/risae or perfbench fills with the
    # same constant is a knob only tests turn: the function can read the
    # constant itself. A literal counts, and so does an upper-case name.
    found = one_constant_parameters(*program_trees())
    single = [f"{m}.{f}.{p} (always {v})" for (m, f, p), v in sorted(found.items())
              if (m, f, p) not in ONE_CONSTANT_EXEMPT]
    assert not single, f"parameters every call in src/risae or perfbench fills alike: {single}"


def test_one_constant_exemptions_are_still_needed():
    # an exempt parameter that a call fills otherwise, or that was deleted,
    # leaves the list
    found = one_constant_parameters(*program_trees())
    assert set(ONE_CONSTANT_EXEMPT) <= set(found)


# -- parameters read ----------------------------------------------------------

def unread_parameters(path: Path) -> set[tuple[str, str, str]]:
    """(module, qualified function, parameter) of every parameter of a
    function or method that its body never loads; a method's self or cls
    aside. A load in a nested function counts."""
    unread = set()

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                         + [args.vararg, args.kwarg] if a is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if cls is not None and not static:
                    names = names[1:]
                loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                qualname = node.name if cls is None else f"{cls}.{node.name}"
                unread.update((path.stem, qualname, name) for name in names if name not in loaded)
                visit(node.body, None)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, None)
    return unread


def test_every_parameter_is_read():
    # a parameter its function never reads changes nothing when a caller sets it
    unread = sorted(set().union(*(unread_parameters(path)
                                  for path in sorted(PACKAGE.glob("*.py")))))
    assert not unread, f"parameters their function never reads: {unread}"


# -- the parameter rules on a module of known faults --------------------------

TOY = '''
SIZE = 3


class Box:
    def __init__(self, width, depth=2):
        self.width = width
        self.depth = depth


class Crate(Box):
    pass


def area(box: Box, size) -> Box:
    try:
        return box.width * size if isinstance(box, (Box, Crate)) else size
    except Box:
        return 0


def build():
    return [area(Box(1), SIZE), area(Box(width=2), SIZE), Box.__new__(Box)]
'''


def toy_module(extra: str = "") -> tuple[dict[str, ast.Module], list[ast.Module]]:
    tree = ast.parse(TOY + extra)
    return {"toy": tree}, [tree]


def test_rules_report_the_faults_of_a_toy_module():
    # Box is named by an annotation, an isinstance check, an except clause,
    # a class base and __new__, none of which calls it with other arguments
    assert one_constant_parameters(*toy_module()) == {("toy", "area", "size"): "SIZE"}
    assert unset_parameters(*toy_module()) == ["toy.Box.__init__.depth"]
    assert "Box" not in value_references(toy_module()[0]["toy"])


def test_rules_skip_a_class_passed_as_a_value():
    # whatever receives the class from the table may build it with any arguments
    package, trees = toy_module("\n\nMAKERS = {'box': Box}\n")
    assert "Box" in value_references(package["toy"])
    assert one_constant_parameters(package, trees) == {("toy", "area", "size"): "SIZE"}
    assert unset_parameters(package, trees) == []
