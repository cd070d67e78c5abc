"""Static checks on the package source that need no linter."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import hpm
from hpm import cli

MODULES = sorted(p for p in Path(hpm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Each name a package module or a test file imports (but `from
    __future__`) occurs as a Name elsewhere in it; the package's
    `__init__.py` re-exports and is exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in imported.items()
              if name not in used]
    assert not unused, unused


def test_every_exported_name_resolves():
    missing = [name for name in hpm.__all__ if not hasattr(hpm, name)]
    assert not missing, missing


def _defaulted_parameters(tree: ast.Module):
    """(function name, parameter, position or None) of every parameter with
    a default of a module-level function or of a method of a module-level
    class; the position counts the arguments of a call, so a method's self
    or cls is dropped.  Nested functions, such as closures that bind values
    through defaults, are not visited."""
    defs = [(node, False) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [(node, True) for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for fn, method in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 1 if method and not static else 0
        for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                len(positional) - len(args.defaults)):
            yield fn.name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def test_every_defaulted_parameter_is_passed():
    """Each defaulted parameter of the package (see _defaulted_parameters)
    is passed, by keyword or by position, by some call in the package or
    the tests of a function of that name: a default that no call
    overrides is an option that does nothing."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES + TESTS}
    passed = set()  # (name, keyword) and (name, position) of every call
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            spread = any(kw.arg is None for kw in call.keywords)
            if starred or spread:  # *args or **kwargs: any parameter may be passed
                passed.add((name, "*"))
            passed.update((name, kw.arg) for kw in call.keywords)
            passed.update((name, i) for i in range(len(call.args)))
    unpassed = [f"{path.name}: {fn}({param}=)"
                for path in MODULES
                for fn, param, pos in _defaulted_parameters(trees[path])
                if not {(fn, param), (fn, pos), (fn, "*")} & passed]
    assert not unpassed, unpassed


def _definitions(tree: ast.Module):
    """Every module-level function and class, and every method of a
    module-level class but the dunder methods Python calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _references(node: ast.AST) -> Counter:
    """The names that node refers to: as a Name, or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_referenced():
    """Each definition of the package (see _definitions) is referenced by
    name outside its own body, in the package or the tests, or is named
    in the span tracer's LAYERS: code that nothing reaches is gone."""
    tracer = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    layers = next(node.value for node in tracer.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    traced = {n.value for n in ast.walk(layers) if isinstance(n, ast.Constant)}
    trees = {path: ast.parse(path.read_text()) for path in MODULES + TESTS}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [f"{path.name}:{node.lineno}: {node.name}"
               for path in MODULES for node in _definitions(trees[path])
               if node.name not in traced
               and total[node.name] == _references(node)[node.name]]
    assert not orphans, orphans


def _strings(node: ast.AST, assigns: dict) -> set:
    """The string constants of an expression: of a dict its values only,
    of a name the value that assigns binds it to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.Dict):
        return set().union(*(_strings(v, assigns) for v in node.values))
    if isinstance(node, ast.Name):
        return _strings(assigns[node.id], assigns) if node.id in assigns else set()
    return set().union(*(_strings(n, assigns) for n in ast.iter_child_nodes(node)))


def _accepted_keys(fn: ast.FunctionDef, assigns: dict) -> set:
    """The params keys a command function accepts: the key set of each of
    its _check_keys(obj, keys, where) calls on params or on an object in
    it, a key in an object dotted ("lambda.points") in place of the
    object's own key."""
    local = {**assigns, **{t.id: n.value for n in ast.walk(fn) if isinstance(n, ast.Assign)
                           for t in n.targets if isinstance(t, ast.Name)}}
    keys, objects = set(), set()
    for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
        if getattr(call.func, "id", None) != "_check_keys":
            continue
        where = call.args[2].value
        if where.startswith("params."):
            objects.add(where[len("params."):])
            keys |= {f"{where[len('params.'):]}.{k}" for k in _strings(call.args[1], local)}
        elif where == "params":
            keys |= _strings(call.args[1], local)
    return keys - objects


def test_every_params_key_is_in_the_readme_table():
    """Each command's row of the README's params table names, as `key`:,
    exactly the keys its function in cli._RUNNERS accepts (see
    _accepted_keys): no key goes undocumented, and no documented key is
    one the command rejects."""
    tree = ast.parse(Path(cli.__file__).read_text())
    assigns = {t.id: n.value for n in tree.body if isinstance(n, ast.Assign)
               for t in n.targets if isinstance(t, ast.Name)}
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    runners = {k.value: functions[v.id] for k, v in
               zip(assigns["_RUNNERS"].keys, assigns["_RUNNERS"].values)}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", readme, re.M))
    assert set(rows) >= set(runners), sorted(set(runners) - set(rows))
    wrong = {}
    for command, fn in runners.items():
        accepted = _accepted_keys(fn, assigns)
        documented = set(re.findall(r"`([\w.]+)`:", rows[command]))
        if accepted != documented:
            wrong[command] = {"undocumented": sorted(accepted - documented),
                              "not accepted": sorted(documented - accepted)}
    assert not wrong, wrong


def test_the_sample_bound_has_one_home_in_the_cli():
    """Every `_MAX_SAMPLES` attribute in cli.py sits inside `_check_size`:
    one rule bounds each array a command sizes from its config."""
    tree = ast.parse(Path(cli.__file__).read_text())
    home = {id(n) for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name == "_check_size" for n in ast.walk(fn)}
    refs = [n for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "_MAX_SAMPLES"]
    stray = [f"cli.py:{n.lineno}" for n in refs if id(n) not in home]
    assert refs and not stray, stray


def test_the_power_of_two_scaling_has_one_home():
    """`frexp` and `ldexp` occur in the package only inside
    `spectral.l2_norm`: every L2 norm is that one scaled helper's."""
    stray, home = [], 0
    for path in MODULES:
        tree = ast.parse(path.read_text())
        inside = {id(n) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and path.name == "spectral.py" and fn.name == "l2_norm"
                  for n in ast.walk(fn)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("frexp", "ldexp"):
                if id(node) in inside:
                    home += 1
                else:
                    stray.append(f"{path.name}:{node.lineno}: {name}")
    assert home and not stray, stray


def _own_nodes(fn: ast.FunctionDef):
    """The nodes of fn's body outside the functions nested in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        todo += [n for n in ast.iter_child_nodes(node)
                 if not isinstance(n, (ast.FunctionDef, ast.Lambda))]


def _calls_block_rows(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Call) and "block_rows" in
               (getattr(n.func, "id", None), getattr(n.func, "attr", None))
               for n in ast.walk(node))


def _bound_by_block_rows(name: str, fn: ast.FunctionDef) -> bool:
    """fn assigns name from an expression that calls block_rows."""
    return any(isinstance(n, ast.Assign) and _calls_block_rows(n.value)
               and any(getattr(t, "id", None) == name for t in n.targets)
               for n in _own_nodes(fn))


def test_every_blocked_pass_takes_the_one_block_rule():
    """No module but spectral defines a module-level block constant, a
    `*_BYTES` or `*_CHUNK` name, apart from hmeasure's `_STACK_BYTES`
    (how many cells one cell-form GEMM takes, not a block).  Every blocked
    loop, a `for` over `range(start, stop, width)`, gets its width from
    `spectral.block_rows`: its function binds width from a call of it, or
    width is a parameter that every call of the function passes as a
    name its caller so binds."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    constants = [f"{path.name}: {t.id}" for path, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets
                 if isinstance(t, ast.Name) and re.fullmatch(r"\w+_(BYTES|CHUNK)", t.id)
                 and path.name != "spectral.py"]
    assert constants == ["hmeasure.py: _STACK_BYTES"], constants
    functions = [fn for tree in trees.values() for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)]
    calls = [(caller, call) for caller in functions for call in _own_nodes(caller)
             if isinstance(call, ast.Call)]
    loops, stray = 0, []
    for fn in functions:
        params = [a.arg for a in fn.args.args]
        for loop in _own_nodes(fn):
            if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                    and getattr(loop.iter.func, "id", None) == "range"
                    and len(loop.iter.args) == 3):
                continue
            loops += 1
            width = loop.iter.args[2]
            if not isinstance(width, ast.Name):
                stray.append(f"{fn.name}:{loop.lineno}")
            elif not _bound_by_block_rows(width.id, fn):
                pos = params.index(width.id) if width.id in params else None
                passed = [(caller, call.args[pos]) for caller, call in calls
                          if getattr(call.func, "id", None) == fn.name
                          and pos is not None and len(call.args) > pos]
                if not passed or not all(
                        isinstance(arg, ast.Name) and _bound_by_block_rows(arg.id, caller)
                        for caller, arg in passed):
                    stray.append(f"{fn.name}:{loop.lineno}")
    assert loops >= 6 and not stray, (loops, stray)
