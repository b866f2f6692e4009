"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "findiag"


def test_package_has_no_assert_statements():
    """Invariants raise typed errors: an `assert` vanishes under `python -O`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imports():
    """(file:line, top-level module name) for every import in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                yield f"{path.name}:{node.lineno}", module.split(".")[0]


def test_package_starts_no_process_pools():
    """Every computation runs in the calling process."""
    found = [where for where, module in _imports() if module in ("concurrent", "multiprocessing")]
    assert found == []


def test_package_imports_no_contextvars():
    """Statistics are passed to each call explicitly: no module keeps them in
    a context variable, where one caller's table could reach another call."""
    assert [where for where, module in _imports() if module == "contextvars"] == []


def test_only_serialize_imports_orjson():
    """orjson is a detail of the payload writer and the matrix reader."""
    found = [where for where, module in _imports() if module == "orjson"]
    assert found and all(where.startswith("serialize.py:") for where in found)


def test_importing_the_package_leaves_orjson_unloaded():
    """orjson is imported where a payload is written or a matrix read, so a
    process that only imports findiag or its CLI does not pay its import."""
    script = "import sys, findiag, findiag.cli\nprint('orjson' in sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_construction_kernels_run_on_integers():
    """The Schur–Horn kernel, the water fill, the assembly and the steering
    rotations work on integers over one common denominator: no Fraction in
    them, every float is an int division rather than float(...), and the
    scaling comes from scalars, not from the decision module."""
    tree = ast.parse((SRC / "construct.py").read_text(encoding="utf-8"))
    kernels = {"_steer", "_horn", "_assemble", "_assemble_split", "_water_fill"}
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert kernels <= defined.keys()
    found = [
        f"{name}:{node.lineno}"
        for name in sorted(kernels)
        for node in ast.walk(defined[name])
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    ]
    assert found == []
    imports = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "decide"
    ]
    assert imports == []


def test_realize_builds_one_level():
    """realize_truncated builds the finite problem once, at the level read in
    closed form: no loop over truncation levels and one _build_problem call."""
    tree = ast.parse((SRC / "construct.py").read_text(encoding="utf-8"))
    (func,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "realize_truncated"]
    loops = [n.lineno for n in ast.walk(func) if isinstance(n, (ast.For, ast.While))]
    builds = [
        n.lineno
        for n in ast.walk(func)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_build_problem"
    ]
    assert loops == [] and len(builds) == 1


def test_only_geometric_tail_walks_a_tail():
    """Every tail element is read inside GeometricTail, from its integer
    running products or its one Fraction list _head: outside the class no
    product or power takes a .ratio operand, no code calls .element(, and
    explore keeps no halving-step loop of its own.  Inside it, the one loop
    that compares elements with a cut is the cut search _walk."""

    def mentions_ratio(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "ratio" for n in ast.walk(node))

    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(n)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "GeometricTail"
            for n in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Pow)):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Mult, ast.Pow)):
                operands = (node.target, node.value)
            else:
                operands = ()
            calls_element = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "element"
            )
            if calls_element or any(mentions_ratio(op) for op in operands):
                found.append(f"{path.name}:{node.lineno}")
            if path.name == "explore.py" and isinstance(node, ast.FunctionDef) and node.name == "_halving_steps":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

    tree = ast.parse((SRC / "sequences.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GeometricTail"]
    comparing = [
        method.name
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        for loop in ast.walk(method)
        if isinstance(loop, (ast.For, ast.While)) and any(isinstance(n, ast.Compare) for n in ast.walk(loop))
    ]
    assert comparing == ["_walk", "_walk"]  # the loop over the cuts and its advance


def test_one_lattice_search_answers_every_multiplicity_question():
    """decide_finite and enumerate_witnesses call _lattice_search and
    four_point_region calls _pair_counts, its closed-form count for two
    coordinates; the only generator function in decide.py is
    _lattice_search, so no second enumeration (a composition scan, say) can
    come back beside it, and it defines no nested function, so it walks one
    stack of prefixes and holds no closure that reaches itself; explore.py
    calls no gcd and no pow, so the lattice arithmetic stays in decide.py.
    decide_finite consumes the search lazily: it loops over the generator and
    calls no list, min or sorted that could gather it."""
    for module, name, callee in (
        ("decide", "decide_finite", "_lattice_search"),
        ("decide", "enumerate_witnesses", "_lattice_search"),
        ("explore", "four_point_region", "_pair_counts"),
    ):
        calls = [
            n
            for n in ast.walk(_function(SRC / f"{module}.py", name))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == callee
        ]
        assert calls, f"{module}.{name}"
    lattice = [
        n.lineno
        for n in ast.walk(ast.parse((SRC / "explore.py").read_text(encoding="utf-8")))
        if isinstance(n, ast.Call)
        and (isinstance(n.func, ast.Name) and n.func.id in ("gcd", "pow")
             or isinstance(n.func, ast.Attribute) and n.func.attr == "gcd")
    ]
    assert lattice == []
    tree = ast.parse((SRC / "decide.py").read_text(encoding="utf-8"))
    generators = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(func))
    ]
    assert generators == ["_lattice_search"]
    nested = [
        n.lineno
        for stmt in _function(SRC / "decide.py", "_lattice_search").body
        for n in ast.walk(stmt)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert nested == []
    finite = _function(SRC / "decide.py", "decide_finite")
    loops = [
        n
        for n in ast.walk(finite)
        if isinstance(n, ast.For) and isinstance(n.iter, ast.Call) and isinstance(n.iter.func, ast.Name)
        and n.iter.func.id == "_lattice_search"
    ]
    assert len(loops) == 1
    gathering = [
        n.lineno
        for n in ast.walk(finite)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("list", "min", "sorted")
    ]
    assert gathering == []


def _reached(roots) -> set:
    """The package functions and methods reached from the named top-level
    functions and classes, by name: a name or attribute read reaches every
    function or method of that name, and a class name its __init__ and
    __post_init__; a root class counts with its whole body."""
    defs, roots_found = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in roots:
                roots_found.append(node)
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                for func in node.body:
                    if isinstance(func, ast.FunctionDef):
                        defs.setdefault(func.name, []).append(func)
                        if func.name in ("__init__", "__post_init__"):
                            defs.setdefault(node.name, []).append(func)
    assert sorted(n.name for n in roots_found) == sorted(roots)
    reached, todo = set(), roots_found
    while todo:
        node = todo.pop()
        for n in ast.walk(node):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name in defs and name not in reached:
                reached.add(name)
                todo += defs[name]
    return reached


def test_partial_sum_form_shares_nothing_with_the_threshold_statistics():
    """riemann_check and canonical_shift take the trace residual from the ℤ
    layout's excess, so neither they nor _ZLayout reach the statistics pass,
    the integer system, the trace residue or a tail cut search: a
    riemann-against-lebesgue cross-check compares two independent codes."""
    shared = {"threshold_stats", "_stats_pass", "_trace_residue", "_system", "_walk", "count_at_least", "count_greater"}
    reached = _reached({"riemann_check", "canonical_shift", "_ZLayout"})
    assert {"_ZLayout", "prefix", "entries", "_require_compatible"} <= reached
    assert sorted(reached & shared) == []


def _function(path: Path, name: str, cls: str = None) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scope = tree.body
    if cls is not None:
        (scope,) = [n.body for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    (func,) = [n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name]
    return func


def _fraction_names(node) -> list:
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "Fraction"]


def _fraction_walks(node) -> list:
    """Reads of the one tail walk that yields Fractions, the list _head."""
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "_head"]


def test_tail_arithmetic_runs_on_integers():
    """The integer tail walk, the statistics pass and the loop of
    candidate_multiplicity_bound name no Fraction, and none of them, nor
    threshold_stats, reads the Fraction list _head.  On the statistics path
    Fraction(...) is called only to build the output statistics: once in
    _over, and in threshold_stats only on its argument α."""
    for name in ("_products", "_walk"):
        walk = _function(SRC / "sequences.py", name, "GeometricTail")
        assert _fraction_names(walk) == [] and _fraction_walks(walk) == []
    cap = _function(SRC / "explore.py", "candidate_multiplicity_bound")
    (loop,) = [n for n in cap.body if isinstance(n, ast.While)]
    assert _fraction_names(loop) == [] and _fraction_walks(cap) == []

    def fraction_calls(func):
        return [
            n
            for n in ast.walk(func)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Fraction"
        ]

    stats_pass = _function(SRC / "sequences.py", "_stats_pass")  # its body: α is annotated a Fraction
    assert [line for n in stats_pass.body for line in _fraction_names(n)] == []
    assert _fraction_walks(stats_pass) == []
    (built,) = fraction_calls(_function(SRC / "sequences.py", "_over"))
    assert len(built.args) == 2
    stats = _function(SRC / "sequences.py", "threshold_stats")
    assert _fraction_walks(stats) == []
    assert [ast.unparse(n) for n in fraction_calls(stats)] == ["Fraction(alpha)"]


def test_every_f_string_has_a_placeholder():
    """An f-string with nothing to format is a plain string with a stray
    prefix; the format specs inside placeholders are not counted."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        specs = {id(n.format_spec) for n in ast.walk(tree) if isinstance(n, ast.FormattedValue)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr)
            and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue) for v in node.values)
        ]
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    """An import whose name nothing reads is a leftover of a deleted use.  The
    package's __init__ uses a name by listing it in __all__."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # bare names, which include the roots of attribute chains
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name == "__init__.py":
            (exported,) = [
                node.value
                for node in tree.body
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]
            ]
            used |= set(ast.literal_eval(exported))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{path.name}:{node.lineno}:{bound}")
    assert found == []


# Public functions of the package that no code path of the CLI and no
# benchmark file calls: the library entry points for finite matrices,
# summable diagonals, one witness's threshold-statistic criterion, the
# statistics at one threshold, the two symmetries and sequence output.
LIBRARY_ENTRY_POINTS = frozenset(
    {
        "horn_construct",
        "threshold_stats",
        "decide_finite",
        "check_finite_rank_tail",
        "lebesgue_check",
        "reflect",
        "scale",
        "dump_sequence",
    }
)


def test_every_public_function_has_a_caller():
    """Each public top-level function is read by some package module (its own,
    outside its body, or one that imports it), imported or looked up as an
    attribute by a benchmark file, or is a listed library entry point; so a
    helper that only the tests call cannot come back unnoticed."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    trees.pop("__init__")
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    bench = set()
    for path in (SRC.parent.parent / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("findiag"):
                bench |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                bench.add(node.attr)
    public, uncalled = set(), set()
    for module, tree in trees.items():
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef) or func.name.startswith("_"):
                continue
            public.add(func.name)
            if func.name in LIBRARY_ENTRY_POINTS:
                continue
            inside = {id(n) for n in ast.walk(func)}
            own = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in inside}
            if func.name not in own and (module, func.name) not in imported and func.name not in bench:
                uncalled.add(f"{module}.{func.name}")
    assert LIBRARY_ENTRY_POINTS <= public
    assert sorted(uncalled) == []


def test_every_public_class_member_is_read():
    """Each method and property of a public class (dunders aside) is read as
    an attribute somewhere in the package or by a benchmark file, so a member
    that only the tests read cannot come back unnoticed.  Names are matched
    as in test_every_public_function_has_a_caller, so a member whose name is
    also read on another object passes unseen: a method named `value` would
    pass on an enum's `.value`, and one named `sigma` on the `.sigma` of
    construct's finite problem."""
    paths = [*SRC.glob("*.py"), *(SRC.parent.parent / "perfbench").glob("*.py")]
    read = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    members, unread = 0, []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for func in cls.body:
                if isinstance(func, ast.FunctionDef) and not (func.name.startswith("__") and func.name.endswith("__")):
                    members += 1
                    if func.name not in read:
                        unread.append(f"{path.stem}.{cls.name}.{func.name}")
    assert members and unread == []
