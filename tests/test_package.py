"""The names the minrank package exports."""

import ast
import builtins
import dataclasses
import inspect
import sys
from pathlib import Path

import minrank
from minrank import cli, gf2, partial, solutions

EXPORTS = [
    "CodeMatrixSpec", "ConsistentOperator", "Depth2Circuit", "EpsilonRecord",
    "ForbiddenSet", "GF2Matrix", "HullVerdict", "InternalError", "IsolationWitness",
    "LimitError", "LinearDepth2Circuit", "MiddleGate",
    "OperatorConflict", "OutputGate", "ParseError", "PartialMatrix", "SearchRecord",
    "SolutionSet", "Subspace", "ToolConfig", "ToolkitError", "VERSION", "ball",
    "best_epsilon", "brute_force_opt_tiny", "canonical_completion", "code_matrix",
    "code_row_min_rank", "codistance", "col_min_rank", "compact",
    "conjecture_epsilon", "dot", "emit_ckt", "emit_pmx", "enumerate_completions",
    "enumerate_subspaces", "epsilon_of", "evaluate", "evaluate_matrix",
    "extract_linear_operator", "forbidden_set", "format_report", "gv_bound",
    "hamming_bound", "is_solution", "is_star_monotone", "isolation", "kernel",
    "lin_exact", "line_cover_number", "linear_hull_check", "linearize",
    "linearize_middle", "matrix_of", "max_independent_rows", "max_rank", "metrics",
    "min_distance", "min_rank", "min_rank_completion", "min_weight_nonzero",
    "opt_exact", "orthogonal_complement", "parse_ckt", "parse_pmx", "rank",
    "reconstruct_operator", "report", "rigidity", "row_min_rank", "row_text",
    "search", "separating_min_rank", "solve", "star_matching", "stars_independent",
    "subspaces_of_dim", "vec", "vec_text", "verify_ka_is_ball",
]


def test_exports_are_pinned():
    assert len(EXPORTS) == 81
    assert sorted(minrank.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(minrank, name) is not None


def test_star_import_brings_every_export():
    scope: dict = {}
    exec("from minrank import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == EXPORTS


def test_no_routine_takes_a_cap():
    # every cap is a constant in the module that enforces it; the one cap
    # a caller sets is opt_exact's column limit, which ToolConfig.opt_n
    # feeds through report and search
    optional = {
        name: [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]
        for name in EXPORTS
        if inspect.isfunction(fn := getattr(minrank, name))
    }
    assert {name: params for name, params in optional.items() if params} == {
        "evaluate_matrix": ["config"],
        "isolation": ["strong"],
        "min_rank": ["deadline"],
        "min_rank_completion": ["deadline"],
        "opt_exact": ["limit_n", "deadline"],
        "report": ["config"],
        "search": ["mode", "count", "config"],
    }


def test_tool_config_knobs_are_pinned():
    fields = [f.name for f in dataclasses.fields(minrank.ToolConfig)]
    assert fields == ["opt_n", "seed", "out"]
    # no dead knob: report, search or the command line reads each one
    # off a config, as cfg.x
    read = set()
    for name in ("report.py", "cli.py"):
        tree = ast.parse((Path(minrank.__file__).parent / name).read_text(encoding="utf-8"))
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"
        )
    assert [name for name in fields if name not in read] == []
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            imported.add(node.module)
    assert not any(name.split(".")[0] == "concurrent" for name in imported)
    # library code keeps no module-level dict and five caches, all
    # functools caches on pure functions: gf2's _delsarte_bound,
    # _half_mask and _weight_classes, and partial's _cleared_basis and
    # _star_basis, bounded; each matrix keeps its own completion record
    modules = (gf2, partial, solutions)
    dicts = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, dict)
    ]
    assert dicts == []
    caches = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    ]
    assert sorted(caches) == [
        "minrank.gf2._delsarte_bound", "minrank.gf2._half_mask",
        "minrank.gf2._weight_classes", "minrank.partial._cleared_basis",
        "minrank.partial._star_basis",
    ]


def test_the_runtime_imports_only_the_standard_library():
    # numpy or scipy may be installed, but the package must not need them
    outside = []
    for path in sorted(Path(minrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports only to re-export
    unused = []
    for path in sorted(Path(minrank.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_name_a_module_loads_is_bound_there():
    # a dropped import that is still used would raise NameError only when
    # its line runs; the unused-import check above cannot see it.  Scopes
    # are not told apart: a name bound anywhere in the module counts.
    unbound = []
    for path in sorted(Path(minrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set(dir(builtins))
        loaded = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loaded.setdefault(node.id, node.lineno)
                else:
                    bound.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
        unbound += [f"{path.name}:{line} {name}" for name, line in loaded.items() if name not in bound]
    assert unbound == []


def test_every_private_definition_is_referenced():
    # a private function, class, method or constant that nothing in the
    # package refers to is left over from a deleted path
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(minrank.__file__).parent.glob("*.py"))
    }
    # an assignment is not a reference
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.attr)
    unreferenced = []
    for name, tree in trees.items():
        for top in tree.body:
            for node in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, ast.Assign):
                    defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    defined = [node.target.id]
                else:
                    continue
                unreferenced += [
                    f"{name}:{node.lineno} {d}"
                    for d in defined
                    if d.startswith("_") and not d.startswith("__") and d not in referenced
                ]
    assert unreferenced == []


def test_only_two_searches_call_themselves():
    # every other search runs on an explicit stack, so no input can reach
    # the recursion limit there
    def own_calls(node, name):
        return any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == name
            for call in ast.walk(node)
        )

    recursive = []
    for path in sorted(Path(minrank.__file__).parent.glob("*.py")):
        recursive += [
            f"{path.name} {node.name}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and own_calls(node, node.name)
        ]
    assert sorted(recursive) == ["partial.py extend", "partial.py try_row"]


def test_no_module_rebinds_a_module_global():
    # module-level state set by library calls would be shared by every
    # caller and thread; what a call keeps, its argument keeps
    rebinding = [
        f"{path.name}:{node.lineno} {', '.join(node.names)}"
        for path in sorted(Path(minrank.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert rebinding == []
