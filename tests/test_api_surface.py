"""The surface of biximp: each option is a value some caller varies,
each function has a caller or a stated reason to exist, and no module
reads another module's private names.

Every optional parameter (one with a default, or a **kwargs) doubles the
settings the tests must cover, so the package keeps only those that a
call in src/ sets: an option that only tests set is a setting no run
uses.  A new option means a visible edit to ALLOWED, with the reason it
exists.  Likewise a function, class or public method that no src/ code
uses is either deleted or listed in KEPT, with the reason it stays.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import biximp
from test_traced_names import traced_names

SRC = Path(biximp.__file__).parent
TESTS = Path(__file__).parent

# "module.qualified_function.parameter" -> why callers vary it
ALLOWED = {
    "biexciton.closed_phi.parity": "even or odd relative branch",
    "cli.main.argv": "sys.argv for the console script, a list in tests",
    "dynamics.split_ratio.strict": "calibration probes skip the timing gate",
    "params.ModelParams.replace.**kwargs": "any subset of the model fields",
    "projected.checked_eigh.what":
        "names the projected or the pair Hamiltonian in the error",
    "roots.brentq.xtol": "each root finder sets its own tolerance",
    "roots.brentq.rtol": "the decay roots tighten it",
}


def defaulted(args):
    """Names of the parameters of an ast.arguments that have a default."""
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return names + (["**" + args.kwarg.arg] if args.kwarg else [])


def optional_parameters():
    """Every optional parameter in src/biximp, keyed as in ALLOWED."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                inner = scope + [getattr(child, "name", "<lambda>")]
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                found.extend(".".join(inner + [k]) for k in defaulted(child.args))
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_every_optional_parameter_is_allowed():
    found = optional_parameters()
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(ALLOWED)


# ALLOWED keys that no src/ call sets, each with the caller that does
NO_SRC_CALLER = {"cli.main.argv": "the console script leaves it to sys.argv"}


def parameter_slot(key):
    """(callee, position, name) of an ALLOWED key: the name a call of the
    function uses (its class's, for __init__), the parameter's index
    among a call's positional arguments (None if it has none) and the
    parameter's name."""
    module, *scope, name = key.split(".")
    owner = node = ast.parse((SRC / f"{module}.py").read_text())
    for part in scope:
        owner, node = node, next(n for n in node.body if getattr(n, "name", None) == part)
    positional = [a.arg for a in node.args.posonlyargs + node.args.args]
    if isinstance(owner, ast.ClassDef):
        positional = positional[1:]                 # self
    callee = owner.name if node.name == "__init__" else node.name
    return callee, positional.index(name) if name in positional else None, name


def sets(call, position, name):
    """Whether the ast.Call `call` passes the parameter `name`, by keyword
    or at `position`; any keyword passes a **kwargs."""
    if name.startswith("**"):
        return any(kw.arg is not None for kw in call.keywords)
    return (any(kw.arg == name for kw in call.keywords)
            or position is not None and len(call.args) > position)


def src_calls():
    """Every call in src/biximp, keyed by the name it calls: f() and x.f()."""
    calls = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(node)
    return calls


def test_every_option_has_a_src_caller():
    """Each ALLOWED parameter is passed by at least one call in src/."""
    calls = src_calls()
    unset = []
    for key in sorted(set(ALLOWED) - set(NO_SRC_CALLER)):
        callee, position, name = parameter_slot(key)
        if not any(sets(call, position, name) for call in calls[callee]):
            unset.append(key)
    assert unset == []
    assert set(NO_SRC_CALLER) <= set(ALLOWED)


# "module.function", "module.Class" or "module.Class.method" that no src/
# code names -> why it stays: "traced" (perfbench/run.py's TRACED list
# times it) or "oracle: <test file>::<test>" (the test checks a paper
# result with it).  Code that waits for a future caller is deleted, not
# kept.
KEPT = {
    "pairbasis.build_pair_hamiltonian": "traced",
    "pairbasis.classify_state": "traced",
    "pairbasis.reflection_expectation": "traced",
    "pairbasis.schmidt_number": "traced",
    "biexciton.ModeBasis.pair_amplitudes":
        "oracle: test_projected.py::test_brute_force_projection_oracle",
    "dynamics.fringe_visibility":
        "oracle: test_acceptance.py::test_criterion_6g_visibility_loss",
    "dynamics.schmidt_weights":
        "oracle: test_acceptance.py::test_criterion_6f_entropy_after_scattering",
    "exciton.ExcitonSpectrum.all_energies":
        "oracle: test_exciton.py::test_oracle_equivalence_matrix_vs_roots",
    "exciton.bound_energies_from_matrix":
        "oracle: test_acceptance.py::test_criterion_1_exciton_bound_state",
    "exciton.exciton_bound_wavevector_largen":
        "oracle: test_scattering.py::test_exciton_correspondence",
    "exciton.exciton_reflection_amplitude":
        "oracle: test_acceptance.py::test_criterion_7_property_suites",
    "projected.participation_ratio":
        "oracle: test_projected.py::test_participation_ratio_invariant",
}


def names_in(node):
    """How often each name and attribute occurs in the AST `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def loads_in(node, modules):
    """How often each top-level name is used in the AST `node`: a load of
    the bare name, or `m.name` on a biximp module that the file imports
    as m.  A field or attribute that shares the name is no use of it."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute) and dotted(n.value) in modules)


def uncalled():
    """Each top-level function and class of src/biximp that no src/ code
    uses outside its own body (loads_in), and each public method that no
    src/ code names outside its own body, keyed as in KEPT.  Imports and
    docstrings use nothing."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    modules = {module: package_modules(tree) for module, tree in trees}
    loads = sum((loads_in(tree, modules[module]) for module, tree in trees), Counter())
    names = sum((names_in(tree) for _, tree in trees), Counter())
    found = []
    for module, tree in trees:
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and loads[node.name] == loads_in(node, modules[module])[node.name]):
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                          and names[m.name] == names_in(m)[m.name]]
    return found


def test_every_function_has_a_caller():
    """Every function, class and public method has a src/ caller or a
    KEPT reason, and every KEPT entry still needs its reason: a traced
    name is in TRACED, and an oracle's test exists in a file that names
    it."""
    assert sorted(uncalled()) == sorted(KEPT)
    traced = set(traced_names())
    for name, reason in KEPT.items():
        kind, _, where = reason.partition(": ")
        assert kind in ("traced", "oracle"), name
        if kind == "traced":
            assert name in traced, name
        elif kind == "oracle":
            path, test = where.split("::")
            tree = ast.parse((TESTS / path).read_text())
            assert test in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, name
            assert names_in(tree)[name.split(".")[-1]], name


def is_private(name):
    """A leading underscore, dunder names excepted."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dotted(node):
    """"a.b.c" for a Name or an Attribute chain on a Name, else None."""
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def package_modules(tree):
    """The names under which `tree` imports biximp modules: `from . import
    m`, `from biximp import m` or `import biximp.m`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "biximp"):
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "biximp")
    return modules


def private_uses():
    """Each use in src/biximp of another biximp module's private name, as
    "file:line name": `from .m import _x`, or `m._x` on a module m that
    the file imports from the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = package_modules(tree)
        found += [f"{path.name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "biximp")
                  for alias in node.names if is_private(alias.name)]
        found += [f"{path.name}:{node.lineno} {dotted(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and is_private(node.attr)
                  and dotted(node.value) in modules]
    return found


def test_no_module_reads_another_modules_private_names():
    """A decision that two modules share lives behind a public name of
    one of them; tests may still reach private names."""
    assert private_uses() == []
