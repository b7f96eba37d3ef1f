"""The optional parameters of biximp: each one is a value some caller varies.

Every optional parameter (one with a default, or a **kwargs) doubles the
settings the tests must cover, so the package keeps only those that a
caller in src/ or tests/ sets to more than one value.  A new option
means a visible edit to ALLOWED, with the reason it exists.
"""

import ast
from pathlib import Path

import biximp

# "module.qualified_function.parameter" -> why callers vary it
ALLOWED = {
    "biexciton.closed_phi.parity": "even or odd relative branch",
    # only tests set it; goes with large_n (ROADMAP item 2)
    "biexciton.ModeBasis.__init__.method":
        "'auto' in the commands; tests force 'exact' or 'large_n'",
    "cli.number.kind": "float or operator.index reads of a config value",
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

    for path in sorted(Path(biximp.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_every_optional_parameter_is_allowed():
    found = optional_parameters()
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(ALLOWED)
