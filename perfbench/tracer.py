"""Span tracing of biximp's public functions, installed from outside.

`Tracer.install` wraps every public function and method of the layer
modules in its defining module, and rebinds every reference that a
biximp module imported by name (including function tables such as
`cli.COMMANDS`).  Each call is a span; a function's self time is its
span time minus the time of the traced spans it called.  Records stay
in memory.  Nothing under src/ is changed.
"""

import dataclasses
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

# modules, in layer order; params is counted with biexciton and errors
# does no work
MODULES = ("params", "biexciton", "projected", "scattering", "exciton",
           "pairbasis", "dynamics", "csvio", "cli")
LAYERS = ("biexciton", "projected", "scattering", "exciton", "pairbasis",
          "dynamics", "csvio", "cli")
LAYER_OF = {"params": "biexciton"}

# Called ~1e5 times per workload from inside one traced function: their
# time is meant to count as the caller's self time, and wrapping them
# would make the tracing overhead larger than the work.
INNER = frozenset({"biexciton.log_cosh", "biexciton.log_sinh",
                   "scattering.phi_complex_k", "pairbasis.PairBasis.locate",
                   "params.wrap_site"})


def layer_of(name):
    module = name.split(".", 1)[0]
    return LAYER_OF.get(module, module)


@dataclass
class Record:
    calls: int = 0
    self_s: float = 0.0
    keys: list = field(default_factory=list)


class Tracer:
    """Span records keyed by "<module>.<function>" or "<module>.<Class>[.<method>]".

    `key_hooks` maps a record name to a function of the call's arguments
    whose result is appended to that record's `keys` on every call.
    """

    def __init__(self, clock=time.perf_counter, key_hooks=None):
        self.clock = clock
        self.key_hooks = dict(key_hooks or {})
        self.records = {}
        self._open = []    # per open span: time covered by its traced children

    def wrap(self, name, fn):
        rec = self.records.setdefault(name, Record())
        hook = self.key_hooks.get(name)
        clock, open_spans = self.clock, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                try:
                    rec.keys.append(hook(*args, **kwargs))
                except Exception:      # a changed signature must not break the run
                    rec.keys.append(None)
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec.calls += 1
                rec.self_s += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt

        return traced

    def install(self, package):
        """Wrap the layer modules of `package` (the imported biximp)."""
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"{package.__name__}.{name}")
            except ImportError:
                continue
        wrapped = {}      # id(original) -> wrapper
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{short}.{name}"
                    if qual not in INNER:
                        wrapped[id(obj)] = self.wrap(qual, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{name}", obj)
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]

    def _wrap_class(self, qual, cls):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                name = qual                     # constructing the object
            elif attr.startswith("_"):
                continue
            else:
                name = f"{qual}.{attr}"
            if name not in INNER:
                setattr(cls, attr, self.wrap(name, fn))

    def reset(self):
        """Zero every record in place (the wrappers hold references to them)."""
        for rec in self.records.values():
            rec.calls, rec.self_s = 0, 0.0
            rec.keys.clear()


def layer_self_time(records):
    """Self time summed per layer from {name: {"self_s": ...}} records."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, rec in records.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + rec["self_s"]
    return out


def basis_key(modes_self, params, method="auto"):
    """What a ModeBasis depends on: everything but V0."""
    return (params.N, params.J, params.D, params.E0, method)


def pair_dim(params, basis=None):
    """Dimension of the dense pair Hamiltonian."""
    return params.N * (params.N - 1) // 2


KEY_HOOKS = {"biexciton.ModeBasis": basis_key,
             "pairbasis.diagonalize_full": pair_dim}
