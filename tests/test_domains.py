"""The integer domains of the library functions that the CLI row functions,
bench/workloads.run_op and scripts/*.py call directly, as
tests/test_cli.py _DOMAIN states those of the CLI flags: the least value
of each integer parameter gives a result or a budget violation, and the
value below it, or a float, a precondition violation."""

import ast
import importlib
import inspect
import pathlib
import textwrap

import pytest

from waringtk import powersets, represent
from waringtk.cli import COMMANDS
from waringtk.errors import PreconditionError, ResourceError

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_VEC = represent.count_theorem13(60, 2, 2, 5, 2)
_TABLE = powersets.rep_count_table(2, 3, 20)

# function: (small arguments, {integer parameter: the least value inside its
# domain with the other arguments as given, or None where it has no lower
# bound (a residue n or a numerator a is read mod q)})
_DOMAIN = {
    "powersets.rep_count_table": ({"l": 2, "t": 3, "limit": 20}, {"l": 1, "t": 1, "limit": 0}),
    "powersets.distinct_count": ({"table": _TABLE, "limit": 20}, {"limit": 0}),
    "smooth.default_y_grid": ({"r": 2, "l": 2}, {"r": 1, "l": 1}),
    # the CLI reads density_report in smooth, bench/workloads.run_op in powersets
    "smooth.density_report": ({"r": 2, "l": 2, "Y_grid": [4, 8]}, {"r": 1, "l": 1}),
    "powersets.density_report": ({"r": 2, "l": 2, "Y_grid": [4, 8]}, {"r": 1, "l": 1}),
    "expsums.s_k": ({"q": 7, "a": 3, "k": 2}, {"q": 1, "a": None, "k": 0}),
    "expsums.w_q": ({"q": 7, "a": 3, "k": 2}, {"q": 1, "a": None, "k": 0}),
    "expsums.w_k_weight": ({"q": 12, "k": 2}, {"q": 1, "k": 1}),
    "expsums.s_form": ({"q": 7, "a": 3, "k": 2, "l": 2, "t": 3}, {"q": 1, "a": None, "k": 0, "l": 1, "t": 1}),
    "expsums.weight_bound_sweep": ({"Q": 6, "k": 2, "which": "Sk"}, {"Q": 1, "k": 1}),
    "expsums.weight_sum_growth": ({"Q_grid": [4, 8], "k": 2}, {"k": 1}),
    "local.m_n": (
        {"p": 3, "h": 2, "n": 4, "k": 2, "l": 2, "t": 3, "s": 1},
        {"p": 2, "h": 0, "n": None, "k": 1, "l": 1, "t": 1, "s": 0},
    ),
    # M* fixes x_{1,1}, so it needs a block: s >= 1 (at h >= 1)
    "local.m_star_n": (
        {"p": 3, "h": 2, "n": 4, "k": 2, "l": 2, "t": 3, "s": 1},
        {"p": 2, "h": 0, "n": None, "k": 1, "l": 1, "t": 1, "s": 1},
    ),
    # the lemma's case p = k = 2 needs t >= 4l and s >= 2
    "local.verify_local_solubility": (
        {"p": 2, "k": 2, "l": 2, "t": 8, "s": 2, "which": "M"},
        {"p": 2, "k": 1, "l": 1, "t": 8, "s": 2},
    ),
    "singular.truncated_series": (
        {"n": 10, "Q": 10, "k": 2, "l": 2, "t": 3, "s": 2},
        {"n": None, "Q": 1, "k": 1, "l": 1, "t": 1, "s": 0},
    ),
    "singular.snm_identity_check": (
        {"p": 3, "h": 2, "n": 4, "k": 2, "l": 2, "t": 3, "s": 1},
        {"p": 2, "h": 0, "n": None, "k": 1, "l": 1, "t": 1, "s": 0},
    ),
    "singular.positivity_sweep": (
        {"n_values": [2, 3], "k": 2, "l": 2, "t": 3, "s": 2, "Q": 10},
        {"k": 1, "l": 1, "t": 1, "s": 0, "Q": 1},
    ),
    "integral.j_prime_exact": ({"n": 30, "s": 3, "xi": 5, "k": 2, "l": 2}, {"n": 1, "s": 2, "xi": 1, "k": 1, "l": 1}),
    "integral.j_prime_quadrature": (
        {"n": 30, "s": 3, "xi": 5, "k": 2, "l": 2},
        {"n": 1, "s": 2, "xi": 1, "k": 1, "l": 1},
    ),
    "integral.j_prime_main_term": (
        {"n": 30, "s": 3, "xi": 5, "k": 2, "l": 2},
        {"n": 1, "s": 2, "xi": 1, "k": 1, "l": 1},
    ),
    "integral.j_singular_exact": ({"n": 30, "s": 1, "k": 2, "l": 2, "t": 3}, {"n": 2, "s": 0, "k": 2, "l": 1, "t": 1}),
    "integral.u_decay_check": (
        {"n": 30, "t": 3, "k": 2, "l": 2, "sample_count": 10, "seed": 0},
        {"n": 1, "t": 1, "k": 1, "l": 1, "sample_count": 10, "seed": 0},
    ),
    # Q = 1 < P = n^(1/kl) needs n >= 2
    "arcs.major_residual_sweep": (
        {"n": 82, "k": 2, "l": 2, "t": 3, "Q": 1, "sample_count": 2, "seed": 0},
        {"n": 2, "k": 1, "l": 1, "t": 1, "Q": 1, "sample_count": 1, "seed": 0},
    ),
    "arcs.weyl_bound_sweep": (
        {"n": 82, "k": 2, "l": 2, "t": 3, "sample_count": 2, "seed": 0},
        {"n": 1, "k": 1, "l": 1, "t": 1, "sample_count": 1, "seed": 0},
    ),
    # classify_major and vinogradov_mean_value: the CLI reads them in
    # rational and smooth, bench/workloads.run_op in arcs
    "rational.classify_major": ({"alpha": 0.3, "n": 100, "Q": 5}, {"n": 1, "Q": 1}),
    "arcs.classify_major": ({"alpha": 0.3, "n": 100, "Q": 5}, {"n": 1, "Q": 1}),
    "rational.classify_mm": ({"alpha": 0.3, "n": 100, "k": 2, "M": 4.0}, {"n": 1, "k": 1}),
    "smooth.vinogradov_mean_value": (
        {"s": 2, "k_sys": 2, "r": 2, "Y": 10, "l": 2},
        {"s": 1, "k_sys": 1, "r": 1, "Y": 1, "l": 1},
    ),
    "arcs.vinogradov_mean_value": (
        {"s": 2, "k_sys": 2, "r": 2, "Y": 10, "l": 2},
        {"s": 1, "k_sys": 1, "r": 1, "Y": 1, "l": 1},
    ),
    "represent.count_conje": (
        {"n_max": 30, "k": 2, "l": 2, "t": 3, "s": 1, "r_extra": 1},
        {"n_max": 0, "k": 1, "l": 1, "t": 1, "s": 0, "r_extra": 0},
    ),
    "represent.count_theorem13": (
        {"n_max": 30, "k": 2, "l": 2, "xi": 3, "s": 2},
        {"n_max": 0, "k": 1, "l": 1, "xi": 1, "s": 1},
    ),
    "represent.main_term": (
        {"n": 30, "k": 2, "l": 2, "xi": 5, "s": 2, "Q": 10},
        {"n": 1, "k": 1, "l": 1, "xi": 1, "s": 1, "Q": 1},
    ),
    # n_hi >= n_lo = 10
    "represent.window_ratio": (
        {"vec": _VEC, "n_lo": 10, "n_hi": 20, "k": 2, "l": 2, "xi": 5, "s": 2, "Q": 10},
        {"n_lo": 1, "n_hi": 10, "k": 1, "l": 1, "xi": 1, "s": 1, "Q": 1},
    ),
    "smooth.k2_mean_value": ({"t": 2, "X_cap": 10, "l": 2, "Y": 3}, {"t": 1, "X_cap": 0, "l": 1, "Y": 1}),
    "params.ProblemParams": ({"k": 2, "l": 2, "t": 3, "n": 100, "xi": 2}, {"k": 2, "l": 2, "t": 1, "n": 1, "xi": 1}),
    "params.varphi": ({"k": 2, "t1": 1, "l": 2}, {"k": 1, "t1": 0, "l": 1}),
    "params.xi0": ({"k": 2, "l": 2}, {"k": 1, "l": 1}),
}
_BOUNDS = [(name, param, least) for name, (_, bounds) in _DOMAIN.items() for param, least in bounds.items()]
_OUTSIDE = [(name, param, least - 1) for name, param, least in _BOUNDS if least is not None] + [
    (name, param, _DOMAIN[name][0][param] + 0.5) for name, param, _ in _BOUNDS
]


def _call(name: str, param: str, value):
    module, attr = name.split(".")
    args, _ = _DOMAIN[name]
    return getattr(importlib.import_module(f"waringtk.{module}"), attr)(**{**args, param: value})


def _direct_calls(tree: ast.AST, modules: dict[str, str]) -> set[str]:
    """'module.name' for every attribute read of a waringtk module in tree
    (modules maps a local name to its module, and grows by the tree's
    `from waringtk import ...`) and every name a `from waringtk.module
    import ...` in tree binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "waringtk":
            modules.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("waringtk."):
            module = node.module.split(".")[1]
            names.update({alias.asname or alias.name: f"{module}.{alias.name}" for alias in node.names})
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in names:
            found.add(names[node.id])
    return found


def _integer_parameters(name: str) -> list[str]:
    module, attr = name.split(".")
    obj = getattr(importlib.import_module(f"waringtk.{module}"), attr)
    if not (inspect.isfunction(obj) or inspect.isclass(obj)):
        return []
    return [p.name for p in inspect.signature(obj).parameters.values() if p.annotation in ("int", "int | None")]


def test_every_direct_call_has_a_domain():
    """_DOMAIN covers every integer parameter of every function or class
    that a CLI row function, bench/workloads.run_op or a script names."""
    called = set()
    for module, row, _ in COMMANDS.values():
        tree = ast.parse(textwrap.dedent(inspect.getsource(row)))
        called |= _direct_calls(tree, {next(iter(inspect.signature(row).parameters)): module})
    workloads = ast.parse((_ROOT / "bench" / "workloads.py").read_text())
    called |= _direct_calls(next(f for f in workloads.body if getattr(f, "name", None) == "run_op"), {})
    for script in sorted(_ROOT.glob("scripts/*.py")):
        called |= _direct_calls(ast.parse(script.read_text()), {})
    want = {(name, param) for name in called for param in _integer_parameters(name)}
    assert {(name, param) for name, param, _ in _BOUNDS} == want


@pytest.mark.parametrize("name, param, least", _BOUNDS)
def test_least_value_is_inside(name, param, least):
    """The least value of a domain (-3 where it has no lower bound) gives a
    result or a budget violation."""
    try:
        _call(name, param, -3 if least is None else least)
    except ResourceError:
        pass


@pytest.mark.parametrize("name, param, value", _OUTSIDE)
def test_value_outside_is_a_precondition_violation(name, param, value):
    """The value below a domain's least one, and a float, raise
    PreconditionError, never another exception."""
    with pytest.raises(PreconditionError):
        _call(name, param, value)


# a call outside its domain, and the call inside it that fills the lru
# caches the first would reach: the check runs before any cached callee
# (an lru key reads 2.0 as 2), so the first call raises PreconditionError
# both on cold caches and after the second.
_COLD_WARM = {
    "expsums.s_k": ((49, 3, 2.0), (49, 3, 2)),
    "expsums.w_q": ((49, 3, 2.0), (49, 3, 2)),
    "arith.sieve_primes": ((13.0,), (13,)),
    "integral.U_major": ((0.1, 0, 1, 100, 0, 2, 3), (0.1, 0, 1, 100, 2, 2, 3)),
}


@pytest.mark.parametrize("name", list(_COLD_WARM))
def test_checks_run_before_cached_callees(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"waringtk.{module}"), attr)
    bad, good = _COLD_WARM[name]
    for mod in ("arith", "expsums", "integral"):
        for obj in vars(importlib.import_module(f"waringtk.{mod}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    with pytest.raises(PreconditionError):
        fn(*bad)
    fn(*good)
    with pytest.raises(PreconditionError):
        fn(*bad)
