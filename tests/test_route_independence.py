"""The routes' independence: what each n_d and q-series route may call.

flexk3 computes n_d by five routes and the q-series a(n) by two, and the
routes check each other only while none reads another's work.  CONTRACT
states who may call what; the test records, by sys.setprofile, every
package function and every math function each route calls, its memos and
kept stores cleared first so that no cached path hides a call.
"""

from __future__ import annotations

import os
import sys
import types
from math import comb

from flexk3 import exact, flexdeg, qseries, schubert, truncpoly

ND_ROUTES = {method: getattr(flexdeg, name) for method, (_, name) in flexdeg.ROUTES.items()}
Q_ROUTES = {"jacobi": qseries.euler_power_neg24, "oracle": qseries.euler_power_neg24_by_product}
ANY = frozenset(ND_ROUTES) | frozenset(Q_ROUTES)

# Trusted arithmetic (every math function, exact_div, _exact_div_short) and
# input checks may serve any route.  chern_total is the one share: routes 4 and
# 5 pair the same Chern part against two independent integrations.  Every other
# package function belongs to one route.  Routes 2 and 4 both start from
# C(d) = perm(2d, d) / (d+1)! through _exact_div_short, by design.
CONTRACT = {
    "exact.exact_div": ANY,
    "exact._exact_div_short": ANY,
    "exact._require_at_least": ANY,
    "math.comb": ANY - {"factorial"},  # route 2 takes no binomial
    "truncpoly.chern_total": {"monomial", "schubert"},
    "flexdeg.nd_closed": {"closed"},
    "exact.catalan": {"closed"},
    "exact._central_binomial": {"closed"},
    "flexdeg.nd_factorial": {"factorial"},
    "flexdeg.nd_double_sum": {"sum"},
    "flexdeg._double_sum_raw": {"sum"},
    "flexdeg._double_sum_sign": {"sum"},
    "flexdeg.nd_chern_monomial": {"monomial"},
    "schubert.monomial_integral": {"monomial"},
    "flexdeg.nd_chern_schubert": {"schubert"},
    "schubert._sigma1_column": {"schubert"},
    "schubert._sigma1_step": {"schubert"},
    "qseries.euler_power_neg24": {"jacobi"},
    "qseries._jacobi_cube_terms": {"jacobi"},
    "qseries._certify": {"jacobi"},
    "qseries.divisor_sums": {"jacobi"},
    "qseries.euler_power_neg24_by_product": {"oracle"},
    "qseries._euler_product": {"oracle"},
    "qseries._euler_power_24": {"oracle"},
    "qseries._check_ramanujan_691": {"oracle"},
    "qseries._power_rule_inverse": {"oracle"},
    "exact.binomial": {"oracle"},
}


def package_code_names() -> dict[types.CodeType, str]:
    """Every code object of a flexk3 module-level function, its lambdas,
    comprehensions and nested functions included, named by that function."""
    names = {}

    def add(code, name):
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, name)

    for module in (exact, flexdeg, qseries, schubert, truncpoly):
        for attr, value in vars(module).items():
            value = getattr(value, "__wrapped__", value)  # lru_cache
            if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                add(value.__code__, f"{module.__name__.rsplit('.', 1)[1]}.{attr}")
    return names


def record_calls(call) -> set[str]:
    """Package and math functions call() reaches; a package frame of unknown code
    is recorded by its file and name, which CONTRACT does not hold.  A math
    function called from C, as through map, raises no profile event."""
    names, package, seen = package_code_names(), os.path.dirname(flexdeg.__file__), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            code = frame.f_code
            seen.add(names.get(code, f"{code.co_filename}:{code.co_name}"))
        elif event == "c_call" and getattr(arg, "__module__", None) == "math":
            seen.add(f"math.{arg.__name__}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return seen


def test_routes_call_only_their_own_and_trusted_functions(monkeypatch):
    # at 7 and 600, both sides of catalan's prime route (512)
    callers: dict[str, set[str]] = {}
    answers = {}
    for route, function in {**ND_ROUTES, **Q_ROUTES}.items():
        for size in (7, 600):
            for memo in (flexdeg.nd_closed, truncpoly.chern_total, flexdeg._double_sum_sign):
                memo.cache_clear()
            monkeypatch.setattr(qseries, "_longest", ())
            monkeypatch.setattr(schubert, "_walk", ([1], (1,)))
            for name in record_calls(lambda: answers.__setitem__((route, size), function(size))):
                callers.setdefault(name, set()).add(route)
    broken = {
        name: routes - CONTRACT.get(name, ANY if name.startswith("math.") else set())
        for name, routes in callers.items()
    }
    assert not {name: routes for name, routes in broken.items() if routes}
    # each share and owned function is called by just the routes CONTRACT names
    owned = {
        name: routes
        for name, routes in CONTRACT.items()
        if routes != ANY and not name.startswith("math.")
    }
    assert {name: callers.get(name) for name in owned} == owned
    # and the recorded routes still answer right
    for size in (7, 600):
        n = (2 * size + 1) * (comb(2 * size, size) // (size + 1)) ** 2
        assert [answers[route, size] for route in ND_ROUTES] == [n, n, (-n, n), n, n]
        assert answers["jacobi", size] == answers["oracle", size]
