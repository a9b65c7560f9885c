"""The package's public surface: every exported name exists, and every entry
refuses an integer below its floor in one of two wordings."""

from __future__ import annotations

import importlib
import pickle
import pkgutil
import re
import types
import typing

import pytest

import flexk3
import flexk3.cli
from flexk3 import flexdeg, qseries


def test_import_star_resolves_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from flexk3 import *", namespace)
    for name in flexk3.__all__:
        assert getattr(flexk3, name) is namespace[name]


def test_public_names_are_the_documented_ones():
    # __all__ is read off the imports, so a name imported by accident shows only here
    assert flexk3.__all__ == [
        "AsymReport", "CrossoverReport", "CrossoverRow", "FlexReport",
        "asym_flex", "asym_yz", "binomial", "catalan", "chern_total", "cross_check",
        "crossover", "euler_power_neg24", "euler_power_neg24_by_product", "exact_div",
        "flex_report", "monomial_integral", "nd_chern_monomial", "nd_chern_schubert",
        "nd_closed", "nd_double_sum", "nd_factorial", "yz_multiple",
    ]


def test_every_public_name_is_exported():
    public = [
        name
        for name, value in vars(flexk3).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(public) == sorted(flexk3.__all__)


POSITIVE_D = "d must be a positive integer, got 0"

# every public entry one below its floor: d >= 1 for n_d (L^2 = 2d), N >= 0 for a(N)
REFUSALS = [
    *((getattr(flexk3, name), (0,), POSITIVE_D) for name in (
        "nd_closed", "nd_factorial", "nd_double_sum", "nd_chern_monomial", "nd_chern_schubert",
        "flex_report", "asym_flex", "asym_yz", "yz_multiple", "chern_total")),
    (flexk3.cross_check, (0, 3), POSITIVE_D),
    (flexk3.catalan, (-1,), "d must be nonnegative, got -1"),
    (qseries.divisor_sums, (-1,), "N must be nonnegative, got -1"),
    (flexk3.euler_power_neg24, (0,), "N must be a positive integer, got 0"),
    (flexk3.euler_power_neg24_by_product, (0,), "N must be a positive integer, got 0"),
    (flexk3.crossover, (0,), "max_d must be a positive integer, got 0"),
    (flexk3.monomial_integral, (2, 0, 0), POSITIVE_D),
    (flexk3.monomial_integral, (-2, 2, 1), "m must be nonnegative, got -2"),
    (flexk3.monomial_integral, (4, -1, 1), "n must be nonnegative, got -1"),
    # past 4300 digits str() raises ValueError by default: the value is named by its size
    (flexk3.catalan, (-(1 << 5000),), "d must be nonnegative, got a 5001-bit integer"),
]


@pytest.mark.parametrize(
    "function, args, message",
    REFUSALS,
    ids=[function.__name__ for function, _, _ in REFUSALS],
)
def test_every_entry_refuses_below_its_floor_in_one_wording(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)


# record, defining module, exact _fields, first docstring line, a value made by the package
RECORDS = [
    (
        flexdeg.FlexReport,
        flexdeg,
        ("d", "n_closed", "n_factorial", "n_sum_raw", "n_sum_resolved",
         "n_chern_monomial", "n_chern_schubert", "agree"),
        "All method values for one d; agree covers the five resolved values.",
        lambda: flexk3.flex_report(4),
    ),
    (
        qseries.AsymReport,
        qseries,
        ("d", "log_exact", "log_model", "log_ratio"),
        "Exact log versus growth-model log; log_ratio = log_exact - log_model.",
        lambda: flexk3.asym_flex(50),
    ),
    (
        qseries.CrossoverRow,
        qseries,
        ("d", "n_d", "yz_d", "flex_larger"),
        "One crossover row: d, n_d, yz_d, and flex_larger, true when n_d > yz_d.",
        lambda: flexk3.crossover(12).rows[-1],
    ),
    (
        qseries.CrossoverReport,
        qseries,
        ("rows", "first_flex_dominant", "model_first_flex_dominant"),
        "Flex vs Yau-Zaslow comparison over d = 1..max_d, a tuple like its rows.",
        lambda: flexk3.crossover(12),
    ),
]


@pytest.mark.parametrize(
    "record, module, fields, summary, make", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_contract(record, module, fields, summary, make):
    name = record.__name__
    assert record._fields == fields
    assert record.__module__ == module.__name__
    assert getattr(module, name) is getattr(flexk3, name) is record
    assert record.__doc__.splitlines()[0] == summary

    value = make()
    assert type(value) is record
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is record and restored == value
    assert repr(value) == f"{name}(" + ", ".join(
        f"{field}={item!r}" for field, item in zip(fields, value)
    ) + ")"
    assert value._asdict() == dict(zip(fields, value))
    assert [getattr(value, field) for field in fields] == list(value)
    changed = value._replace(**{fields[0]: None})
    assert type(changed) is record
    assert changed[0] is None and changed[1:] == value[1:]
    assert value == tuple(value) and tuple(value) == value
    assert record(*value) == value


def package_functions():
    """(module name, name, function) for every function a flexk3 module defines,
    memoized ones included."""
    found = []
    for info in pkgutil.iter_modules(flexk3.__path__):
        module = importlib.import_module(f"flexk3.{info.name}")
        for name, value in vars(module).items():
            if callable(value) and not isinstance(value, type):
                if getattr(value, "__module__", None) == module.__name__:
                    found.append((module.__name__, name, value))
    return found


def test_every_annotation_resolves():
    # annotations stay strings at run time; each must resolve in its own module
    functions = package_functions()
    assert ("flexk3.cli", "_read", flexk3.cli._read) in functions
    assert ("flexk3.flexdeg", "nd_closed", flexdeg.nd_closed) in functions
    for *_, function in functions:
        typing.get_type_hints(function)
