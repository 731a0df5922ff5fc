"""The package keeps to the oldest Python and numpy that pyproject.toml
declares, 3.10 and 1.23.

Without those versions installed these checks are static: every module of
the package, the tests and the demos must parse under the 3.10 grammar, name
no standard-library feature added in 3.11 and no numpy name or keyword added
in 2.x.  The benchmark under perfbench/ is not held to them.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "corrcache"
MODULES = sorted(SRC.rglob("*.py"))
CHECKED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _module_id(path: pathlib.Path) -> str:
    """A package module by its name, a test or demo by its path."""
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))

# standard-library names added in Python 3.11, by module
NEW_IN_311 = {
    "asyncio": {"Barrier", "Runner", "TaskGroup", "Timeout", "timeout", "timeout_at"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum", "member",
             "nonmember", "show_flag_values", "verify"},
    "hashlib": {"file_digest"},
    "inspect": {"getmembers_static"},
    "logging": {"getLevelNamesMapping"},
    "math": {"cbrt", "exp2"},
    "operator": {"call"},
    "re": {"NOFLAG"},
    "sys": {"exception"},
    "typing": {"LiteralString", "Never", "NotRequired", "Required", "Self", "TypeVarTuple",
               "Unpack", "assert_never", "assert_type", "clear_overloads",
               "dataclass_transform", "get_overloads", "reveal_type"},
}
MODULES_NEW_IN_311 = {"tomllib", "wsgiref.types"}
BUILTINS_NEW_IN_311 = {"BaseExceptionGroup", "ExceptionGroup"}


# numpy functions added in 2.x, and the keyword its sorts gained there
NEW_IN_NUMPY_2 = {"unique_all", "unique_counts", "unique_inverse", "unique_values",
                  "cumulative_sum", "cumulative_prod", "concat", "astype", "isdtype",
                  "bitwise_count", "permute_dims", "pow", "vecdot"}
SORTS_WITH_STABLE = {"sort", "argsort"}


def names_new_in_numpy_2(source: str) -> list[str]:
    """Uses of numpy names and keywords added in 2.x in ``source``."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"numpy.{a.name}" for a in node.names if a.name in NEW_IN_NUMPY_2]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr in NEW_IN_NUMPY_2):
            found.append(f"numpy.{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in SORTS_WITH_STABLE
              and any(k.arg == "stable" for k in node.keywords)):
            # np.sort(a, stable=True) and a.sort(stable=True) alike: no
            # standard-library sort takes that keyword
            found.append(f"{node.func.attr}(stable=)")
    return found


def names_new_in_311(source: str) -> list[str]:
    """Uses of 3.11-only standard-library names and syntax in ``source``."""
    tree = ast.parse(source, feature_version=(3, 10))
    aliases = {}  # local name -> module, from `import module [as name]`
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname is not None:
                    aliases[a.asname] = a.name
                else:
                    aliases[a.name.split(".")[0]] = a.name.split(".")[0]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in MODULES_NEW_IN_311]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in MODULES_NEW_IN_311:
                found.append(node.module)
            new = NEW_IN_311.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in new]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if node.attr in NEW_IN_311.get(module, set()):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BUILTINS_NEW_IN_311:
            found.append(node.id)
        elif isinstance(node, ast.Subscript):
            # PEP 646 unpacking in a subscript, which the 3.10 grammar
            # check lets through
            items = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if any(isinstance(item, ast.Starred) for item in items):
                found.append("a[*b]")
        elif isinstance(node, ast.arg) and isinstance(node.annotation, ast.Starred):
            found.append("*args: *Ts")
    return found


def test_the_package_has_modules():
    assert SRC / "__init__.py" in MODULES and len(MODULES) > 5


def test_the_tests_and_demos_are_checked_too():
    checked = {_module_id(p) for p in CHECKED}
    assert {"tests/conftest.py", "tests/test_compat.py", "demos/demo_policy_sweep.py"} <= checked
    assert not any(name.startswith("perfbench") for name in checked)


@pytest.mark.parametrize("path", CHECKED, ids=_module_id)
def test_module_keeps_to_python_3_10(path):
    assert names_new_in_311(path.read_text()) == []


@pytest.mark.parametrize("path", CHECKED, ids=_module_id)
def test_module_keeps_to_numpy_1_23(path):
    assert names_new_in_numpy_2(path.read_text()) == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import operator\noperator.call(f, 1)\n", "operator.call"),
        ("import operator as op\nop.call(f)\n", "operator.call"),
        ("from operator import call\n", "operator.call"),
        ("import tomllib\n", "tomllib"),
        ("from typing import Self\n", "typing.Self"),
        ("import enum\nclass C(enum.StrEnum): pass\n", "enum.StrEnum"),
        ("import datetime\nt = datetime.UTC\n", "datetime.UTC"),
        ("import asyncio\nasync def f():\n    async with asyncio.TaskGroup(): pass\n",
         "asyncio.TaskGroup"),
        ("raise ExceptionGroup('x', [])\n", "ExceptionGroup"),
        ("x = a[*b]\n", "a[*b]"),
    ],
)
def test_guard_finds_3_11_names(source, name):
    assert names_new_in_311(source) == [name]


def test_guard_rejects_3_11_syntax_and_passes_3_10_code():
    with pytest.raises(SyntaxError):
        names_new_in_311("try:\n    pass\nexcept* ValueError:\n    pass\n")
    ok = (
        "import operator\nfrom typing import Optional\n"
        "match x:\n    case 1:\n        y = operator.add(x, 1)\n"
    )
    assert names_new_in_311(ok) == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import numpy as np\nu, c = np.unique_counts(a)\n", "numpy.unique_counts"),
        ("import numpy\nnumpy.unique_values(a)\n", "numpy.unique_values"),
        ("import numpy as np\nnp.unique_inverse(a)\n", "numpy.unique_inverse"),
        ("import numpy as np\nnp.unique_all(a)\n", "numpy.unique_all"),
        ("import numpy as np\nnp.cumulative_sum(a)\n", "numpy.cumulative_sum"),
        ("import numpy as np\nnp.cumulative_prod(a)\n", "numpy.cumulative_prod"),
        ("import numpy as np\nnp.concat([a, b])\n", "numpy.concat"),
        ("import numpy as np\nnp.astype(a, np.int32)\n", "numpy.astype"),
        ("import numpy as np\nnp.isdtype(a.dtype, 'integral')\n", "numpy.isdtype"),
        ("import numpy as np\nnp.bitwise_count(a)\n", "numpy.bitwise_count"),
        ("import numpy as np\nnp.permute_dims(a, (1, 0))\n", "numpy.permute_dims"),
        ("import numpy as np\nnp.pow(a, 2)\n", "numpy.pow"),
        ("import numpy as np\nnp.vecdot(a, b)\n", "numpy.vecdot"),
        ("from numpy import concat\n", "numpy.concat"),
        ("import numpy as np\nnp.argsort(a, stable=True)\n", "argsort(stable=)"),
        ("import numpy as np\nnp.sort(a, stable=True)\n", "sort(stable=)"),
        ("a.sort(stable=False)\n", "sort(stable=)"),
    ],
)
def test_guard_finds_numpy_2_names(source, name):
    assert names_new_in_numpy_2(source) == [name]


def test_guard_passes_numpy_1_23_code():
    ok = (
        "import numpy as np\nimport math\n"
        "np.argsort(a, kind='stable')\na.astype(np.int32)\nnp.concatenate([a])\n"
        "np.unique(a, return_counts=True)\nnp.power(a, 2)\nmath.pow(2, 3)\n"
        "b = sorted(a)\na.sort()\n"
    )
    assert names_new_in_numpy_2(ok) == []
