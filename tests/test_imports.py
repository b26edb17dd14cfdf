"""No module in ``src/extlab/`` or ``tests/`` imports a name it never reads,
every public top-level function or class of ``src/extlab/`` has a
reader, ``import extlab`` loads no numpy, only the CLI writes to stdout
or stderr, no ``src/extlab/`` module imports the ``altx`` reference, and
the GF(2^16) symbol kernels stay in ``nmx``.

No linter ships with the declared dependencies, so these are small AST
scans.  Every import in an ``__init__.py`` is a re-export and counts as
used; a re-export does not count as a reader."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/extlab/*.py"), *ROOT.glob("tests/*.py")])
MODULES = sorted(p for p in ROOT.glob("src/extlab/*.py")
                 if p.name != "__init__.py")
READERS = [*MODULES, *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", [p for p in FILES
                                  if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _module_of(name: str | None, modules: dict[str, str]) -> str | None:
    """The defining module a dotted import path names: one of ``modules``,
    ``"*"`` for the package (its re-exports), or None for anything else."""
    last = (name or "").split(".")[-1]
    return last if last in modules else "*" if last == "extlab" else None


def unread_definitions(modules: dict[str, str], readers: dict[str, str]
                       ) -> list[str]:
    """Public top-level defs and classes of ``modules`` (name -> source)
    that no reader (name -> source) reads.  A reader reads ``mod.f`` as
    the bare name ``f`` inside ``mod`` itself, as a name ``f`` that it
    imports from ``mod`` or from the package, or as the attribute ``f``
    of a name it binds to ``mod`` or to the package by an import.  The
    scan matches names, not bindings: a local that shadows such an
    imported ``f`` or module name still counts as a read."""
    read = set()
    for rname, source in readers.items():
        tree = ast.parse(source)
        names = {}   # local name -> (defining module, name there)
        mods = {}    # local name -> module it binds
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom):
                src = _module_of(n.module, modules)
                for a in n.names:
                    local = a.asname or a.name
                    sub = _module_of(a.name, modules)
                    if sub is not None and (n.module is None or src == "*"):
                        mods[local] = sub
                    elif src is not None:
                        names[local] = (src, a.name)
            elif isinstance(n, ast.Import):
                for a in n.names:
                    if _module_of(a.name, modules) is not None:
                        local = a.asname or a.name.split(".")[0]
                        mods[local] = _module_of(
                            a.name if a.asname else local, modules)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add((rname, n.id))
                if n.id in names:
                    read.add(names[n.id])
            elif isinstance(n, ast.Attribute):
                base = n.value
                key = (base.id if isinstance(base, ast.Name) else
                       base.attr if isinstance(base, ast.Attribute) else None)
                if isinstance(base, ast.Attribute):
                    mod = _module_of(key, modules)
                else:
                    mod = mods.get(key)
                if mod is not None:
                    read.add((mod, n.attr))
    return [f"{mod}.{node.name}" for mod, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and (mod, node.name) not in read and ("*", node.name) not in read]


def test_scan_flags_an_unread_definition():
    mod = ("def used(): pass\ndef unused(): pass\ndef shadowed(): pass\n"
           "def own(): pass\nclass _Hidden: pass\nown()\n")
    reader = ("from extlab import m\nfrom extlab.m import shadowed as s\n"
              "m.used()\ns = 1\nx.unused()\n")
    assert unread_definitions({"m": mod}, {"m": mod, "r": reader}) == \
        ["m.unused"]


def test_every_public_definition_has_a_reader():
    assert unread_definitions(
        {p.stem: p.read_text() for p in MODULES},
        {p.stem if p in MODULES else f"{p.parent.name}/{p.stem}":
         p.read_text() for p in READERS}) == []


def _numpy_modules_after(code: str) -> str:
    """The numpy modules loaded after running ``code`` in a fresh
    interpreter, as a printed sorted list."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code + "\nimport sys; "
                        "print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'numpy'))"],
                       env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def test_import_extlab_leaves_numpy_unloaded():
    # numpy and its GF(2^16) tables load on first use, so a command that
    # never needs them does not pay for them
    assert _numpy_modules_after("import extlab") == "[]"


def test_scalar_field_calls_leave_numpy_unloaded():
    # the scalar tables are ``array`` buffers above GF(2^8), so scalar
    # products, Horner steps and the narrow block-16 affine law never
    # load numpy
    assert _numpy_modules_after(
        "from extlab import gf2, sext\n"
        "for b in (9, 14, 16):\n"
        "    top = (1 << b) - 1\n"
        "    assert gf2.mul(top, 3, b) == gf2.mul_slow(top, 3, b)\n"
        "    gf2.poly_eval([top, 0, 5], top - 1, b)\n"
        "sext.affine_int(64, (1 << 128) - 3, (1 << 64) - 5)") == "[]"


def test_int_path_leaves_numpy_unloaded_at_block_16_widths():
    # the int path is pure Python at every width: a 512-bit affine law,
    # and an nm_ext whose plan has no symbol path (n = 1000 is no
    # multiple of 16) and whose level 0 is five 128-bit chains
    assert _numpy_modules_after(
        "from extlab import nmx, sext\n"
        "from extlab.bits import BitString\n"
        "assert sext.affine_int(512, (1 << 1024) - 3, (1 << 512) - 5)\n"
        "p = nmx.plan_params(1000, 768, 512, 32, 2 ** -8)\n"
        "assert p.symbols16 is None\n"
        "assert [p.nipm.levels[0].w, p.nipm.L] == [128, 20]\n"
        "nmx.nm_ext(BitString(1000, (1 << 1000) // 7),\n"
        "           BitString(512, (1 << 512) // 11), p)") == "[]"


def test_micro_nm_ext_and_census_advice_leave_numpy_unloaded():
    # the Reed-Solomon masks are ints, built without numpy at micro and
    # census widths, and the micro pipeline stays on ints
    assert _numpy_modules_after(
        "from extlab import cbreak, nmx\n"
        "from extlab.bits import BitString\n"
        "p = cbreak.plan_adv_gen(16, 8, 0.1)\n"
        "assert [cbreak.adv_gen_val(0x9D3A, y, p) for y in (0, 255)]\n"
        "m = nmx.micro_params()\n"
        "nmx.nm_ext(BitString(16, 0x9D3A), BitString(16, 0xC5F1), m)"
    ) == "[]"


@pytest.mark.parametrize("path", sorted(
    [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"),
     *ROOT.glob("perfbench/**/*.py")]), ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    # pyproject declares requires-python >= 3.10, and the code relies on
    # it (int.bit_count), so no file may use later syntax
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


STREAMS = {("sys", "stdout"), ("sys", "stderr"), ("os", "write")}


def stream_writes(source: str) -> list[str]:
    """The lines of ``source`` that call ``print``, or read or import
    ``sys.stdout``, ``sys.stderr`` or ``os.write``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            hits.append((node.lineno, "print"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) in STREAMS):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, f"{node.module}.{a.name}")
                     for a in node.names if (node.module, a.name) in STREAMS]
    return [f"line {line}: {name}" for line, name in sorted(hits)]


def test_scan_flags_a_stream_write():
    assert stream_writes(
        "import os, sys\nfrom sys import stderr as e\nprint(1)\n"
        "sys.stdout.write('a')\nos.write(2, b'b')\nout = sys.stderr\n"
        "log.print(1)\nsys.argv\n") == [
        "line 2: sys.stderr", "line 3: print", "line 4: sys.stdout",
        "line 5: os.write", "line 6: sys.stderr"]


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name ==
                                  "extlab" and p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_writes_to_stdout_or_stderr(path):
    # the benchmark client prints READY first and one JSON line last, so
    # a stray write from the library breaks its protocol
    assert stream_writes(path.read_text()) == []


KERNELS = {"affine16", "fold16", "chain16"}


def layout_breaches(module: str, source: str) -> list[str]:
    """The lines of ``src/extlab`` module ``module`` that import ``altx``,
    or, outside ``nmx``, define or call a GF(2^16) symbol kernel."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            names = []
        if any("altx" in name.split(".") for name in names):
            hits.append((node.lineno, "imports altx"))
        if module == "nmx":
            continue
        if isinstance(node, ast.FunctionDef) and node.name in KERNELS:
            hits.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in KERNELS:
                hits.append((node.lineno, f"calls {name}"))
    return [f"line {line}: {what}" for line, what in sorted(hits)]


def test_scan_flags_an_altx_import_and_a_stray_kernel():
    source = ("from . import altx\nfrom .altx import look_ahead\n"
              "import extlab.altx\ndef fold16(a): pass\n"
              "nmx.chain16(1)\naffine16(1, 2, 3)\nfrom .nmx import fold16\n")
    assert layout_breaches("nipm", source) == [
        "line 1: imports altx", "line 2: imports altx",
        "line 3: imports altx", "line 4: defines fold16",
        "line 5: calls chain16", "line 6: calls affine16"]
    assert layout_breaches("nmx", source) == [
        "line 1: imports altx", "line 2: imports altx",
        "line 3: imports altx"]


@pytest.mark.parametrize("path", [p for p in FILES
                                  if p.parent.name == "extlab"],
                         ids=lambda p: p.name)
def test_no_module_imports_altx_and_kernels_stay_in_nmx(path):
    # altx.look_ahead is a test reference, and only nmx's symbol path
    # runs the numpy kernels
    assert layout_breaches(path.stem, path.read_text()) == []
