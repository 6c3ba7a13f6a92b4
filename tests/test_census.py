"""Every function of the package is on the path of a golden CLI case.

The census writes the input files of test_cli_golden, then empties every
lru_cache of the package so that no case is served from the work of an
earlier test or of the set-up, and then runs every case of
test_cli_golden in process under sys.setprofile, collecting the code
objects called.  Only the runs are profiled: a function that only writes
the inputs is not reached.  Every function or method defined in
src/profspan/, nested ones included, must be among them, unless ALLOWED
names it with the reason it is kept.  A function that only the tests
call belongs in tests/oracles.py.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
import types
from pathlib import Path

import profspan

import test_cli_golden as golden

PACKAGE = Path(profspan.__file__).parent

_TOWER_FILES = "tower files, which no verb reads yet (ROADMAP item 4)"
_MOD_N = "Burnside functors mod n, a mackey-limit family to come (ROADMAP item 5)"
_IMPORT = "called at import, before any case runs"
_REPR = "the repr of a failing test's operands"
_CORPUS = "the benchmark's corpus: perfbench imports profspan.corpus"
_NAMED = "builds a named group of the benchmark's corpus; no verb takes one yet"
_WRITES = "writes test and benchmark inputs; no verb writes one yet (ROADMAP item 10)"
_EQUALITY = "value equality of a value class, which no case compares or hashes"

# Functions that no golden case reaches, by module-qualified name.
ALLOWED = {
    "formats.serialize_tower": _TOWER_FILES,
    "formats.parse_tower": _TOWER_FILES,
    "formats.load_tower": _TOWER_FILES,
    "mackey.reduce_mod": _MOD_N,
    "mackey.normalize_factors": _MOD_N,
    "mackey._prime_factors": _MOD_N,
    "groups.memoise_hash": _IMPORT,
    "verify._needs_link": _IMPORT,
    "groups.FiniteGroup.__repr__": _REPR,
    "gsets.GSet.__repr__": _REPR,
    "errors.Verdict.__repr__": _REPR,
    "errors.Verdict.__eq__": _EQUALITY,
    "groups.SubgroupLattice.__eq__": _EQUALITY,
    "groups.SubgroupLattice.__hash__": _EQUALITY,
    "groups.GroupTower.__eq__": _EQUALITY,
    "gsets.GSet.__eq__": _EQUALITY,
    "groups.read_only": "refuses to assign or delete a field of a frozen class; no case tries",
    "corpus.corpus_groups": _CORPUS,
    "corpus.corpus_group": _CORPUS,
    "groups.from_permutations": _NAMED,
    "groups.direct_product": _NAMED,
    "groups.dihedral": _NAMED,
    "groups.quaternion8": _NAMED,
    "groups.quaternion8.mul": _NAMED,
    "groups.dicyclic3": _NAMED,
    "groups.dicyclic3.mul": _NAMED,
    "groups.dicyclic3.norm": _NAMED,
    "groups.alternating4": _NAMED,
    "formats.serialize_group": _WRITES,
    "formats.serialize_gset": "writes test inputs; no verb writes a G-set file yet",
}


def defined_functions(paths) -> dict[tuple[str, int, str], str]:
    """Every function and method of the source files at `paths`, nested
    ones included, as (file, first line, name) of its code object ->
    `module.qualified.name`.  Lambdas, comprehensions and class bodies
    are left out."""
    out: dict[tuple[str, int, str], str] = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name.startswith("<"):
                walk(const, prefix)
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                out[const.co_filename, const.co_firstlineno, const.co_name] = name
            walk(const, name)

    for path in paths:
        path = Path(path)
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return out


def unreached(paths, run, setup=None) -> list[str]:
    """The sorted names of the functions of `paths` that `run()` does not
    call.  `setup()`, if given, runs first and is not profiled."""
    if setup is not None:
        setup()
    called: set[tuple[str, int, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return sorted(
        name for key, name in defined_functions(paths).items() if key not in called
    )


def _clear_package_caches() -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("profspan."):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


def _write_inputs(directory: Path) -> None:
    golden.write_input_files(directory)
    _clear_package_caches()


def _run_golden_cases(directory: Path) -> None:
    for argv in golden.CASES.values():
        golden.run(argv, directory)


def test_every_function_is_reached_by_a_golden_case_or_allowed(tmp_path):
    missed = unreached(
        sorted(PACKAGE.glob("*.py")),
        lambda: _run_golden_cases(tmp_path),
        setup=lambda: _write_inputs(tmp_path),
    )
    assert [name for name in missed if name not in ALLOWED] == []
    # an entry for a function that a case now reaches, or that is gone,
    # is stale
    assert sorted(ALLOWED) == missed
    assert all(reason.strip() for reason in ALLOWED.values())


TOY = '''
def used():
    return helper()


def helper():
    def inner():
        return 1

    return inner()


def unused():
    return 2


class Box:
    def method(self):
        def nested():
            return 3

        return nested()

    @property
    def size(self):
        return [x for x in range(3)]
'''


def test_the_census_names_a_function_that_no_case_reaches(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    assert unreached([path], toy.used) == [
        "toy.Box.method", "toy.Box.method.nested", "toy.Box.size", "toy.unused"
    ]
    assert unreached([path], lambda: (toy.used(), toy.Box().size)) == [
        "toy.Box.method", "toy.Box.method.nested", "toy.unused"
    ]

    def setup():
        toy.unused()
        return toy.Box().size

    # what only the set-up calls is not reached
    assert unreached([path], toy.used, setup=setup) == [
        "toy.Box.method", "toy.Box.method.nested", "toy.Box.size", "toy.unused"
    ]
