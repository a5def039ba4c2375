"""Reach guard: every public module-level function or class of barronlab,
and every public method or property of a public class, is named by the
package itself, a script, a benchmark file or the acceptance tests, every
defaulted parameter of a public function or method is set by some call
there, every command-line flag and rate-kind key is set by a caller's argv
or parameters, and every exception class the package defines is raised in
it.  Code and settings that only unit tests reach are wired into a command,
fixed, or deleted; the references that unit tests check code against live
in ``tests/oracles.py``, and each of them is imported by a test module.
Last, ``cli.csv_text`` alone formats CSV numbers, no line of the package
starts a thread or reads the core count, and no verdict rule or exit code
names a kind or a verdict that ``rates.KINDS`` and ``rates.failed`` hold.
"""

import ast
import builtins
import pathlib
import re

from barronlab import rates
from test_cli import PARSERS, README, readme_commands

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "barronlab"
TESTS = ROOT / "tests"
CALLERS = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           TESTS / "test_acceptance.py"]

# Public definitions that only unit tests read, and why they stay in the package.
ORACLES = {
    "barron.mollified_cutoff": "the cutoff profile behind periodization's bump; it stays "
                               "or goes with periodization (ROADMAP item 3)",
}


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def package_trees() -> dict[str, ast.Module]:
    """Each barronlab module's syntax tree, by module name."""
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def named(tree, skip=None) -> set[str]:
    """Identifiers that ``tree`` names outside the subtree ``skip``: names,
    attributes and the parts of dotted-identifier strings (the benchmark's
    tables of traced functions).  Import statements alone name nothing."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
        stack.extend(ast.iter_child_nodes(node))
    return found


def definitions(tree) -> list[tuple[str, ast.FunctionDef | ast.ClassDef]]:
    """(qualified name, node) of each public function and class defined at
    the top of ``tree``, and of each public method or property of a public
    class there as ``Class.name``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{member.name}", member) for member in node.body
                          if isinstance(member, ast.FunctionDef)
                          and not member.name.startswith("_")]
    return found


def reach() -> tuple[set[str], list[str]]:
    """Public definitions of barronlab as ``module.name`` or
    ``module.Class.name``, and those of them that nothing names outside
    their own body."""
    trees = package_trees()
    outside = set().union(*(named(parse(path)) for path in CALLERS))
    defined, missing = set(), []
    for stem, tree in trees.items():
        elsewhere = outside.union(*(named(t) for s, t in trees.items() if s != stem))
        for qualified, node in definitions(tree):
            defined.add(f"{stem}.{qualified}")
            if node.name not in elsewhere | named(tree, skip=node):
                missing.append(f"{stem}.{qualified}")
    return defined, missing


def test_every_public_definition_is_reached():
    defined, missing = reach()
    assert set(ORACLES) <= defined
    assert [name for name in missing if name not in ORACLES] == []


def test_every_test_oracle_is_imported():
    """Each function of ``tests/oracles.py`` is imported by some test module,
    so the oracles keep no dead helper of their own."""
    oracles = {node.name for node in parse(TESTS / "oracles.py").body
               if isinstance(node, ast.FunctionDef)}
    imported = {alias.name for path in sorted(TESTS.glob("test_*.py"))
                for node in ast.walk(parse(path))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    assert "integrate" in oracles
    assert sorted(oracles - imported) == []


# Defaulted parameters that no call outside the unit tests sets, and why they stay.
UNSET = {
    "barron.mollified_cutoff(resolution)": "test oracle; tests refine its node count",
    "relu_nets.network_hm_upper(spec)": "perfbench/tracer.py reads it to count nodes",
    "sphere_geom.covering_radius(probes)": "perfbench/tracer.py reads it to count probes",
    "sphere_geom.covering_radius(probe_points)": "perfbench/tracer.py reads it to count probes",
}


def defaulted(tree) -> list[tuple[str, str, int | None]]:
    """(qualified name, parameter, positional slot or None if keyword-only) of
    every defaulted parameter of a public function, or of a public method of
    a public class, defined at the top of ``tree``; slots exclude self/cls."""
    found = []
    for qualified, node in definitions(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        method = "." in qualified
        args = node.args
        positional = args.posonlyargs + args.args
        bound = method and not any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                   for dec in node.decorator_list)
        first = len(positional) - len(args.defaults)
        for slot in range(first, len(positional)):
            found.append((qualified, positional[slot].arg, slot - bound))
        found += [(qualified, arg.arg, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return found


def calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in ``trees``, by the called function's or attribute's name."""
    out: dict[str, list[ast.Call]] = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            out.setdefault(name, []).append(node)
    return out


def sets(call: ast.Call, parameter: str, slot: int | None) -> bool:
    """Whether ``call`` passes ``parameter``: by keyword, by position, or by unpacking."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return slot is not None and len(call.args) > slot


def test_every_optional_parameter_is_set():
    trees = package_trees()
    found = calls([*trees.values(), *map(parse, CALLERS)])
    unset = []
    for stem, tree in trees.items():
        for qualified, parameter, slot in defaulted(tree):
            name = qualified.rsplit(".", 1)[-1]
            if not any(sets(call, parameter, slot) for call in found.get(name, [])):
                unset.append(f"{stem}.{qualified}({parameter})")
    assert sorted(unset) == sorted(UNSET)


def test_commands_and_scripts_read_no_private_attribute():
    """cli.py, rates.py and the scripts use other modules through public names only."""
    paths = [PACKAGE / "cli.py", PACKAGE / "rates.py", *sorted((ROOT / "scripts").glob("*.py"))]
    private = [f"{path.name}:{node.lineno} {node.attr}"
               for path in paths for node in ast.walk(parse(path))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not (node.attr.startswith("__") and node.attr.endswith("__"))]
    assert private == []


def unraised(trees) -> list[str]:
    """Exception classes defined in ``trees`` that no ``raise`` there names."""
    exceptions, raised = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and isinstance(getattr(builtins, base.id, None), type)
                    and issubclass(getattr(builtins, base.id), BaseException)
                    for base in node.bases):
                exceptions.add(node.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return sorted(exceptions - raised)


def test_every_exception_class_is_raised():
    """Each exception class defined in barronlab has a ``raise`` in package
    code; the scanner flags exactly the unraised class of a sample source."""
    sample = ast.parse("class Used(ValueError): pass\n"
                       "class Unused(ValueError): pass\n"
                       "def check(x):\n"
                       "    if x: raise Used(x)\n")
    assert unraised([sample]) == ["Unused"]
    assert unraised(package_trees().values()) == []


# Flags and kind keys that no caller outside the unit tests sets, and why they stay.
UNCALLED = {
    "greedy-fourier --xi-max": "the kind key xi_max, which run_all_experiments.py, "
                               "README's Known results and perfbench set",
    "relu-compile --d": "the kind key d of sobolev-compile, which perfbench sets",
    "dyadic-residual decay": "perfbench/workloads.py dyadic_residuals reads the "
                             "report's config['decay']",
}
NOT_SETTINGS = ("--help", "--seed", "--output")  # perfbench passes --seed, C13 --output


def string_lists(tree) -> list[list[str]]:
    """Every non-empty list literal of strings in ``tree``."""
    return [ast.literal_eval(node) for node in ast.walk(tree)
            if isinstance(node, ast.List) and node.elts and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)]


def caller_argvs() -> list[list[str]]:
    """The README command block, perfbench's CLI_COMMANDS and the acceptance
    tests' literal argv lists."""
    workloads = parse(ROOT / "perfbench" / "workloads.py")
    table = next(node.value for node in workloads.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "CLI_COMMANDS" for t in node.targets))
    acceptance = string_lists(parse(ROOT / "tests" / "test_acceptance.py"))
    return [*readme_commands(), *(text.split() for text, _, _ in ast.literal_eval(table)),
            *(argv for argv in acceptance if argv[0] in PARSERS)]


def test_every_flag_has_a_caller():
    used = {f"{argv[0]} {token.split('=')[0]}" for argv in caller_argvs()
            for token in argv if token.startswith("--")}
    declared = {f"{command} {flag}" for command, parser in PARSERS.items()
                for action in parser._actions for flag in action.option_strings
                if flag.startswith("--") and flag not in NOT_SETTINGS}
    assert sorted(declared - used) == sorted(k for k in UNCALLED if " --" in k)


def kind_keys_set() -> set[str]:
    """``kind key`` for each key set by a ``(rates.KIND, {...}, ...)`` row of
    run_all_experiments.py's RUNS, a ``rates_op(id, rates.KIND, {...}, ...)``
    call of perfbench, or a README ``--kind KIND ... --param key=`` line."""
    found = set()
    for path in (ROOT / "scripts" / "run_all_experiments.py", ROOT / "perfbench" / "workloads.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Tuple):
                parts = node.elts
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rates_op":
                parts = node.args[1:]
            else:
                continue
            if len(parts) >= 2 and isinstance(parts[0], ast.Attribute) \
                    and isinstance(parts[1], ast.Dict):
                found |= {f"{getattr(rates, parts[0].attr)} {key.value}" for key in parts[1].keys}
    for line in README.read_text(encoding="utf-8").splitlines():
        kind = re.search(r"--kind ([\w-]+)", line)
        if kind and kind[1] in rates.KINDS:
            found |= {f"{kind[1]} {key}" for key in re.findall(r"--param (\w+)=", line)}
    return found


def test_every_kind_key_has_a_caller():
    declared = {f"{kind} {key}" for kind, entry in rates.KINDS.items()
                for key in entry.defaults}
    assert sorted(declared - kind_keys_set()) == sorted(k for k in UNCALLED if " --" not in k)


def test_one_function_writes_csv_numbers():
    """``cli.csv_text`` alone formats CSV floats: no other line of the package
    or the scripts holds ``.17g``, and the package builds no text in a StringIO."""
    writer = next(node for node in parse(PACKAGE / "cli.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "csv_text")
    inside, outside = 0, []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if path == PACKAGE / "cli.py" and writer.lineno <= lineno <= writer.end_lineno:
                inside += ".17g" in line
            elif ".17g" in line or "StringIO" in line and path.parent == PACKAGE:
                outside.append(f"{path.relative_to(ROOT)}:{lineno}")
    assert inside == 1 and outside == []


def test_no_line_starts_threads_or_reads_the_core_count():
    """The package runs on the calling thread: no line of it names
    ``threading``, ``Thread``, ``concurrent``, ``sched_getaffinity`` or
    ``cpu_count``, so a thread comes back only with a measured decision."""
    pattern = re.compile(r"threading|Thread|concurrent|sched_getaffinity|cpu_count")
    named = [f"{path.relative_to(ROOT)}:{lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if pattern.search(line)]
    assert named == []


def texts(node) -> set[str]:
    """Names, attributes and string constants anywhere in ``node``."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or n.value for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            or isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_verdict_rule_and_exit_codes_name_no_kind_or_verdict():
    """Each kind declares its verdict check in ``rates.KINDS``, and
    ``rates.failed`` alone says which verdicts exit 1.  So ``rates._verdict``,
    ``rates.run_experiment``, ``cli._cmd_rates`` and the experiment script's
    ``main`` name no kind, by constant or by text; cli.py and the script name
    no verdict; and in rates.py a kind constant is named only by its own
    definition, its setup and ``KINDS``, and ``BOUND_VIOLATED`` only by its
    definition, ``_verdict`` and ``failed``."""
    constants = {name for name, value in vars(rates).items()
                 if isinstance(value, str) and value in rates.KINDS}
    assert len(constants) == len(rates.KINDS)
    kinds = constants | set(rates.KINDS)
    verdicts = {"BOUND_SATISFIED", "BOUND_VIOLATED", "INFORMATIONAL",
                rates.BOUND_SATISFIED, rates.BOUND_VIOLATED, rates.INFORMATIONAL}
    script = ROOT / "scripts" / "run_all_experiments.py"
    for path, name in [(PACKAGE / "rates.py", "_verdict"), (PACKAGE / "rates.py", "run_experiment"),
                       (PACKAGE / "cli.py", "_cmd_rates"), (script, "main")]:
        function = next(node for node in parse(path).body
                        if isinstance(node, ast.FunctionDef) and node.name == name)
        assert texts(function) & kinds == set(), name
    for path in (PACKAGE / "cli.py", script):
        assert texts(parse(path)) & verdicts == set(), path.name
    namers = {}  # name -> the top-level statements of rates.py that name it
    for node in parse(PACKAGE / "rates.py").body:
        label = getattr(node, "name", None) or ast.unparse(getattr(node, "targets", [node])[0])
        for name in texts(node):
            namers.setdefault(name, set()).add(label)
    for name in constants:
        assert namers[name] <= {name, "KINDS", rates.KINDS[getattr(rates, name)].setup.__name__}
    assert namers["BOUND_VIOLATED"] == {"BOUND_VIOLATED", "_verdict", "failed"}
