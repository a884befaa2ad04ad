"""Checks on the source tree itself."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "denguecast"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _named(tree):
    """Every name a module uses: identifiers, attributes, imported names, and
    string constants that spell a (dotted) name, as perfbench's tables do.
    Definitions, docstrings and comments name nothing."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.extend(node.value.split("."))
    return out


def test_every_module_level_name_in_src_is_used_by_src_or_perfbench():
    # code that only tests call belongs in tests/
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        used.update(_named(ast.parse(path.read_text(encoding="utf-8"))))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in used):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def _fstring_sites(pattern):
    """module.name of each top-level definition (or <module>) per f-string in
    src that matches pattern."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.JoinedStr) and pattern.search(ast.unparse(node)):
                    sites.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return sites


# a "{path}:{lineno}" prefix in an f-string, whatever the names
ROW_PREFIX = re.compile(r"\{[^{}]+\}:\{[^{}]*line[^{}]*\}")


def test_a_bad_row_is_named_only_in_read_rows():
    # every loader parses its rows through dataprep.read_rows, the one place
    # that turns a row's error into "path:line: ..."
    assert _fstring_sites(ROW_PREFIX) == ["dataprep.read_rows"]


# a "{year:04d}-{month:02d}" month text in an f-string, whatever the names
MONTH_TEXT = re.compile(r"\{[^{}]+:04d\}-\{[^{}]+:02d\}")


def test_a_month_is_written_only_by_month_text():
    # dataprep.month_text is the one place a month becomes "YYYY-MM"
    assert _fstring_sites(MONTH_TEXT) == ["dataprep.month_text"]


SPECS = {"SynthSpec", "CoregCfg", "ModelSpec", "SweepSpec"}


def test_a_spec_is_made_only_by_specs_build():
    # specs.build, which calls the class it is given, is the one maker of a
    # run spec: it types the values and names their source in any error
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func).rsplit(".", 1)[-1] in SPECS):
                    sites.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert sites == []


# the slice of a "[:, ::-1]" reversed-rows subscript, whatever axes follow
REVERSED_ROWS = re.compile(r"\(:, ::-1[,)]")


def test_only_the_reading_order_reverses_rows_in_lstm():
    # lstm._reading_order is the one place that knows a bidirectional
    # layer's backward cell reads its rows reversed
    sites = []
    for top in ast.parse((PACKAGE / "lstm.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Subscript)
                    and REVERSED_ROWS.match(ast.unparse(node.slice))):
                sites.append(f"lstm.{getattr(top, 'name', '<module>')}")
    assert sites == ["lstm._reading_order"]


def test_only_lstm_pairs_a_model_bin_with_its_json():
    # lstm.sidecar_path is the one place a model's .json is named after its
    # .bin; save_model and load_model take the .bin path alone
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "with_suffix"
                        and ast.unparse(node.args[0]) == "'.json'"):
                    sites.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert sites == ["lstm.sidecar_path"]


def test_the_numeric_core_raises_only_where_data_enters():
    # a model file or a diverging loss (the run specs are checked in specs);
    # the kernels trust the shapes their callers build
    raising = []
    for name in ("lstm", "nn_core"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            if any(isinstance(node, ast.Raise) for node in ast.walk(top)):
                raising.append(f"{name}.{getattr(top, 'name', '<module>')}")
    assert raising == ["lstm.train", "lstm.load_model", "nn_core.load_params"]


def test_only_cli_sets_the_allocator_policy():
    # cli.keep_freed_memory is the one place that tunes the process's malloc
    sites = [path.stem for path in sorted(PACKAGE.glob("*.py"))
             if {"ctypes", "mallopt"} & set(_named(ast.parse(
                 path.read_text(encoding="utf-8"))))]
    assert sites == ["cli"]


def _sites(matches):
    """module.name of each top-level definition (or <module>) per AST node in
    src for which matches(node) holds."""
    return [f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for path in sorted(PACKAGE.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body
            for node in ast.walk(top) if matches(node)]


def test_only_week_month_reads_an_iso_week():
    # dataprep.week_month is the one rule for the month an ISO week belongs to
    assert _sites(lambda node: isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "fromisocalendar") == ["dataprep.week_month"]


def _compares_variant_with_ii(node):
    if not isinstance(node, ast.Compare):
        return False
    sides = [ast.unparse(n) for n in (node.left, *node.comparators)]
    return "'II'" in sides and any(side.rsplit(".", 1)[-1] == "variant" for side in sides)


def test_only_model_spec_ties_variant_ii_to_its_columns():
    # specs.ModelSpec.columns is the one place variant II means the larval
    # column; the rest of the code reads the columns
    assert _sites(_compares_variant_with_ii) == ["specs.ModelSpec"]


def test_each_mutant_old_text_occurs_once():
    # tools/mutants.py plants each fault by replacing its old text; the slow
    # run stays out of tier-1, which checks only that the list follows the code
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.problems() == []
