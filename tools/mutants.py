"""Mutation check: does every planted one-line fault turn tier-1 red?

Each mutant is (name, file, old text, new text, what it breaks). For each one
the tool copies the repository to a temporary directory, replaces the old text
by the new in the copy, runs the tier-1 suite there and reports the tests that
fail, split into sha256 digest tests (a test named "...golden...") and
behavioural tests. A mutant that no behavioural test catches is seen only
through a digest, which says that bytes moved, not what broke. The check on
this list (LIST_CHECK) fails in every copy whose old text is gone; it checks
the list, not the program, so it is counted as neither.

    python tools/mutants.py            # every mutant, one tier-1 run each
    python tools/mutants.py NAME ...   # only these

The tool only reports: it never edits, skips or deletes a test, and the
repository itself is never patched. Stdlib only. tests/test_tooling.py checks
that each old text still occurs exactly once, so the list follows the code.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, old text, new text, what it breaks)
MUTANTS = [
    ("adam-eps-in-root", "src/denguecast/nn_core.py",
     "np.sqrt(v_hat) + ADAM_EPS", "np.sqrt(v_hat + ADAM_EPS)",
     "Adam puts eps inside the square root"),
    ("week-month-wednesday", "src/denguecast/dataprep.py",
     "date.fromisocalendar(iso_year, iso_week, 4)",
     "date.fromisocalendar(iso_year, iso_week, 3)",
     "an ISO week belongs to the month of its Wednesday"),
    ("larval-weights-1-2-4", "src/denguecast/dataprep.py",
     "n_high * 3) / total", "n_high * 4) / total",
     "larval survey bands weigh 1, 2 and 4"),
    ("split-rounds-up", "src/denguecast/dataprep.py",
     "n_train = int(math.floor(ratio * len(windows)))",
     "n_train = int(math.ceil(ratio * len(windows)))",
     "split_dataset rounds the training share up"),
    ("scaler-on-all-months", "src/denguecast/experiments.py",
     "train_records = [r for r in records if month_index(r.month) <= boundary]",
     "train_records = records",
     "the scaler is fitted on test months too"),
    ("nearest-ties-later", "src/denguecast/imputation.py",
     "near = np.flatnonzero(dist <= kth)",
     "near = np.flatnonzero(dist <= kth)[::-1]",
     "_nearest breaks distance ties to the later index"),
    ("spans-one-month-gap", "src/denguecast/dataprep.py",
     "idx[i] - idx[i - t + 1] == t - 1", "idx[i] - idx[i - t + 1] <= t",
     "month_spans accepts a one-month gap"),
    ("carve-rounds-up", "src/denguecast/lstm.py",
     "n_val = int(math.floor(fraction * len(windows)))",
     "n_val = int(math.ceil(fraction * len(windows)))",
     "the validation carve rounds up"),
    ("confidence-reads-cand", "src/denguecast/imputation.py",
     "labels = reg.ys[train.idx[omega]]", "labels = reg.ys[reg.cand.idx[omega]]",
     "_confidence reads Omega's labels from cand rows, not train rows"),
    ("insert-before-equal", "src/denguecast/imputation.py",
     "pos = np.sum(self.dist[rows] <= dist[rows, None], axis=-1)",
     "pos = np.sum(self.dist[rows] < dist[rows, None], axis=-1)",
     "an added point enters a row before equal distances"),
    ("before-mean-wrong-axis", "src/denguecast/imputation.py",
     "before = reg.ys[omega] - np.mean(labels, axis=-1)",
     "before = reg.ys[omega] - np.mean(labels, axis=1)",
     "the 'before' residual averages over Omega, not over a row"),
    ("train-table-too-small", "src/denguecast/imputation.py",
     "self.train = _Table(len(ys) + ut.shape[1],", "self.train = _Table(len(ys),",
     "the train table has no row for a transferred point"),
    ("synth-rain-lag-1", "src/denguecast/experiments.py",
     "RAIN_LAG2_COEF * rain_anom[lag2]", "RAIN_LAG2_COEF * rain_anom[lag1]",
     "the generator plants rain at m-1, not m-2"),
    ("coreg-zero-iterations", "src/denguecast/specs.py",
     "if self.max_iters < 1:", "if self.max_iters < 0:",
     "CoregCfg accepts max_iters 0"),
    ("flag-prefixes", "src/denguecast/cli.py",
     "help=help_text, allow_abbrev=False)", "help=help_text, allow_abbrev=True)",
     "a subcommand accepts a flag's prefix"),
    ("precondition-exits-2", "src/denguecast/errors.py",
     "exit_code = 3", "exit_code = 2",
     "data that cannot support a step exits 2, not 3"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
LIST_CHECK = "tests/test_tooling.py::test_each_mutant_old_text_occurs_once"
OUTCOME = re.compile(r"^(FAILED|ERROR) (\S+)")
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench")


def problems():
    """One message per mutant whose old text does not occur exactly once in
    its file, or whose new text is the old."""
    out = []
    for name, path, old, new, _ in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            out.append(f"{name}: old text occurs {count} times in {path}")
        if new == old:
            out.append(f"{name}: new text is the old text")
    return out


def failing_tests(path, old, new):
    """The ids of the tier-1 tests, LIST_CHECK apart, that fail or error on a
    copy of the repository with old replaced by new in path."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        target = copy / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new, 1),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        run = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    return sorted({m.group(2) for line in run.stdout.splitlines()
                   if (m := OUTCOME.match(line))} - {LIST_CHECK})


def is_digest(test_id):
    return "golden" in test_id.split("::")[-1].split("[")[0]


def main(argv):
    bad = problems()
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    print("| Mutant | What it breaks | Tests failed | Of them digests | Behavioural |")
    print("| --- | --- | --- | --- | --- |")
    missed = []
    for name, path, old, new, breaks in chosen:
        failed = failing_tests(path, old, new)
        digests = [t for t in failed if is_digest(t)]
        behavioural = len(failed) - len(digests)
        print(f"| {name} | {breaks} | {len(failed)} | {len(digests)} | {behavioural} |",
              flush=True)
        for test_id in failed:
            kind = "digest" if is_digest(test_id) else "behavioural"
            print(f"{name} {kind} {test_id}", file=sys.stderr)
        if not behavioural:
            missed.append(name)
    if missed:
        print(f"caught by no behavioural test: {', '.join(missed)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
