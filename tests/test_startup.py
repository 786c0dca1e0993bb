"""Each command loads only the library modules it runs.

Once one test has imported the whole package, no in-process test can see a
command that imports a module it does not need, or one that leaves out a
module it does.  So each case here runs in a fresh interpreter and reads
the postlie entries of its sys.modules.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from postlie.corpus import CORPUS_NAMES, corpus_text

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# what importing the CLI loads: the modules every command uses
CORE = {"cli", "scalars", "linalg", "algebra", "documents"}
EVERYTHING = CORE | {"forms", "construct", "bialgebra", "corpus", "verify"}

ZERO_PP = ("kind algebra\nfield Q(i)\ndim 3\nbasis f1 f2 f3\n"
           "op rtri\nend\nop ltri\nend\nop bracket\nend\n")

# main(argv) in a fresh interpreter; its last line of stdout is
# [exit code, the postlie modules loaded]
MAIN = """
import json, sys
from postlie.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "postlie")]))
"""


def _fresh(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def _loaded(names) -> list:
    return sorted({"postlie", *("postlie." + name for name in names)})


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("startup")
    for name in CORPUS_NAMES:
        (directory / (name + ".txt")).write_text(corpus_text(name), encoding="utf-8")
    (directory / "zero_pp.txt").write_text(ZERO_PP, encoding="utf-8")
    return directory


def test_importing_the_cli_loads_only_what_every_command_uses():
    done = _fresh("-c", "import sys, postlie.cli; print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'postlie'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(_loaded(CORE))


@pytest.mark.parametrize("argv, code, layer", [
    (("check", "lie", "@sl2_lie"), 0, set()),
    (("check", "pp-rep", "@sl2_pp"), 0, {"forms"}),
    (("check", "pp-bialg", "@ahat_pp", "@final_cobrackets"), 0, {"forms", "bialgebra"}),
    (("derive", "bowtie", "@sl2_pp", "@zero_pp"), 0, {"forms", "construct"}),
    (("corpus", "list"), 0, {"corpus"}),
    (("corpus", "verify"), 1, EVERYTHING - CORE),    # A3 fails, by design
    (("check", "lie-coalg", "@final_cobrackets"), 0, {"bialgebra"}),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else None)
def test_a_command_adds_only_its_layer(fixtures, argv, code, layer):
    args = [str(fixtures / (a[1:] + ".txt")) if a.startswith("@") else a for a in argv]
    done = _fresh("-c", MAIN, *args)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [code, _loaded(CORE | layer)]


def test_probing_a_submodule_or_a_dunder_imports_no_other_module():
    done = _fresh("-c", "import sys, postlie; hasattr(postlie, 'cli'); "
                        "hasattr(postlie, '__wrapped__'); from postlie import algebra; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'postlie'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(_loaded({"algebra", "linalg", "scalars"}))


def test_the_module_entry_point_runs_a_check(fixtures):
    done = _fresh("-m", "postlie.cli", "check", "lie", str(fixtures / "sl2_lie.txt"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("lie: PASS")
