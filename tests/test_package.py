"""The package's public names, and which modules each command loads.

``import braidskein`` loads no submodule: each public name imports its home
module when first read, and each CLI command imports only the modules it
runs, so a process compiles no more than its command needs.
"""

from __future__ import annotations

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import braidskein
from braidskein.words import BraidWord, Letter, WordError, parse_word
from test_cli_golden import WORD_COMMANDS

PUBLIC = {
    "analysis": ["BadCount", "CrossingChange", "MalformedVectorError", "NugatoryScanReport",
                 "OddChangeReport", "ParityReport", "bad_counts", "bfree_exponent",
                 "nugatory_scan", "odd_change_check", "parity_consistency"],
    "homfly": ["BraidIndexCertificate", "HomflyPoly", "JonesPoly", "certify_braid_index_3",
               "homfly_oracle", "jones", "mfw_lower_bound", "to_homfly"],
    "resolution": ["Label", "ResolutionNode", "compare_basepoints", "label_only",
                   "leaf_count", "resolution_tree", "resolve", "tree_vector"],
    "skein": ["A", "A_INV", "B", "NEG_A_INV_B", "DimensionError", "LaurentAB",
              "RingDomainError", "SkeinVector", "partition_str"],
    "templates": ["DivergencePair", "enumerate_exchange_instances", "enumerate_flype_instances",
                  "exchange_pair", "flype_pair", "search_exchange_divergence"],
    "words": ["BraidWord", "Letter", "MoveError", "WordError", "basis_braid", "cycle_type",
              "parse_word", "partitions_of", "permutation"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)

# what every word command loads; parity and nugatory add analysis
CORE = {"braidskein", "braidskein.cli", "braidskein.words", "braidskein.skein",
        "braidskein.resolution", "braidskein.homfly"}
EXTRA = {"parity": {"braidskein.analysis"}, "nugatory": {"braidskein.analysis"}}


def test_all_lists_the_public_names():
    assert len(NAMES) == 51
    assert sorted(braidskein.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_are_their_home_objects(module):
    home = importlib.import_module(f"braidskein.{module}")
    for name in PUBLIC[module]:
        assert getattr(braidskein, name) is getattr(home, name)


def test_dir_and_star_import_cover_all():
    assert set(braidskein.__all__) <= set(dir(braidskein))
    namespace: dict = {}
    exec("from braidskein import *", namespace)
    assert set(braidskein.__all__) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        braidskein.no_such_name


def test_braid_word_is_an_immutable_value():
    word = parse_word("3: 1 -2 1")
    same = BraidWord.from_signed(3, [1, -2, 1])
    assert word == same and hash(word) == hash(same)
    assert word != parse_word("3: 1 -2 -1")
    assert repr(word) == (
        "BraidWord(strand_count=3, letters=(Letter(index=1, sign=1, crossing_id=0), "
        "Letter(index=2, sign=-1, crossing_id=1), Letter(index=1, sign=1, crossing_id=2)))"
    )
    with pytest.raises(AttributeError):
        word.strand_count = 4
    with pytest.raises(AttributeError):
        del word.letters
    with pytest.raises(AttributeError):
        word.label = "x"
    for again in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert type(again) is BraidWord and again == word
    with pytest.raises(WordError, match="generator index 5 out of range for 3 strands"):
        word.__replace__(letters=(Letter(5, 1, 0),))


@pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace arrived in Python 3.13")
def test_copy_replace_checks_the_new_word():
    word = parse_word("3: 1 -2 1")
    assert copy.replace(word, strand_count=4) == BraidWord(4, word.letters)
    with pytest.raises(WordError, match="generator index 5 out of range for 3 strands"):
        copy.replace(word, letters=(Letter(5, 1, 0),))


def loaded_after(code: str) -> set[str]:
    """Modules held by a fresh interpreter after it runs ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(braidskein.__file__).resolve().parents[1]))
    script = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "")
    return set(child.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bare() -> set[str]:
    """What the interpreter loads by itself, ``site`` hooks included."""
    return loaded_after("pass")


def package_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.split(".")[0] == "braidskein"}


def test_bare_import_loads_no_submodule(bare):
    loaded = loaded_after("import braidskein")
    assert package_modules(loaded) == {"braidskein"}
    assert "dataclasses" not in loaded - bare


@pytest.mark.parametrize("command", WORD_COMMANDS)
def test_command_loads_only_what_it_runs(command, bare):
    loaded = loaded_after(f"from braidskein import cli\ncli.main([{command!r}, '--json', '3: 1 -2 1'])")
    assert package_modules(loaded) == CORE | EXTRA.get(command, set())
    assert "dataclasses" not in loaded - bare
