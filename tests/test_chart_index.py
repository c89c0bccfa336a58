"""Each grammar object builds its chart index once, on its first query;
the index is invisible to the grammar's value and safe to share."""

import itertools
import sys
import threading

import pytest

import conjcat.ccg as ccg_mod
import conjcat.conj as conj_mod
import conjcat.samples as samples
from conjcat.ccg import ccg_derive, ccg_member, ccg_universe, replay_derivation
from conjcat.conj import cg_derivation, cg_member
from conjcat.fileformat import dumps_grammar, load_grammar
from conjcat.syntax import category_str

WORDS = ["".join(p) for n in range(1, 7) for p in itertools.product("abc", repeat=n)]
# the words whose derivations the threads compare, from every category:
# length 1..3, and every substring of a member
MEMBER = "baacaacaa"
TREE_WORDS = WORDS[:39] + sorted({MEMBER[i:j] for i in range(len(MEMBER))
                                  for j in range(i + 4, len(MEMBER) + 1)})


@pytest.fixture()
def grammar_files(tmp_path):
    ccg_path = tmp_path / "three.ccg"
    ccg_path.write_text(dumps_grammar(samples.three_block_ccg()))
    cg_path = tmp_path / "three.cg"
    cg_path.write_text(dumps_grammar(samples.three_block_conj()))
    return ccg_path, cg_path


def test_index_is_built_once_per_grammar_object(monkeypatch, grammar_files):
    builds = {"ccg": 0, "cg": 0}
    real_ccg, real_cg = ccg_mod._CcgIndex, conj_mod._Recognizer

    def counting_ccg(g):
        builds["ccg"] += 1
        return real_ccg(g)

    def counting_cg(g):
        builds["cg"] += 1
        return real_cg(g)

    monkeypatch.setattr(ccg_mod, "_CcgIndex", counting_ccg)
    monkeypatch.setattr(conj_mod, "_Recognizer", counting_cg)
    ccg_path, cg_path = grammar_files
    g_ccg, g_cg = load_grammar(ccg_path), load_grammar(cg_path)
    assert builds == {"ccg": 0, "cg": 0}  # loading builds nothing
    for w in WORDS[:100]:
        ccg_member(g_ccg, w)
        cg_member(g_cg, w)
    assert builds == {"ccg": 1, "cg": 1}
    # derivations and replays read the same index
    d = ccg_derive(g_ccg, g_ccg.target, "bacaca")
    assert replay_derivation(g_ccg, d)
    tree = cg_derivation(g_cg, "bacaca")
    assert conj_mod.replay_derivation(g_cg, tree)
    assert builds == {"ccg": 1, "cg": 1}


def test_index_leaves_the_grammar_value_unchanged(grammar_files):
    for path, query in zip(grammar_files, (ccg_member, cg_member)):
        queried = load_grammar(path)
        for w in WORDS[:100]:
            query(queried, w)
        fresh = load_grammar(path)
        assert queried == fresh
        assert hash(queried) == hash(fresh)
        assert repr(queried) == repr(fresh)


def test_equal_grammar_objects_give_equal_answers(grammar_files):
    for path, query in zip(grammar_files, (ccg_member, cg_member)):
        first, second = load_grammar(path), load_grammar(path)
        assert first == second and first is not second
        answers = [query(first, w) for w in WORDS]
        assert [query(second, w) for w in WORDS] == answers
        assert answers.count(True) == 1  # bacaca


def test_threads_share_one_grammar_from_its_first_query(grammar_files):
    """Four threads query fresh grammar objects at once, so they build the
    shared index together and compile each category's recognizer steps
    together; every answer and derivation is the serial one."""
    ccg_path, cg_path = grammar_files
    serial_ccg, serial_cg = load_grammar(ccg_path), load_grammar(cg_path)
    categories = sorted(ccg_universe(serial_ccg), key=category_str)
    expected = [(ccg_member(serial_ccg, w), cg_member(serial_cg, w)) for w in WORDS]
    expected_trees = [ccg_derive(serial_ccg, cat, w) for cat in categories for w in TREE_WORDS]
    shared_ccg, shared_cg, trees_ccg = (load_grammar(ccg_path), load_grammar(cg_path),
                                        load_grammar(ccg_path))
    assert "_chart_index" not in vars(shared_ccg)
    assert "_chart_index" not in vars(shared_cg)
    assert "_chart_index" not in vars(trees_ccg)
    start = threading.Barrier(4)
    results = [None] * 4
    trees = [None] * 4

    def work(slot):
        start.wait(timeout=30)
        # each thread walks the categories and the words from its own offset
        cats = categories[slot * 4:] + categories[:slot * 4]
        got_trees = {(cat, w): ccg_derive(trees_ccg, cat, w) for cat in cats for w in TREE_WORDS}
        trees[slot] = [got_trees[cat, w] for cat in categories for w in TREE_WORDS]
        order = WORDS[slot * 7:] + WORDS[:slot * 7]
        got = {w: (ccg_member(shared_ccg, w), cg_member(shared_cg, w)) for w in order}
        results[slot] = [got[w] for w in WORDS]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
    assert trees == [expected_trees] * 4
    assert sum(tree is not None for tree in expected_trees) == 26
