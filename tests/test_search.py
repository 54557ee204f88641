import itertools
import random
import time
import types

import pytest

from oracles import (
    BatchPropagationBacktracker,
    ForwardCheckingBacktracker,
    PassByPassBacktracker,
    ReferenceBacktracker,
    TwoScanBacktracker,
    certified_pairings,
    power_configs_by_filter,
    random_cyclic_words,
    rank2_cyclic_words,
    reference_certified,
)
from polyw import search
from polyw.complexes import DiskSpec
from polyw.constructors import nonpolygonality_follower_obstruction
from polyw.cyclecover import lp_dual
from polyw.search import (
    ExhaustedWithin,
    Found,
    SearchBounds,
    TimedOut,
    decide_polygonal,
    enumerate_all,
    power_configs,
)
from polyw.words import CyclicWord, cyclic_word, is_proper_power


@pytest.mark.parametrize("budget", [float("nan"), -1.0, float("-inf")])
def test_bounds_refuse_nan_and_negative_budgets(budget):
    with pytest.raises(ValueError, match="time budget"):
        SearchBounds(time_budget=budget)
    assert SearchBounds(time_budget=0.0).time_budget == 0.0


def test_power_configs_respect_parity_and_edges():
    w = cyclic_word("a b a b^2 a b^3")  # length 9
    configs = power_configs(w, SearchBounds(max_disks=2, max_edges=28, max_power=3))
    assert configs == [(2,), (1, 1)]  # odd totals dropped, 27-slot configs odd too


def test_power_configs_match_the_filtered_enumeration():
    checked = 0
    for text in ["ab", "abc", "a b a b^2 a b^3", "aabbABAb"]:
        w = cyclic_word(text)
        for disks in range(1, 6):
            for power in range(1, 6):
                for edges in (0, len(w), 3 * len(w) + 1, 40, 100):
                    bounds = SearchBounds(max_disks=disks, max_edges=edges, max_power=power)
                    assert power_configs(w, bounds) == power_configs_by_filter(w, bounds)
                    checked += 1
    assert checked == 500


def test_power_configs_walk_lazily_past_huge_bounds():
    # a list of them would hold C(1999, 1000) multisets at 1000 disks alone
    bounds = SearchBounds(max_disks=1000, max_power=1000, max_edges=10 ** 12)
    first = list(itertools.islice(search._power_configs(cyclic_word("aabbABAb"), bounds), 3))
    assert first == [(1,), (2,), (3,)]


def test_commutator_found_one_disk():
    out = decide_polygonal(cyclic_word("a b a^-1 b^-1"), SearchBounds(max_disks=1, max_power=1))
    assert isinstance(out, Found)
    cert = out.certificate
    assert cert.chi == 0 and cert.m == 1 and cert.polygonal


def test_surface_relator_census_nonempty():
    certs = list(enumerate_all(cyclic_word("a^2 b^2"), SearchBounds(max_disks=1, max_power=1)))
    assert certs and all(c.polygonal for c in certs)


def test_bs_relator_found_within_small_bounds():
    out = decide_polygonal(cyclic_word("a (a^2)^b"), SearchBounds(max_disks=2, max_power=2))
    assert isinstance(out, Found)
    assert out.certificate.verify()


def test_positive_obstructed_word_exhausts():
    w = cyclic_word("a b a b^2 a b^3")
    out = decide_polygonal(w, SearchBounds(max_disks=2, max_edges=28, max_power=3))
    assert isinstance(out, ExhaustedWithin)


def test_proper_power_short_circuits():
    out = decide_polygonal(cyclic_word("abab", 2), SearchBounds())
    assert isinstance(out, Found) and out.certificate.declarative is not None
    assert list(enumerate_all(cyclic_word("abab", 2), SearchBounds())) == []


def test_single_generator_census_empty():
    # an a-only word admits only chi = m quotients
    assert list(enumerate_all(cyclic_word("a", 1), SearchBounds(max_disks=2, max_power=2))) == []


def test_fig_word_census_exact_profile():
    w = cyclic_word("a^2 (a^-1)^b a a^b")
    certs = list(enumerate_all(w, SearchBounds(max_disks=1, max_power=2)))
    assert certs
    assert {(c.chi, c.m, c.vertices) for c in certs} == {(-1, 1, 7)}


def test_found_certificates_pass_independent_certifier():
    for text in ["a b a^-1 b^-1", "a^2 b^2", "a (a^2)^b"]:
        out = decide_polygonal(cyclic_word(text), SearchBounds(max_disks=2, max_power=2))
        assert isinstance(out, Found)
        if out.certificate.declarative is None:
            assert out.certificate.verify()


def test_obstructed_words_never_found_small_bounds():
    bounds = SearchBounds(max_disks=2, max_edges=18, max_power=2)
    checked = 0
    for length in range(2, 7):
        for w in rank2_cyclic_words(length):
            if is_proper_power(w):
                continue
            if nonpolygonality_follower_obstruction(w) is None:
                continue
            out = decide_polygonal(w, bounds)
            assert isinstance(out, ExhaustedWithin), str(w)
            checked += 1
    assert checked > 20


def test_time_budget_reports_timeout(monkeypatch):
    # each configuration reads the clock first after _CLOCK_WORK units of
    # work, here 8,192; (1,), (2,) and (1, 1) end in 122, 1,362 and 1,431,
    # and (1, 2) exhausts in 16,265, so the first reading, in (1, 2), ends it
    monkeypatch.setattr(search, "_CLOCK_WORK", 1 << 13)
    w = cyclic_word("aabbABAb")
    first_three = decide_polygonal(w, SearchBounds(max_disks=2, max_power=2, max_edges=16))
    assert isinstance(first_three, ExhaustedWithin)
    out = decide_polygonal(
        w, SearchBounds(max_disks=2, max_power=2, time_budget=1e-9)
    )
    assert isinstance(out, TimedOut)
    # the nodes of the configuration that timed out are counted too
    assert out.nodes > first_three.nodes and out.configs_done == 3
    # with a generous budget the same call does not time out
    out2 = decide_polygonal(w, SearchBounds(max_disks=1, max_power=1, time_budget=60))
    assert not isinstance(out2, TimedOut)


def test_enumerate_all_ends_quietly_at_the_deadline():
    certs = list(enumerate_all(cyclic_word("aaBabaaBBAAB"), SearchBounds(time_budget=1e-9)))
    assert all(cert.verify() for cert in certs)


def test_certificate_found_before_the_deadline_is_kept():
    # the search reaches its first certificate in about 0.1 s, well inside
    # the budget, and returns it without listing the other completions
    w = cyclic_word("aaBabaaBBAAB")
    out = decide_polygonal(w, SearchBounds(max_disks=2, max_power=2, time_budget=2))
    assert isinstance(out, Found)
    assert out.certificate.verify()


@pytest.mark.parametrize(
    "text", ["a (a^2)^b", "a^2 b^2", "a b a^-1 b^-1", "a^2 (a^-1)^b a a^b"]
)
def test_decide_returns_first_certificate_of_enumeration(text):
    w = cyclic_word(text)
    bounds = SearchBounds(max_disks=2, max_power=2)
    first = next(enumerate_all(w, bounds))
    assert decide_polygonal(w, bounds).certificate.to_json_dict() == first.to_json_dict()


def _long_word():
    """A random cyclically reduced rank-2 word of 1200 letters."""
    rng = random.Random(1200)
    letters = [1]
    while len(letters) < 1199:
        letters.append(rng.choice([x for x in (1, -1, 2, -2) if x != -letters[-1]]))
    letters.append(2 if letters[-1] != -2 else -2)
    return CyclicWord(2, tuple(letters))


def test_timeout_bounded_on_long_word():
    # a node of this 1200-slot search scans hundreds of candidate partners,
    # so the clock is read by work done as well as by nodes
    w = _long_word()
    start = time.monotonic()
    out = decide_polygonal(w, SearchBounds(max_disks=1, max_power=1, time_budget=0.5))
    assert isinstance(out, TimedOut)
    assert time.monotonic() - start < 2.5


def test_long_word_propagations_check_only_the_watches_a_gluing_changed():
    # over the first 100 nodes at 1 disk and power 1, 892 branch
    # propagations make about 500,000 _usable calls when every free slot's
    # two watches are checked by a pass, about 150,000 when a watch whose
    # classes no gluing has changed is taken as usable
    class Enough(Exception):
        pass

    class Counted(search._Backtracker):
        calls = 0

        def _usable(self, s, t):
            Counted.calls += 1
            return super()._usable(s, t)

        def _propagate(self, todo):
            if self.nodes > 100:
                raise Enough
            return super()._propagate(todo)

    w = _long_word()
    with pytest.raises(Enough):
        for _ in Counted(w, [DiskSpec(w, 1)], None)._search():
            pass
    assert Counted.calls < 250_000


ORACLE_CASES = [
    ("a^2 (a^-1)^b a a^b", SearchBounds(max_disks=1, max_power=2)),
    ("a b a^-1 b^-1", SearchBounds(max_disks=2, max_power=2)),  # reaches (2, 2)
    ("a^2 b^2", SearchBounds(max_disks=2, max_power=2)),
    ("a b a b^-1", SearchBounds(max_disks=2, max_power=2)),
    ("a (a^2)^b", SearchBounds(max_disks=2, max_power=2, max_edges=10)),
    ("a b c a^-1 b^-1 c^-1", SearchBounds(max_disks=1, max_power=1)),
]


@pytest.mark.parametrize("text,bounds", ORACLE_CASES)
def test_pruned_search_matches_brute_force(text, bounds):
    w = cyclic_word(text)
    expected = [
        cert.to_json_dict()
        for powers in power_configs(w, bounds)
        for cert in certified_pairings(w, powers)
    ]
    assert expected
    assert [cert.to_json_dict() for cert in enumerate_all(w, bounds)] == expected
    assert decide_polygonal(w, bounds).certificate.to_json_dict() == expected[0]


@pytest.mark.parametrize("text,bounds", ORACLE_CASES)
def test_search_without_the_symmetry_cut_finds_the_same_certificate(monkeypatch, text, bounds):
    # every configuration past the symmetry bound: no cut at all
    w = cyclic_word(text)
    want = decide_polygonal(w, bounds).certificate.to_json_dict()
    monkeypatch.setattr(search, "_MAX_SYMMETRY_SLOTS", 0)
    assert decide_polygonal(w, bounds).certificate.to_json_dict() == want


@pytest.mark.parametrize("bounds", [SearchBounds(max_disks=2, max_power=1),
                                    SearchBounds(max_disks=1, max_power=2)])
def test_enumeration_matches_the_reference_search(bounds):
    checked = 0
    for length in range(1, 7):
        for w in rank2_cyclic_words(length):
            if is_proper_power(w):
                continue
            want = [cert.to_json_dict() for cert in reference_certified(w, bounds)]
            assert [cert.to_json_dict() for cert in enumerate_all(w, bounds)] == want, str(w)
            checked += bool(want)
    assert checked > 30


def test_propagation_finds_the_reference_certificate_in_a_third_of_its_nodes():
    w = cyclic_word("abaBAbabbbAb")
    bounds = SearchBounds(max_disks=2, max_power=2)
    counter = {}
    listing = reference_certified(w, bounds, counter)
    want = next(listing).to_json_dict()
    listing.close()
    progress = search._Progress()
    got = next(search._certified(w, bounds, progress))
    assert got.to_json_dict() == want
    assert decide_polygonal(w, bounds).certificate.to_json_dict() == want
    assert 3 * progress.nodes <= counter["nodes"]


@pytest.mark.parametrize("text,powers", [
    ("aabbABAb", (1, 2)), ("abaBAbabbbAb", (2,)), ("a b c a^-1 b^-1 c^-1", (1, 1)),
    ("a (a^2)^b", (1, 1)), ("aBBBBBAB", (2, 2)),
])
def test_pair_legality_is_symmetric_and_matches_the_reference(text, powers):
    # along random walks, every pair of free slots is legal both ways round
    # or neither, exactly when the reference can glue it; while the walk
    # glues usable pairs, the same holds of usability, read as: the
    # reference can glue it and no free slot is blocked after, and a pair
    # once unusable stays so; then the walk glues legal pairs to its end
    w = cyclic_word(text)
    disks = [DiskSpec(w, k) for k in powers]
    rng = random.Random(len(w))
    for _walk in range(5):
        bt, ref = search._Backtracker(w, disks, None), ReferenceBacktracker(w, disks)
        unusable, gluing_usable = set(), True
        while True:
            legal, usable = [], []
            for s, t in itertools.combinations(range(bt.total), 2):
                if bt.partner[s] >= 0 or bt.partner[t] >= 0 or bt.bit[s] != bt.bit[t]:
                    continue
                undo = ref.apply_pair(s, t)
                clear = undo is not None and not ref.blocked()
                if undo is not None:
                    ref.revert_pair(s, undo)
                assert bt._legal(s, t) == bt._legal(t, s) == (undo is not None)
                if gluing_usable:
                    assert bt._usable(s, t) == bt._usable(t, s) == clear
                    assert not (clear and (s, t) in unusable)
                    if not clear:
                        unusable.add((s, t))
                if bt.key[s] != bt.key[t]:
                    if undo is not None:
                        legal.append((s, t))
                    if clear:
                        usable.append((s, t))
            gluing_usable = gluing_usable and bool(usable)
            if not legal:
                break
            s, t = rng.choice(usable if gluing_usable else legal)
            bt._join(s, t)
            ref.apply_pair(s, t)


def test_the_oracle_without_look_ahead_visits_the_earlier_nodes(monkeypatch):
    # 1,625 nodes: the search that glued any legal pair, with a check for
    # blocked slots that only ended failing branches sooner
    monkeypatch.setattr(search, "_Backtracker", ForwardCheckingBacktracker)
    out = decide_polygonal(cyclic_word("aBBBBBAB"), SearchBounds(max_disks=2, max_power=2))
    assert out == ExhaustedWithin(out.bounds, 1625)


def _first_certificate(w, bounds):
    """The first certificate's JSON, or None, and the nodes visited."""
    progress = search._Progress()
    listing = search._certified(w, bounds, progress)
    cert = next(listing, None)
    listing.close()
    return cert and cert.to_json_dict(), progress.nodes


def test_look_ahead_finds_the_same_first_certificate_in_fewer_nodes(monkeypatch):
    # length-8 rank-2 words that neither the follower obstruction nor the
    # cycle-cover LP settles; the sample holds an exhaustion, aaabaBAB
    pool = [w for w in rank2_cyclic_words(8) if not is_proper_power(w)
            and nonpolygonality_follower_obstruction(w) is None and lp_dual(w) is None]
    bounds = SearchBounds(max_disks=2, max_power=2)
    fewer = 0
    for w in random.Random(8).sample(pool, 40):
        cert, nodes = _first_certificate(w, bounds)
        with monkeypatch.context() as m:
            m.setattr(search, "_Backtracker", ForwardCheckingBacktracker)
            want, before = _first_certificate(w, bounds)
        assert cert == want and nodes <= before, str(w)
        fewer += nodes < before
    assert fewer >= 10


def test_look_ahead_exhausts_where_forward_checking_could_not():
    bounds = SearchBounds(max_disks=2, max_power=2)
    out = decide_polygonal(cyclic_word("aBBBBBAB"), bounds)
    assert isinstance(out, ExhaustedWithin) and out.nodes <= 100  # 1,625 without it
    # without it, 202,073 nodes in 30 s did not end this search
    out = decide_polygonal(cyclic_word("abaBaBaBBBBB"), SearchBounds(time_budget=20))
    assert isinstance(out, ExhaustedWithin) and out.nodes < 2000


def test_deadline_covers_the_search_setup(monkeypatch):
    # the clock reads past the deadline from its second reading on; the
    # setup of the first configuration, 100,002 slots, must end the call
    readings = itertools.chain([0.0], itertools.repeat(1.0))
    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: next(readings)))

    def started(self):
        raise AssertionError("the search started after the deadline")

    monkeypatch.setattr(search._Backtracker, "_search", started)
    w = cyclic_word("(ab)^50000 aB")
    out = decide_polygonal(w, SearchBounds(max_disks=1, max_power=1, time_budget=0.5))
    assert out == TimedOut(out.bounds, 0, 0)


def _assert_watches_usable(bt, label):
    """Each free slot of ``bt`` watches two distinct free slots it may
    still be glued to."""
    for s in range(bt.total):
        if bt.partner[s] < 0:
            t, u = bt.watch[2 * s], bt.watch[2 * s + 1]
            assert t != u and min(t, u) >= 0, (label, s)
            for v in (t, u):
                assert bt.partner[v] < 0 and bt.key[v] != bt.key[s], (label, s)
                assert bt.bit[v] == bt.bit[s] and bt._usable(s, v), (label, s)


@pytest.mark.parametrize("text", [
    "aabbABAb", "aBBBBBAB", "abaBAbabbbAb", "AABAAbaBBBAB", "aaBABabb",
    "a b c a^-1 b^-1 c^-1", "a (a^2)^b",
])
def test_propagation_leaves_two_usable_watches_on_every_free_slot(monkeypatch, text):
    # after every propagation that succeeds, whatever pairs it placed and
    # whichever slots it re-examined, each free slot watches two distinct
    # free slots it may still be glued to
    propagations = []

    class Checked(search._Backtracker):
        def _propagate(self, todo):
            if not super()._propagate(todo):
                return False
            _assert_watches_usable(self, text)
            propagations.append(self.total)
            return True

    monkeypatch.setattr(search, "_Backtracker", Checked)
    decide_polygonal(cyclic_word(text), SearchBounds(max_disks=2, max_power=2))
    assert propagations


@pytest.mark.parametrize("text", [
    "aabbABAb", "aBBBBBAB", "abaBAbabbbAb", "AABAAbaBBBAB", "aaBABabb",
    "a b c a^-1 b^-1 c^-1", "a (a^2)^b",
])
def test_one_rewatch_scan_chooses_the_watches_of_one_scan_per_lapsed_watch(monkeypatch, text):
    # the watches after every propagation that succeeds, and the nodes, are
    # those of the rewatch that scanned the candidates once per lapsed watch
    def watches(base):
        seen = []

        class Recorded(base):
            def _propagate(self, todo):
                if not super()._propagate(todo):
                    return False
                seen.append(list(self.watch))
                return True

        monkeypatch.setattr(search, "_Backtracker", Recorded)
        progress = search._Progress()
        listing = search._certified(cyclic_word(text), SearchBounds(max_disks=2, max_power=2), progress)
        next(listing, None)
        listing.close()
        return seen, progress.nodes

    one_scan, two_scans = watches(search._Backtracker), watches(TwoScanBacktracker)
    assert one_scan[0] and one_scan == two_scans


def _propagated(monkeypatch, base, w, bounds, first_only):
    """The nodes, the partner and watch arrays after every propagation that
    succeeds, and the certificates' JSON (the first only, or all that
    enumerate_all lists) of the search on w with ``base`` as its
    backtracker."""
    states = []

    class Recorded(base):
        def _propagate(self, todo):
            if not super()._propagate(todo):
                return False
            states.append((tuple(self.partner), tuple(self.watch)))
            return True

    monkeypatch.setattr(search, "_Backtracker", Recorded)
    progress = search._Progress()
    listing = search._certified(w, bounds, progress)
    certs = [cert.to_json_dict() for cert in itertools.islice(listing, 1 if first_only else None)]
    listing.close()
    return progress.nodes, states, certs


def _placed(run):
    """A run of ``_propagated`` without its watch arrays."""
    nodes, states, certs = run
    return nodes, [partner for partner, _ in states], certs


def _search_words():
    """Every rank-2 class of length <= 6, each to be listed whole, then 20
    seeded rank-2 words (aaaBaBBB, aaababaB, aaaBAbab and abaBABaB exhaust)
    and 16 rank-3 ones, whose counts pack three generator fields, each to
    its first certificate or exhaustion; listing a length-8 word whole
    takes seconds."""
    short = [w for length in range(1, 7) for w in rank2_cyclic_words(length)
             if not is_proper_power(w)]
    seeded = (random_cyclic_words(2, 8, 10, 28) + random_cyclic_words(2, 12, 10, 28)
              + random_cyclic_words(3, 8, 10, 29) + random_cyclic_words(3, 10, 6, 29))
    return [(w, False) for w in short] + [(w, True) for w in seeded]


def test_eager_gluing_places_the_pairs_of_batch_propagation(monkeypatch):
    bounds = SearchBounds(max_disks=2, max_power=2)
    found, eager_search = 0, search._Backtracker  # before _propagated replaces it
    for w, first_only in _search_words():
        eager = _placed(_propagated(monkeypatch, eager_search, w, bounds, first_only))
        batch = _placed(_propagated(monkeypatch, BatchPropagationBacktracker, w, bounds, first_only))
        assert eager == batch, str(w)
        found += bool(eager[2])
    assert found > 40


def test_settled_watches_keep_the_watches_of_the_pass_by_pass_search(monkeypatch):
    # taking a watch whose classes no gluing has changed since the
    # propagation began as usable, and stopping once every slot has been
    # passed since the last gluing, changes no node, placed pair, watch or
    # certificate of the search that checks every watch with _usable
    bounds = SearchBounds(max_disks=2, max_power=2)
    settled_search = search._Backtracker  # before _propagated replaces it
    for w, first_only in _search_words():
        settled = _propagated(monkeypatch, settled_search, w, bounds, first_only)
        assert settled == _propagated(monkeypatch, PassByPassBacktracker, w, bounds, first_only), str(w)


def test_every_watch_is_usable_when_a_branch_begins(monkeypatch):
    # the premise of the settled-watch shortcut: when a branch's pair is
    # about to be glued, each free slot watches two slots it may be glued to
    branches = []

    class Premise(search._Backtracker):
        def _propagate(self, todo):
            if todo:
                _assert_watches_usable(self, todo)
                branches.append(todo)
            return super()._propagate(todo)

    monkeypatch.setattr(search, "_Backtracker", Premise)
    bounds = SearchBounds(max_disks=2, max_power=2)
    for w, first_only in _search_words():
        listing = enumerate_all(w, bounds)
        list(itertools.islice(listing, 1 if first_only else None))
        listing.close()
    assert len(branches) > 10_000


@pytest.mark.parametrize("text,nodes", [
    ("abaBaBaBBBBB", 648), ("abbaBBBaBaBB", 340), ("aaababaB", 70),
])
def test_exhausted_searches_keep_their_nodes_and_propagations(monkeypatch, text, nodes):
    bounds = SearchBounds(max_disks=2, max_power=2)
    w = cyclic_word(text)
    eager = _placed(_propagated(monkeypatch, search._Backtracker, w, bounds, True))
    assert eager[0] == nodes and not eager[2]  # exhausted
    assert _placed(_propagated(monkeypatch, BatchPropagationBacktracker, w, bounds, True)) == eager
