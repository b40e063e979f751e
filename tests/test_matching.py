import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aeroemit import matching
from aeroemit.ingest import (
    AirframeRecord,
    CcdProfile,
    FlightRecord,
    IngestError,
)
from conftest import CFM56_7B27E_RATES, lto_factors, pick, write_csv

import datetime


def flight(tail="N815DN", air_time=124.0, distance=666.0):
    return FlightRecord(
        flight_date=datetime.date(2021, 9, 1), carrier_code="DL",
        flight_number="2441", tail_number=tail, origin="PHL", destination="ATL",
        air_time_min=air_time, taxi_in_min=7.43, taxi_out_min=15.42,
        distance_mi=distance)


def engine(uid):
    return lto_factors(uid, CFM56_7B27E_RATES)


def profile(ctype, durations=(22.0, 410.0)):
    return CcdProfile(ctype, durations, tuple((1.0, d * 10, 1.0, 1.0) for d in durations),
                      (None,) * len(durations))


class TestTokenize:
    def test_hyphenated_designation(self):
        assert matching.tokenize("CFM56-7B27E") == {"CFM56", "7B27E"}

    def test_case_folding(self):
        assert matching.tokenize("cfm56 7b27e") == {"CFM56", "7B27E"}

    def test_multiple_separators(self):
        assert matching.tokenize("PW 4060-3") == {"PW", "4060", "3"}

    def test_empty(self):
        assert matching.tokenize("") == frozenset()
        assert matching.tokenize("--- ") == frozenset()

    @example("cfm56_7b27e")
    @given(st.text() | st.text(alphabet=st.sampled_from("aZ09_-. éßİ٣Ⅻ²\u0301")))
    def test_equals_character_loop(self, designation):
        assert matching.tokenize(designation) == tokenize_by_loop(designation)


def tokenize_by_loop(designation):
    """The reference `tokenize`: runs of `str.isalnum` characters of the
    uppercased text."""
    tokens = []
    current = []
    for ch in designation.upper():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return frozenset(tokens)


class TestJaccard:
    def test_identical_sets(self):
        s = frozenset({"CFM56", "7B27E"})
        assert matching.jaccard_similarity(s, s) == 1.0

    def test_disjoint_sets(self):
        assert matching.jaccard_similarity(frozenset({"A"}), frozenset({"B"})) == 0.0

    def test_hand_counted_third(self):
        a = matching.tokenize("CFM56-7B27E")
        b = matching.tokenize("CFM56-7B26")
        assert matching.jaccard_similarity(a, b) == 1 / 3

    def test_both_empty(self):
        assert matching.jaccard_similarity(frozenset(), frozenset()) == 1.0

    token_sets = st.frozensets(st.text(alphabet="ABC123", min_size=1, max_size=4),
                               max_size=6)

    @given(token_sets, token_sets)
    def test_symmetric_and_bounded(self, a, b):
        s = matching.jaccard_similarity(a, b)
        assert s == matching.jaccard_similarity(b, a)
        assert 0.0 <= s <= 1.0

    @given(token_sets, token_sets)
    def test_one_iff_equal(self, a, b):
        assert (matching.jaccard_similarity(a, b) == 1.0) == (a == b)


class TestMatchEngine:
    def test_exact_present(self):
        bank = [engine("CFM56-7B27E"), engine("PW4060")]
        assert matching.match_engine("CFM56-7B27E", bank) == ("CFM56-7B27E", 1.0)

    def test_below_threshold_no_match(self):
        bank = [engine("CFM56-7B27E-X-Y-Z")]
        # one shared token out of five in the union
        assert matching.match_engine("CFM56", bank, threshold=0.5) is None

    def test_tie_breaks_lexicographically(self):
        bank = [engine("AA-ZZ"), engine("AA-YY")]
        uid, score = matching.match_engine("AA", bank, threshold=0.4)
        assert uid == "AA-YY"
        assert score == 0.5


class TestNormalization:
    @pytest.fixture
    def rules(self):
        return matching.NormalizationRuleSet.from_csv(
            matching.DEFAULT_NORMALIZATION_RULES)

    def test_slash_variant(self, rules):
        assert rules.normalize("737/800") == "737-800"

    def test_idempotent_on_canonical(self, rules):
        assert rules.normalize("737-800") == "737-800"

    def test_strip_and_expand(self, rules):
        assert rules.normalize("B739ER") == "737-900ER"

    def test_no_match(self, rules):
        assert rules.normalize("AN-225") is None

    # hand-built designator fixture against the shipped default rule set
    DESIGNATORS = [
        ("B737-800", "737-800"), ("737/800", "737-800"), ("737-8NG", "737-800"),
        ("B738", "737-800"), ("boeing 737-800", "737-800"),
        ("B737-700", "737-700"), ("737/700", "737-700"), ("B737-7BD", "737-700"),
        ("B739ER", "737-900ER"), ("B737-900ER", "737-900ER"), ("737-9NG", "737-900ER"),
        ("B739", "737-900"), ("B737-900", "737-900"),
        ("737 MAX 8", "737-8"), ("B38M", "737-8"), ("737MAX9", "737-9"),
        ("A319-112", "A319-100"), ("A320-232", "A320-200"), ("A321-231", "A321-200"),
        ("A320-251N", "A320NEO"), ("A320NEO", "A320NEO"), ("A321-271N", "A321NEO"),
        ("BCS3", "A220"), ("A220-300", "A220"),
        ("A330-323", "A330-300"), ("A330-941", "A330-900"),
        ("B757-232", "757-200"), ("B763", "767-300"), ("B772", "777-200"),
        ("CL-600-2D24", "CRJ-900"),
    ]

    @pytest.mark.parametrize("raw, expected", DESIGNATORS)
    def test_default_rules_fixture(self, rules, raw, expected):
        assert rules.normalize(raw) == expected

    @pytest.mark.parametrize("raw, expected", DESIGNATORS)
    def test_idempotence_over_outputs(self, rules, raw, expected):
        assert rules.normalize(expected) == expected


class TestConfigTables:
    def test_shipped_fallback_loads(self):
        table = matching.load_family_fallback(matching.DEFAULT_FAMILY_FALLBACK)
        assert table["737-8"] == matching.FamilyFallback("737-800", 0.85)

    @pytest.mark.parametrize("loader, header, rows, fragment", [
        (matching.load_family_fallback, ["missing_type", "surrogate_type", "efficiency_factor"],
         [["737-8", "737-800", "0.85"], ["737-8", "737-900", "0.9"]],
         "line 3: duplicate missing_type 737-8"),
        (matching.load_popular_engine_override, ["canonical_type", "engine_uid"],
         [["A320", "V2500"], ["A320", "CFM56"]], "line 3: duplicate canonical_type A320"),
        (matching.NormalizationRuleSet.from_csv, ["pattern", "canonical_type"],
         [["B738", "737-800"], ["B739", ""]], "line 3: canonical_type must be non-empty"),
        (matching.NormalizationRuleSet.from_csv, ["pattern", "type"], [], "header mismatch"),
    ], ids=["repeated-fallback", "repeated-override", "empty-rule", "bad-header"])
    def test_first_bad_row_is_fatal(self, tmp_path, loader, header, rows, fragment):
        path = tmp_path / "table.csv"
        write_csv(path, header, rows)
        with pytest.raises(IngestError, match=fragment):
            loader(path)


class TestPopularEngineTable:
    def test_majority(self):
        fleet = [("737-800", "CFM56-7B27")] * 3 + [("737-800", "CFM56-7B26")]
        assert matching.build_popular_engine_table(fleet) == {"737-800": "CFM56-7B27"}

    def test_empty(self):
        assert matching.build_popular_engine_table([]) == {}

    def test_tie_breaks_lexicographically(self):
        fleet = [("T", "B-ENGINE")] * 2 + [("T", "A-ENGINE")] * 2
        assert matching.build_popular_engine_table(fleet) == {"T": "A-ENGINE"}


def build_tables(airframes, registry, codes=(), databank=(), profiles=(),
                 rules_rows=(), fallback=None, threshold=0.5, override=None):
    rules = matching.NormalizationRuleSet(
        [matching.NormalizationRule(p, c) for p, c in rules_rows])
    return matching.LookupTables.build(
        list(airframes), dict(registry), dict(codes), list(databank),
        list(profiles), rules, fallback or {}, jaccard_threshold=threshold,
        popular_engine_override=override)


class TestResolveFlight:
    def default_tables(self, **kwargs):
        defaults = dict(
            airframes=[AirframeRecord("N815DN", "B739ER", 180, 2)],
            registry={"N815DN": "CFM56-7B27E"},
            databank=[engine("CFM56-7B27E"), engine("CFM56-7B26")],
            profiles=[profile("737-900ER")],
            rules_rows=[("B739ER", "737-900ER")],
        )
        defaults.update(kwargs)
        return build_tables(**defaults)

    def test_exact_engine_resolution(self):
        rf = matching.resolve_flight(flight(), self.default_tables())
        assert rf.is_computable
        assert rf.canonical_type == "737-900ER"
        assert rf.seat_count == 180
        assert rf.engine_uid == "CFM56-7B27E"
        assert rf.emissions_type == "737-900ER"
        assert rf.efficiency_factor == 1.0
        assert rf.provenance == {matching.ENGINE_EXACT}

    def test_blank_tail_incomputable(self):
        rf = matching.resolve_flight(flight(tail=None), self.default_tables())
        assert not rf.is_computable
        assert rf.incomputable_cause == matching.MISSING_TAIL

    def test_unknown_tail_incomputable(self):
        rf = matching.resolve_flight(flight(tail="N0"), self.default_tables())
        assert rf.incomputable_cause == matching.NO_AIRFRAME

    def test_missing_airtime_incomputable(self):
        rf = matching.resolve_flight(flight(air_time=None), self.default_tables())
        assert rf.incomputable_cause == matching.MISSING_AIRTIME
        # the engine was still resolved for popularity statistics
        assert rf.engine_uid == "CFM56-7B27E"

    def test_missing_distance_incomputable(self):
        rf = matching.resolve_flight(flight(distance=None), self.default_tables())
        assert rf.incomputable_cause == matching.MISSING_DISTANCE

    def test_family_fallback_propagates_factor(self):
        tables = self.default_tables(
            airframes=[AirframeRecord("N815DN", "737-8X", 172, 2)],
            rules_rows=[("737-8X", "737-8")],
            profiles=[profile("737-800")],
            fallback={"737-8": matching.FamilyFallback("737-800", 0.85)})
        rf = matching.resolve_flight(flight(), tables)
        assert rf.canonical_type == "737-8"
        assert rf.emissions_type == "737-800"
        assert rf.efficiency_factor == 0.85
        assert matching.FAMILY_FALLBACK in rf.provenance
        assert rf.is_computable

    def test_jaccard_engine_resolution(self):
        tables = self.default_tables(
            registry={"N815DN": "CFM56 7B27E SERIES"})
        rf = matching.resolve_flight(flight(), tables)
        assert rf.engine_uid == "CFM56-7B27E"
        assert matching.ENGINE_JACCARD in rf.provenance

    def test_engine_code_lookup(self):
        tables = self.default_tables(
            registry={"N815DN": "C123"},
            codes={"C123": "CFM56-7B27E"})
        rf = matching.resolve_flight(flight(), tables)
        assert rf.engine_uid == "CFM56-7B27E"
        assert matching.ENGINE_EXACT in rf.provenance

    def test_popular_fallback_when_no_registry_row(self):
        tables = self.default_tables(
            airframes=[AirframeRecord("N815DN", "B739ER", 180, 2),
                       AirframeRecord("N1", "B739ER", 180, 2)],
            registry={"N1": "CFM56-7B27E"})
        rf = matching.resolve_flight(flight(), tables)
        assert rf.engine_uid == "CFM56-7B27E"
        assert matching.ENGINE_POPULAR_FALLBACK in rf.provenance

    def test_no_engine_anywhere_incomputable(self):
        tables = self.default_tables(registry={})
        rf = matching.resolve_flight(flight(), tables)
        assert rf.incomputable_cause == matching.NO_ENGINE_MATCH

    def test_no_ccd_profile_incomputable(self):
        tables = self.default_tables(profiles=[profile("OTHER")])
        rf = matching.resolve_flight(flight(), tables)
        assert rf.incomputable_cause == matching.NO_CCD_PROFILE

    def test_exactly_one_engine_flag_when_computable(self):
        rf = matching.resolve_flight(flight(), self.default_tables())
        engine_flags = rf.provenance & {matching.ENGINE_EXACT,
                                        matching.ENGINE_JACCARD,
                                        matching.ENGINE_POPULAR_FALLBACK}
        assert len(engine_flags) == 1

    def test_pure_function_of_inputs(self):
        tables = self.default_tables()
        assert (matching.resolve_flight(flight(), tables)
                == matching.resolve_flight(flight(), tables))

    def test_override_replaces_popular_engine(self):
        tables = self.default_tables(
            airframes=[AirframeRecord("N815DN", "B739ER", 180, 2),
                       AirframeRecord("N1", "B739ER", 180, 2)],
            registry={"N1": "CFM56-7B27E"},
            override={"737-900ER": "CFM56-7B26"})
        rf = matching.resolve_flight(flight(), tables)
        assert rf.engine_uid == "CFM56-7B26"

    def test_override_uid_must_exist(self):
        with pytest.raises(IngestError, match="^popular-engine override 737-900ER -> "
                                              "NOT-A-UID: UID not in databank$"):
            self.default_tables(override={"737-900ER": "NOT-A-UID"})

    def test_build_leaves_input_and_earlier_tables_unchanged(self):
        airframes = [AirframeRecord("N815DN", "RAW", 180, 2)]
        first = self.default_tables(airframes=airframes, rules_rows=[("RAW", "TA")])
        second = self.default_tables(airframes=airframes, rules_rows=[("RAW", "TB")])
        assert first.canonical_types["RAW"] == "TA"
        assert second.canonical_types["RAW"] == "TB"
        assert airframes == [AirframeRecord("N815DN", "RAW", 180, 2)]
        assert first.airframes_by_tail["N815DN"] is airframes[0]
        assert second.airframes_by_tail["N815DN"] is airframes[0]

    def test_build_normalizes_each_designator_once(self, monkeypatch):
        normalized = []
        normalize = matching.NormalizationRuleSet.normalize
        monkeypatch.setattr(matching.NormalizationRuleSet, "normalize",
                            lambda rules, raw: normalized.append(raw) or normalize(rules, raw))
        raw_types = ["B739ER", "737-8X", "ZZZ"]
        tables = self.default_tables(
            airframes=[AirframeRecord(f"N{i}", raw_types[i % 3], 180, 2) for i in range(30)],
            rules_rows=[("B739ER", "737-900ER"), ("737-8*", "737-8")])
        assert sorted(normalized) == sorted(raw_types)
        assert tables.canonical_types == {"B739ER": "737-900ER", "737-8X": "737-8", "ZZZ": ""}


def reference_match(designation, databank, threshold):
    """The loop `match_engine` ran before the databank was tokenized once:
    sort, tokenize each UID, score."""
    query = matching.tokenize(designation)
    best_uid, best_score = None, -1.0
    for entry in sorted(databank, key=lambda e: e.engine_uid):
        score = matching.jaccard_similarity(query, matching.tokenize(entry.engine_uid))
        if score > best_score:
            best_uid, best_score = entry.engine_uid, score
    if best_uid is None or best_score < threshold:
        return None
    return best_uid, best_score


def reference_tables(airframes, registry, codes, databank, rules_rows, threshold):
    """Brute-force engine per airframe tail and popular engine per type."""
    rules = matching.NormalizationRuleSet(
        [matching.NormalizationRule(p, c) for p, c in rules_rows])
    by_uid = {e.engine_uid: e for e in databank}
    engines, counts = {}, {}
    for airframe in {a.tail_number: a for a in airframes}.values():
        tail = airframe.tail_number
        engines[tail] = None
        designation = registry.get(tail)
        if designation is not None:
            designation = codes.get(designation, designation)
            if designation.strip().upper() in by_uid:
                engines[tail] = (designation.strip().upper(), matching.ENGINE_EXACT)
            else:
                matched = reference_match(designation, list(by_uid.values()), threshold)
                if matched is not None:
                    engines[tail] = (matched[0], matching.ENGINE_JACCARD)
        canonical = rules.normalize(airframe.raw_type_designator)
        if canonical and engines[tail] is not None:
            per_type = counts.setdefault(canonical, {})
            per_type[engines[tail][0]] = per_type.get(engines[tail][0], 0) + 1
    popular = {ctype: sorted(per_type, key=lambda uid: (-per_type[uid], uid))[0]
               for ctype, per_type in counts.items()}
    return engines, popular


TOKENS = ["CFM56", "7B27E", "7B26", "PW", "4060", "V2500", "A5", "x1"]
SEPARATORS = ["-", " ", "/", "--", " - "]
# The strategies are built once: one built for each draw cost more than the draw.
DESIGNATIONS = st.builds(str.join, st.sampled_from(SEPARATORS),
                         st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3))
UIDS = st.lists(st.one_of(DESIGNATIONS, st.sampled_from(["-", "--/", " "])), max_size=8)
TAIL_COUNTS = st.integers(1, 12)
RAW_TYPES = ["RAW-A", "RAW-B", "RAW-C"]


@st.composite
def matching_inputs(draw):
    uids = draw(UIDS)
    tails = [f"N{i}" for i in range(draw(TAIL_COUNTS))]
    airframes = [AirframeRecord(t, pick(draw, RAW_TYPES), 150, 2) for t in tails]

    def spelled(uid):
        # a UID as the registry may spell it: another case or other punctuation
        return pick(draw, [uid, uid.lower(), uid.replace("-", " "), f" {uid}/",
                           uid.replace("-", "--").title()])

    codes = {f"C{i}": spelled(uid) if draw(st.booleans()) else draw(DESIGNATIONS)
             for i, uid in enumerate(uids)}

    def registry_designation():
        kind = pick(draw, ["uid", "code", "other"] if uids else ["other"])
        if kind == "uid":
            return spelled(pick(draw, uids))
        if kind == "code":
            return pick(draw, list(codes))
        return draw(DESIGNATIONS)

    registry = {t: registry_designation() for t in tails if draw(st.integers(0, 5))}
    return dict(airframes=airframes, registry=registry, codes=codes,
                databank=[engine(uid) for uid in uids],
                rules_rows=[("RAW-A", "TA"), ("RAW-B", "TB")],
                threshold=pick(draw, [0.0, 0.5, 1.0]))


class TestEngineResolutionEquivalence:
    @given(matching_inputs())
    def test_build_equals_brute_force(self, inputs):
        engines, popular = reference_tables(**inputs)
        tables = build_tables(**inputs)
        for tail, expected in engines.items():
            assert tables.engine_by_tail.get(tail) == expected, tail
        assert set(tables.engine_by_tail) <= set(engines)
        assert tables.popular_engine == popular

    @given(matching_inputs(), st.data())
    def test_built_tables_name_only_databank_uids(self, inputs, data):
        """Every UID of a built table's `engine_by_tail` and `popular_engine`,
        overrides included, is a key of `databank_by_uid`, so `run` reads the
        rates of a resolved flight's engine there; an override naming any
        other UID is refused."""
        uids = [e.engine_uid for e in inputs["databank"]]
        override = data.draw(st.dictionaries(st.sampled_from(["TA", "TB", "TC"]),
                                             st.sampled_from([*uids, "NOT-A-UID"])))
        try:
            tables = build_tables(**inputs, override=override)
        except IngestError:
            assert "NOT-A-UID" in override.values()
            return
        named = {uid for uid, _ in tables.engine_by_tail.values()}
        assert named | set(tables.popular_engine.values()) <= tables.databank_by_uid.keys()

    @given(matching_inputs(), DESIGNATIONS)
    def test_match_engine_equals_brute_force(self, inputs, designation):
        bank, threshold = inputs["databank"], inputs["threshold"]
        assert (matching.match_engine(designation, bank, threshold)
                == reference_match(designation, bank, threshold))

    @example(uids=["A-B", "C"], queries=["X"], threshold=0.0)  # no shared token
    @example(uids=["-", "A", " "], queries=["--", ""], threshold=0.5)  # no token at all
    @example(uids=["A", "B"], queries=["/"], threshold=0.0)  # no token, threshold 0
    @example(uids=["A B", "A-B", "B"], queries=["b a", "A C"], threshold=1e-9)  # ties
    @given(UIDS,
           st.lists(st.one_of(DESIGNATIONS, st.sampled_from(["", "-", "--/", " "])),
                    min_size=1, max_size=8),
           st.sampled_from([0.0, 5e-324, 1e-9, 0.5, 1.0]) | st.floats(0.0, 0.1))
    def test_indexed_candidates_equal_full_scan(self, uids, queries, threshold):
        """`_resolve_engines` scores only UIDs sharing a token with a designation;
        it gives every designation that is not a UID the full scan's match."""
        tails = [f"N{i}" for i in range(len(queries))]
        engines = matching._resolve_engines(tails, dict(zip(tails, queries)), {},
                                            dict.fromkeys(uids), threshold)
        bank = [engine(uid) for uid in uids]
        for tail, designation in zip(tails, queries):
            if designation.strip().upper() in uids:
                expected = (designation.strip().upper(), matching.ENGINE_EXACT)
            else:
                scanned = matching.match_engine(designation, bank, threshold)
                expected = scanned and (scanned[0], matching.ENGINE_JACCARD)
            assert engines.get(tail) == expected, designation

    def test_build_tokenizes_each_uid_once_and_scans_once(self, monkeypatch):
        uids = [f"ENG{i:03d}-X{i % 7}" for i in range(200)]
        spellings = ["ENG001 X1 SERIES", "eng001-x1-series", "Eng001/X1 (series)"]
        tokenized, scored = [], []
        tokenize, jaccard = matching.tokenize, matching.jaccard_similarity
        monkeypatch.setattr(matching, "tokenize",
                            lambda s: tokenized.append(s) or tokenize(s))
        monkeypatch.setattr(matching, "jaccard_similarity",
                            lambda a, b: scored.append(b) or jaccard(a, b))
        tables = build_tables(
            airframes=[AirframeRecord(f"N{i}", "B739ER", 180, 2) for i in range(50)],
            registry={f"N{i}": spellings[i % 3] for i in range(50)},
            databank=[engine(uid) for uid in reversed(uids)],
            rules_rows=[("B739ER", "737-900ER")])
        assert sorted(s for s in tokenized if s in set(uids)) == uids
        # only the 29 UIDs sharing a token with the spelling: ENG001, or X1 (i % 7 == 1)
        assert len(scored) == 29
        assert set(tables.engine_by_tail.values()) == {("ENG001-X1", matching.ENGINE_JACCARD)}
        assert len(tables.engine_by_tail) == 50
        # each registry spelling is resolved once, and its tails share one tuple
        assert sorted(s for s in tokenized if s in spellings) == sorted(spellings)
        assert len({(i % 3, id(tables.engine_by_tail[f"N{i}"])) for i in range(50)}) == 3
        assert len({id(value) for value in tables.engine_by_tail.values()}) == 3
