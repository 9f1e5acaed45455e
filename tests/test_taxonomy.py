"""Tests for taxonomy loading, tokenization and keyword assignment."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biblioforge import (
    CyclicBroaderLink,
    DanglingReference,
    DuplicateLabel,
    KeywordAssignment,
    MalformedLine,
    MissingField,
    SENTENCE_BOUNDARY,
    Taxonomy,
    TaxonomyTerm,
    cluster_documents,
    extract_keywords,
    load_taxonomy,
    stem,
    tokenize,
)

from .oracles import naive_keyword_scan, naive_tokenize, whitespace_punct_token_count

DATA_DIR = Path(__file__).parent / "data"


class TestTokenize:
    def test_stated_rules(self):
        assert tokenize("Two-Dimensional Dilaton Gravity.") == [
            "two-dimensional",
            "dilaton",
            "gravity",
            SENTENCE_BOUNDARY,
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_period_inside_number_is_separator_not_boundary(self):
        assert tokenize("about 3.5 units") == ["about", "3", "5", "units"]

    def test_boundary_needs_following_whitespace(self):
        assert tokenize("What?! Yes.") == ["what", SENTENCE_BOUNDARY, "yes", SENTENCE_BOUNDARY]

    def test_punctuation_separates(self):
        assert tokenize("a,b;c(d)e_f") == ["a", "b", "c", "d", "e", "f"]

    def test_fixture_paragraph_count_matches_reference_splitter(self):
        paragraph = (
            "The dilaton field couples to two-dimensional gravity in a natural way. "
            "We compute the effective action and study nonperturbative quantization "
            "of the scalar sector. The resulting Poisson bracket structure matches "
            "earlier work on bosonization; ghost contributions cancel. Numerical "
            "checks used 128 grid points and a tolerance of 0.001 for convergence. "
            "Fermions enter through the Dirac operator, and the magnetic moment "
            "receives corrections at one loop. These results hold in Minkowski "
            "space and extend to gauge theory backgrounds without further input. "
            "A companion paper discusses quantum field theory aspects in detail, "
            "including scalar field dynamics, gravitation and related physics."
        )
        tokens = [t for t in tokenize(paragraph) if t != SENTENCE_BOUNDARY]
        assert len(tokens) == whitespace_punct_token_count(paragraph)


class TestStem:
    @pytest.mark.parametrize(
        "token,expected",
        [("fermions", "fermion"), ("ghosts", "ghost"), ("gas", "gas"), ("its", "its"),
         ("s", "s"), ("methods", "method"), ("dilaton", "dilaton")],
    )
    def test_minimal_plural_stripping(self, token, expected):
        assert stem(token) == expected


class TestLoadTaxonomy:
    def test_minimal_fixture(self, taxonomy3):
        assert len(taxonomy3) == 3
        assert taxonomy3.terms["c_grav_dilaton"].composite_of == ("t_gravitation", "t_dilaton")
        # two single-term labels are matchable; the composite pref is indexed
        basic_labels = [
            phrase
            for phrase, tid in taxonomy3.label_index.items()
            if not taxonomy3.terms[tid].is_composite
        ]
        assert sorted(basic_labels) == ["dilaton", "gravitation"]
        assert "gravitation, dilaton" in taxonomy3.label_index

    def test_duplicate_alt_label_across_terms(self, tmp_path):
        path = tmp_path / "dup.tax"
        path.write_text(
            "term: t1\npref: quantum chromodynamics\nalt: qcd\n\n"
            "term: t2\npref: lattice qcd\nalt: qcd\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateLabel) as exc:
            load_taxonomy(path)
        assert exc.value.phrase == "qcd"

    def test_twenty_term_fixture_broader_closure(self, taxonomy20):
        assert len(taxonomy20) == 20
        # hand-counted closure of the 3-level chain gauge -> qft -> physics
        assert taxonomy20.broader_closure("t_gauge") == {"t_qft", "t_physics"}
        assert taxonomy20.broader_closure("t_physics") == set()

    def test_cyclic_broader_links(self, tmp_path):
        path = tmp_path / "cyc.tax"
        path.write_text(
            "term: a\npref: aa\nbroader: b\n\nterm: b\npref: bb\nbroader: a\n",
            encoding="utf-8",
        )
        with pytest.raises(CyclicBroaderLink):
            load_taxonomy(path)

    def test_dangling_broader(self, tmp_path):
        path = tmp_path / "dang.tax"
        path.write_text("term: a\npref: aa\nbroader: ghostly\n", encoding="utf-8")
        with pytest.raises(DanglingReference):
            load_taxonomy(path)

    def test_missing_pref(self, tmp_path):
        path = tmp_path / "nopref.tax"
        path.write_text("term: a\nalt: aa\n", encoding="utf-8")
        with pytest.raises(MissingField):
            load_taxonomy(path)

    def test_unknown_keys_warn(self, tmp_path, caplog):
        path = tmp_path / "extra.tax"
        path.write_text("term: a\npref: aa\nnarrower: b\n", encoding="utf-8")
        import logging

        with caplog.at_level(logging.WARNING, logger="biblioforge.taxonomy"):
            taxonomy = load_taxonomy(path)
        assert len(taxonomy) == 1
        assert any("unknown key" in r.message for r in caplog.records)

    def test_composite_of_composite_rejected(self):
        with pytest.raises(ValueError):
            Taxonomy(
                [
                    TaxonomyTerm("a", "aa"),
                    TaxonomyTerm("b", "bb"),
                    TaxonomyTerm("c", "cc", composite_of=("a", "b")),
                    TaxonomyTerm("d", "dd", composite_of=("c", "a")),
                ]
            )

    def test_labels_normalized(self, tmp_path):
        path = tmp_path / "norm.tax"
        path.write_text("term: a\npref: Magnetic   Moment\n", encoding="utf-8")
        taxonomy = load_taxonomy(path)
        assert "magnetic moment" in taxonomy.label_index

    @pytest.mark.parametrize(
        "line_no, key, text",
        [
            (1, "term", "term: t\tdilaton\npref: dilaton\n"),
            (2, "pref", "term: t_dilaton\npref: dilaton\talpha\n"),
            (3, "alt", "term: t_dilaton\npref: dilaton\nalt: dilaton\tfield\n"),
        ],
    )
    def test_tab_in_id_or_label_rejected_with_its_line(self, tmp_path, line_no, key, text):
        # a keywords sidecar row could not hold the id or label
        path = tmp_path / "tab.tax"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLine, match=key) as exc:
            load_taxonomy(path)
        assert exc.value.line_no == line_no

    def test_every_label_indexed(self, taxonomy20):
        for term in taxonomy20.terms.values():
            for label in term.labels():
                assert taxonomy20.label_index[" ".join(label.lower().split())] == term.term_id


class TestExtractKeywords:
    def test_two_sentence_fixture(self, taxonomy3):
        out = extract_keywords("dilaton dilaton. gravitation dilaton.", taxonomy3, 10)
        assert [(ka.display_label, ka.occurrence) for ka in out] == [
            ("dilaton", 3),
            ("gravitation", 1),
            ("gravitation, dilaton", 1),
        ]
        composite = out[2]
        assert composite.component_counts == (1, 3)
        assert composite.occurrence <= min(composite.component_counts)

    def test_empty_text(self, taxonomy3):
        assert extract_keywords("", taxonomy3, 10) == []

    def test_table_style_output_shape(self, taxonomy20):
        # composite rows carry component counts and respect the min bound;
        # ordering is occurrence-descending with label ties ascending
        text = (
            "Gravitation and the dilaton. The dilaton couples to gravitation. "
            "Dilaton dynamics again. Gravitation alone here. Dilaton once more."
        )
        out = extract_keywords(text, taxonomy20, 10)
        occurrences = [ka.occurrence for ka in out]
        assert occurrences == sorted(occurrences, reverse=True)
        for first, second in zip(out, out[1:]):
            if first.occurrence == second.occurrence:
                assert first.display_label < second.display_label
        composites = [ka for ka in out if ka.component_counts is not None]
        assert composites, "expected a composite row"
        for ka in composites:
            assert ka.occurrence <= min(ka.component_counts)

    def test_longest_match_consumes_tokens(self, taxonomy20):
        # "scalar field" wins over "scalar" at the same position, and the
        # consumed "field" cannot also start "field theory"
        out = {ka.term_id: ka.occurrence for ka in extract_keywords(
            "scalar field theory", taxonomy20, 10)}
        assert out == {"t_scalar": 1}

    def test_stemmed_matching(self, taxonomy20):
        out = {ka.term_id: ka.occurrence for ka in extract_keywords(
            "Fermions and more fermions.", taxonomy20, 10)}
        assert out == {"t_fermion": 2}

    def test_phrase_cannot_span_sentence_boundary(self, taxonomy20):
        out = extract_keywords("We consider the magnetic. Moment follows.", taxonomy20, 10)
        assert all(ka.term_id != "t_magmoment" for ka in out)

    def test_max_results_truncates(self, taxonomy20):
        text = "gravitation dilaton fermion ghost quantization bosonization."
        out = extract_keywords(text, taxonomy20, 3)
        assert len(out) == 3

    def test_max_results_validated(self, taxonomy3):
        with pytest.raises(ValueError):
            extract_keywords("x", taxonomy3, 0)

    def test_determinism(self, taxonomy20):
        text = "dilaton gravitation. scalar field and fermion dirac operator."
        assert extract_keywords(text, taxonomy20, 10) == extract_keywords(text, taxonomy20, 10)


_VOCAB = [
    "dilaton", "gravitation", "gravity", "fermion", "fermions", "scalar",
    "field", "theory", "quantum", "ghost", "quantization", "nonperturbative",
    "magnetic", "moment", "dirac", "operator", "minkowski", "bosonization",
    "the", "of", "and", "model", "study", "result", "effective", "action",
]


@st.composite
def _documents(draw):
    n_sentences = draw(st.integers(min_value=1, max_value=5))
    sentences = []
    for _ in range(n_sentences):
        words = draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12))
        sentences.append(" ".join(words))
    return ". ".join(sentences) + "."


class TestKeywordProperties:
    @given(_documents())
    @settings(max_examples=60)
    def test_oracle_equivalence(self, taxonomy20, text):
        assert extract_keywords(text, taxonomy20, 50) == naive_keyword_scan(
            text, taxonomy20, 50
        )

    @given(_documents())
    @settings(max_examples=60)
    def test_count_additivity_under_self_concatenation(self, taxonomy20, text):
        single = {
            ka.term_id: ka.occurrence
            for ka in extract_keywords(text, taxonomy20, 50)
            if ka.component_counts is None
        }
        doubled = {
            ka.term_id: ka.occurrence
            for ka in extract_keywords(text + ". " + text, taxonomy20, 50)
            if ka.component_counts is None
        }
        assert doubled == {tid: 2 * count for tid, count in single.items()}

    @given(_documents())
    @settings(max_examples=40)
    def test_composite_bound(self, taxonomy20, text):
        for ka in extract_keywords(text, taxonomy20, 50):
            if ka.component_counts is not None:
                assert 1 <= ka.occurrence <= min(ka.component_counts)


# Every code point str.isspace accepts: one per whitespace class and more.
_WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
# Characters whose handling differs between plausible tokenizers: "İ" grows
# when lowercased, "_" is a word character for regex \w but separates here,
# "\x1c" and U+2028 are whitespace that is not a space.
_TRICKY = ["İ", "_", "\x1c", "\u2028", "-", ".", "!", "?", "ß", "ǅ", "٣", "\u0301"]


class TestTokenizeOracle:
    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_TRICKY + _WHITESPACE))))
    @settings(max_examples=300)
    def test_equals_naive_tokenizer_on_unicode_text(self, text):
        assert tokenize(text) == naive_tokenize(text)

    @pytest.mark.parametrize("mark", [".", "!", "?"])
    def test_sentence_mark_before_every_whitespace_and_at_end(self, mark):
        for ws in _WHITESPACE:
            text = f"Word{mark}{ws}next{mark}x{mark}"
            assert tokenize(text) == naive_tokenize(text), repr(ws)
        assert tokenize(mark) == naive_tokenize(mark) == [SENTENCE_BOUNDARY]
        assert tokenize(f"a{mark}_") == naive_tokenize(f"a{mark}_") == ["a"]


_PIECES = _VOCAB + ["Fermions", "SCALAR", "Field", "field-theory", "magnetic-moment",
                    "ghosts", "İ", "_", "3.5", ",", ".", "!", "?", "-"]
_SEPARATORS = [" ", "  ", "\n", "\t", "", "\u2028", ". ", "! ", "? "]


@st.composite
def _rough_documents(draw):
    pieces = draw(st.lists(st.sampled_from(_PIECES), max_size=40))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(pieces), max_size=len(pieces)))
    return "".join(piece + sep for piece, sep in zip(pieces, seps))


class TestKeywordOracleOnRoughText:
    @given(_rough_documents(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=150)
    def test_equals_naive_scan(self, taxonomy20, text, max_results):
        assert extract_keywords(text, taxonomy20, max_results) == naive_keyword_scan(
            text, taxonomy20, max_results
        )

    def test_composite_terms_are_indexed_once(self, taxonomy20):
        composites = taxonomy20.composite_terms()
        assert composites == [t for t in taxonomy20.terms.values() if t.is_composite]
        composites.clear()
        assert taxonomy20.composite_terms()


def _single(term_ids):
    return [KeywordAssignment(tid, tid, 1) for tid in term_ids]


class TestClusterDocuments:
    def test_identical_sets_cluster(self):
        assignments = {"r1": _single(["a", "b"]), "r2": _single(["a", "b"])}
        assert cluster_documents(assignments, 0.5) == [["r1", "r2"]]

    def test_disjoint_sets_stay_singletons(self):
        assignments = {"r1": _single(["a"]), "r2": _single(["b"])}
        assert cluster_documents(assignments, 0.5) == [["r1"], ["r2"]]

    def test_planted_two_cluster_structure(self):
        # all-pairs Jaccard worked by hand: within-cluster chains reach 2/3,
        # the weak diagonal pairs sit at 1/3, across clusters everything is 0
        assignments = {
            "d1": _single(["g", "d"]),
            "d2": _single(["g", "d", "q"]),
            "d3": _single(["g", "q"]),
            "d4": _single(["f", "s"]),
            "d5": _single(["f", "s", "m"]),
            "d6": _single(["s", "m"]),
        }
        assert cluster_documents(assignments, 0.4) == [
            ["d1", "d2", "d3"],
            ["d4", "d5", "d6"],
        ]

    def test_composite_expansion(self):
        composite = KeywordAssignment(
            "c", "a, b", 1, component_counts=(2, 3), components=("a", "b")
        )
        assignments = {
            "r1": [composite],
            "r2": _single(["a", "b"]),
        }
        # expanded sets {c, a, b} and {a, b}: Jaccard 2/3
        assert cluster_documents(assignments, 0.6) == [["r1", "r2"]]
        assert cluster_documents(assignments, 0.7) == [["r1"], ["r2"]]

    def test_empty_keyword_sets_do_not_cluster(self):
        assignments = {"r1": [], "r2": []}
        assert cluster_documents(assignments, 0.5) == [["r1"], ["r2"]]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            cluster_documents({}, 0.0)
        with pytest.raises(ValueError):
            cluster_documents({}, 1.5)

    def test_random_fixture_matches_brute_force(self, taxonomy20):
        rng = random.Random(7)
        ids = [f"r{i}" for i in range(8)]
        pool = ["a", "b", "c", "d", "e", "f"]
        assignments = {
            rid: _single(rng.sample(pool, rng.randint(1, 4))) for rid in ids
        }
        threshold = 0.4

        def jaccard(x, y):
            sx = {ka.term_id for ka in assignments[x]}
            sy = {ka.term_id for ka in assignments[y]}
            return len(sx & sy) / len(sx | sy) if sx | sy else 0.0

        # brute force: repeatedly merge any two groups linked by an edge
        groups = [{rid} for rid in ids]
        changed = True
        while changed:
            changed = False
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    if any(
                        jaccard(x, y) >= threshold for x in groups[i] for y in groups[j]
                    ):
                        groups[i] |= groups[j]
                        del groups[j]
                        changed = True
                        break
                if changed:
                    break
        expected = sorted((sorted(g) for g in groups), key=lambda g: g[0])
        assert cluster_documents(assignments, threshold) == expected
