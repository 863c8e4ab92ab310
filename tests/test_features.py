from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taxotext.acquire import snippet_text
from taxotext.corpus import build_instances
from taxotext.features import N_BUCKETS, FeatureVector, PrefixFeaturizer, featurize, tokenize
from taxotext.hashing import digests64, token_hash64
from taxotext.search import SearchResult
from taxotext.taxonomy import EntityRecord, Split, load_sic_scheme


def _reference_featurize(text: str) -> FeatureVector:
    """The per-ngram loop featurize replaced: the oracle it must match bit for bit."""
    tokens = tokenize(text)
    counts: dict[int, float] = {}
    for tok in tokens:
        bucket = token_hash64(tok) % N_BUCKETS
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    for left, right in zip(tokens, tokens[1:]):
        bucket = token_hash64(f"{left} {right}") % N_BUCKETS
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    if not counts:
        return FeatureVector(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    values /= np.linalg.norm(values)
    return FeatureVector(indices, values)


def _assert_matches_reference(text: str) -> FeatureVector:
    fv, ref = featurize(text), _reference_featurize(text)
    assert fv.indices.dtype == np.int64 and fv.values.dtype == np.float64
    assert fv.indices.tobytes() == ref.indices.tobytes()
    assert fv.values.tobytes() == ref.values.tobytes()
    return fv


def test_tokenize_lowercases_and_splits():
    assert tokenize("Acme Corp, Inc.") == ["acme", "corp", "inc"]
    assert tokenize("classtoken_3 here") == ["classtoken", "3", "here"]
    assert tokenize("") == []
    assert tokenize("...!?") == []


def test_tokenize_keeps_unicode_words():
    assert tokenize("Café Zürich") == ["café", "zürich"]


def test_featurize_empty_text():
    fv = featurize("  ... ")
    assert fv.nnz == 0


def test_featurize_unit_norm_and_sorted():
    fv = featurize("alpha beta beta gamma")
    assert np.all(np.diff(fv.indices) > 0)
    assert np.linalg.norm(fv.values) == 1.0 or abs(np.linalg.norm(fv.values) - 1.0) < 1e-12
    assert np.all(fv.indices < N_BUCKETS)
    assert np.all(fv.indices >= 0)


def test_featurize_is_deterministic():
    a = featurize("the quick brown fox")
    b = featurize("the quick brown fox")
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.values, b.values)


def test_bigrams_encode_order():
    ab = featurize("alpha beta")
    ba = featurize("beta alpha")
    # same unigrams, different bigram bucket
    assert not np.array_equal(ab.indices, ba.indices)


def test_repeated_token_weighs_more():
    fv = featurize("alpha alpha alpha beta")
    bucket = token_hash64("alpha") % N_BUCKETS
    pos = int(np.searchsorted(fv.indices, bucket))
    assert fv.indices[pos] == bucket
    assert fv.values[pos] == fv.values.max()


def test_underscore_separated_parts_stay_linked_by_bigram():
    # "classtoken_3" and "classtoken 7" share unigrams "classtoken" but
    # their bigrams differ, which keeps such markers separable
    a = featurize("classtoken_3")
    b = featurize("classtoken_7")
    assert not np.array_equal(a.indices, b.indices)


@settings(max_examples=80, deadline=None)
@given(st.text(min_size=0, max_size=200))
def test_featurize_norm_property(text):
    fv = featurize(text)
    if fv.nnz:
        assert abs(float(np.linalg.norm(fv.values)) - 1.0) < 1e-9
        assert np.all(fv.values > 0)
        assert np.all(np.diff(fv.indices) > 0)
    else:
        assert tokenize(text) == []


def test_token_hash64_is_pinned():
    # blake2b with an 8-byte digest, read little-endian; bucket indices in
    # saved models depend on these exact values
    assert token_hash64("alpha") == 11099342189553124947
    assert token_hash64("café") == 16417751708935026519
    assert token_hash64("acme corp") == 9282487368440667551
    assert token_hash64("") == 13020603013274838756


def test_digests64_concatenates_in_order():
    tokens = ["alpha", "café", "alpha beta", ""]
    joined = digests64(tokens)
    assert len(joined) == 8 * len(tokens)
    assert [int.from_bytes(joined[i : i + 8], "little") for i in range(0, len(joined), 8)] == [
        token_hash64(t) for t in tokens
    ]
    assert digests64([]) == b""


_WORDS = ["alpha", "beta", "Café", "zürich", "x", "42", "classtoken"]
_SEPARATORS = [" ", "_", ", ", "...", "\n", " - "]
_word_runs = st.lists(
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=30
).map(lambda parts: "".join(word + sep for word, sep in parts))
_punctuation = st.text(alphabet=" .,;:!?-_()[]'\"\t\n", max_size=20)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=300), _word_runs, _punctuation))
def test_featurize_matches_the_per_ngram_reference(text):
    _assert_matches_reference(text)


def test_featurize_matches_reference_on_edge_cases():
    for text in ["", "   ", "...!?", "___", "a_b_c", "alpha alpha alpha alpha", "Ünïcödé テキスト 123"]:
        _assert_matches_reference(text)


def test_colliding_ngrams_count_twice():
    # find two distinct tokens sharing a bucket; a few thousand suffice
    # for 2^18 buckets
    seen: dict[int, str] = {}
    for i in itertools.count():
        token = f"tok{i}"
        bucket = token_hash64(token) % N_BUCKETS
        if bucket in seen:
            first = seen[bucket]
            break
        seen[bucket] = token
    text = f"{first} {token}"
    bigram = token_hash64(text) % N_BUCKETS
    assert bigram != bucket
    fv = _assert_matches_reference(text)
    assert fv.indices.tolist() == sorted([bucket, bigram])
    raw = np.array([2.0 if i == bucket else 1.0 for i in fv.indices])
    assert fv.values.tobytes() == (raw / np.linalg.norm(raw)).tobytes()


# --- one hash pass for every snippet depth -----------------------------------------

_LABEL = load_sic_scheme().by_id["20"]


def _gsnip_instance_texts(name: str, snippets: list[str], ks) -> dict[int, str]:
    """Each k's instance text, built as ablation builds it from a cached search reply."""
    record = EntityRecord("e1", name, "2010", _LABEL, Split.TRAIN)
    provenance = [vars(SearchResult(i + 1, f"t{i}", f"u{i}", s)) for i, s in enumerate(snippets)]
    texts = {}
    for k in ks:
        acquired = snippet_text("e1", provenance, k, "2024-01-01T00:00:00Z")
        texts[k] = build_instances([record], {"e1": acquired.text}, f"gsnip{k}").instances[0].input_text
    return texts


def _assert_prefixes_match_featurize(name: str, snippets: list[str], ks=(1, 2, 3, 5, 8)):
    texts = _gsnip_instance_texts(name, snippets, ks)
    hashed = PrefixFeaturizer(texts[max(ks)])
    for k in ks:
        fv, ref = hashed.vector(texts[k]), featurize(texts[k])
        assert fv.indices.dtype == np.int64 and fv.values.dtype == np.float64
        assert fv.indices.tobytes() == ref.indices.tobytes(), k
        assert fv.values.tobytes() == ref.values.tobytes(), k


def test_prefix_vectors_of_an_entity_with_no_snippets():
    _assert_prefixes_match_featurize("Acme Corp", [])
    _assert_prefixes_match_featurize("", [])
    _assert_prefixes_match_featurize("...", ["", " "])


def test_prefix_vectors_skip_empty_and_punctuation_only_snippets():
    _assert_prefixes_match_featurize(
        "Acme Corp", ["", "  makes glue  ", "...", " ", "!?", "sells glue", "--", "glue glue"]
    )
    # the first non-empty snippet comes only after k=1
    _assert_prefixes_match_featurize("Acme", ["   ", "glue works", "", "glue"])


def test_prefix_vectors_split_words_at_underscores():
    _assert_prefixes_match_featurize("snake_case Ltd", ["a_b c_", "_d_ e", "f__g", "classtoken_7"])


def test_prefix_vectors_keep_a_word_final_sigma():
    # lower() maps a word-final capital sigma to final ς, anywhere else to σ;
    # the space joining the next snippet ends the word in both texts
    assert "ΤΕΛΟΣ ΑΡΧΗ".lower() == "τελος αρχη"
    _assert_prefixes_match_featurize("ΟΔΟΣ", ["ΤΕΛΟΣ", "ΑΡΧΗ ΣΑΣ", "ΤΕΛΟΣ.", "ΣΑ", "Σ"])
    _assert_prefixes_match_featurize("ΘΕΟΣ'", ["ΛΟΓΟΣ'", "ΑΣ'Α"])


def test_prefix_vectors_of_a_letter_that_lowercases_to_two_code_points():
    assert len("İ".lower()) == 2
    _assert_prefixes_match_featurize("İstanbul İİ", ["İzmir", "İ", "KİM İN", "istanbul"])


def test_prefix_vectors_at_depths_beyond_the_entitys_results():
    _assert_prefixes_match_featurize("Acme Corp", ["makes glue", "sells glue"], ks=(1, 2, 5, 10, 20))


_snippet = st.text(alphabet="aAbΣσςİiı_ .,'-\t\n", max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="aΣİ_ .'", max_size=8), st.lists(_snippet, max_size=8))
def test_prefix_vectors_match_featurize_per_depth(name, snippets):
    _assert_prefixes_match_featurize(name, snippets)


def test_whole_text_vector_matches_featurize():
    for text in ["", "...", "alpha beta alpha", "ΟΔΟΣ İ_x"]:
        fv, ref = PrefixFeaturizer(text).vector(text), featurize(text)
        assert fv.indices.tobytes() == ref.indices.tobytes()
        assert fv.values.tobytes() == ref.values.tobytes()
