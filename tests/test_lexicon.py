import io

import numpy as np
import pytest

from signform.errors import (
    DimensionMismatchError,
    EmbeddingFormatError,
    EmptyFormError,
    EmptyLexiconError,
    LeadingMarkError,
    SchemaError,
    TooManyFoldsError,
    WhitespaceInFormError,
)
from signform.lexicon import (
    EOS_SYMBOL,
    FoldAssignment,
    Lexicon,
    PhoneInventory,
    Sign,
    attach_meanings,
    load_embeddings,
    parse_lexicon,
    split_folds,
    tokenize_ipa,
    tokenize_pretokenized,
)


def sign(lemma, form, pos="N", dim=3):
    return Sign(lemma=lemma, form=tokenize_ipa(form), meaning=np.zeros(dim),
                pos=pos)


class TestTokenizeIpa:
    def test_plain_ascii(self):
        assert tokenize_ipa("kat") == ("k", "a", "t")

    def test_aspiration_attaches(self):
        assert tokenize_ipa("tʰam") == ("tʰ", "a", "m")

    def test_combining_diacritic_attaches(self):
        # Ring below has no precomposed form, so it stays a combining mark.
        assert tokenize_ipa("d̥a") == ("d̥", "a")
        # Tilde composes under NFC; still one phone.
        assert tokenize_ipa("bã") == ("b", "ã")

    def test_length_mark_attaches(self):
        assert tokenize_ipa("aːt") == ("aː", "t")

    def test_tie_bar_joins_bases(self):
        # t + tie + ʃ is one affricate phone.
        assert tokenize_ipa("t͡ʃa") == ("t͡ʃ", "a")
        assert tokenize_ipa("t͜ʃa") == ("t͜ʃ", "a")

    def test_tie_bar_keeps_following_modifiers(self):
        assert tokenize_ipa("t͡ʃʰa") == ("t͡ʃʰ", "a")

    def test_nfc_normalization(self):
        # Decomposed n + combining tilde re-composes to the same phone as ñ.
        assert tokenize_ipa("ña") == tokenize_ipa("ña")

    def test_stress_marks_stripped_by_default(self):
        assert tokenize_ipa("ˈka.tˌa") == ("k", "a", "t", "a")

    def test_stress_marks_kept_when_asked(self):
        toks = tokenize_ipa("ˈka", strip_marks=False)
        assert toks == ("ˈ", "k", "a")

    def test_empty_raises(self):
        with pytest.raises(EmptyFormError):
            tokenize_ipa("")

    def test_all_stripped_raises(self):
        with pytest.raises(EmptyFormError):
            tokenize_ipa("ˈ.")

    def test_leading_mark_raises(self):
        with pytest.raises(LeadingMarkError):
            tokenize_ipa("ːka")

    def test_whitespace_raises(self):
        with pytest.raises(WhitespaceInFormError):
            tokenize_ipa("ka t")

    def test_roundtrip_property(self):
        rng = np.random.default_rng(7)
        bases = list("ptkbdgmnszaeiouʃʒø")
        mods = ["", "ʰ", "ː", "̃", "ʲ"]
        for _ in range(200):
            n = rng.integers(1, 8)
            raw = "".join(
                bases[rng.integers(len(bases))] + mods[rng.integers(len(mods))]
                for _ in range(n))
            toks = tokenize_ipa(raw)
            joined = "".join(toks)
            assert joined == __import__("unicodedata").normalize("NFC", raw)
            assert all(len(t) >= 1 for t in toks)

    def test_pretokenized_split(self):
        assert tokenize_pretokenized("tʰ a m") == ("tʰ", "a", "m")
        with pytest.raises(EmptyFormError):
            tokenize_pretokenized("   ")


class TestPhoneInventory:
    def test_sorted_with_eos_last(self):
        inv = PhoneInventory.from_phones(["t", "a", "k", "a"])
        assert inv.phones == ("a", "k", "t", EOS_SYMBOL)
        assert inv.eos_index == 3
        assert len(inv) == 4

    def test_encode(self):
        inv = PhoneInventory.from_phones(["t", "a", "k"])
        np.testing.assert_array_equal(inv.encode(("k", "a", "t")), [1, 0, 2])

    def test_unknown_phone(self):
        inv = PhoneInventory.from_phones(["a"])
        assert "z" not in inv
        with pytest.raises(KeyError):
            inv.encode(("z",))

    def test_reserved_symbol_rejected(self):
        with pytest.raises(ValueError):
            PhoneInventory.from_phones(["a", EOS_SYMBOL])


class TestLexicon:
    def test_from_signs_builds_inventory_and_classes(self):
        lex = Lexicon.from_signs("xx", [sign("cat", "kat"), sign("go", "go", "V")])
        assert set("katgo") <= set(lex.inventory.phones)
        assert lex.classes == ("N", "V")
        assert lex.meaning_dim == 3
        assert len(lex) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyLexiconError):
            Lexicon.from_signs("xx", [])

    def test_mixed_dims_raise(self):
        with pytest.raises(DimensionMismatchError):
            Lexicon.from_signs("xx", [sign("a", "a", dim=3), sign("b", "b", dim=4)])

    def test_sign_key(self):
        s = sign("cat", "kat")
        assert s.key == ("cat", ("k", "a", "t"), "N")


LEX_TSV = (
    "lemma\tipa\tpos\tconcept\n"
    "cat\tkat\tN\tC1\n"
    "cat\tkat\tN\tC1\n"
    "dog\tdɔg\tN\tC2\n"
    "bad\tːx\tADJ\tC3\n"
    "go\tgo\tV\t\n"
)


class TestParseLexicon:
    def test_parse_counts_and_dedup(self):
        lex = parse_lexicon(LEX_TSV, "xx")
        assert [s.lemma for s in lex.signs] == ["cat", "dog", "go"]
        assert lex.stats.rows_read == 5
        assert lex.stats.rows_kept == 3
        assert lex.stats.duplicates_dropped == 1
        assert lex.stats.tokenize_failures == 1
        assert lex.signs[0].concept_id == "C1"
        assert lex.signs[2].concept_id is None

    def test_column_remap(self):
        tsv = "word\tform\tcat\nhi\thai\tINTJ\n"
        lex = parse_lexicon(tsv, "xx", columns={"lemma": "word",
                                                "form": "form", "pos": "cat"})
        assert lex.signs[0].lemma == "hi"
        assert lex.signs[0].pos == "INTJ"

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            parse_lexicon("lemma\tpos\na\tN\n", "xx")

    def test_all_rows_bad_raises(self):
        with pytest.raises(EmptyLexiconError):
            parse_lexicon("lemma\tipa\tpos\nx\t\tN\n", "xx")

    def test_pretokenized_mode(self):
        lex = parse_lexicon("lemma\tipa\tpos\nhi\ttʰ a m\tN\n", "xx",
                            pretokenized=True)
        assert lex.signs[0].form == ("tʰ", "a", "m")


EMB_TXT = """3 4
cat 0.1 0.2 0.3 0.4
dog 1 2 3 4
cat 9 9 9 9
"""


class TestLoadEmbeddings:
    def test_header_and_first_wins(self):
        vecs, missing = load_embeddings(EMB_TXT, ["cat", "dog", "go"])
        np.testing.assert_allclose(vecs["cat"], [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(vecs["dog"], [1, 2, 3, 4])
        assert missing == ["go"]

    def test_headerless(self):
        vecs, missing = load_embeddings("cat 1 2\ndog 3 4\n", ["dog"])
        assert set(vecs) == {"dog"}
        assert missing == []

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            load_embeddings("cat 1 2\ndog 3\n", ["cat", "dog"])

    def test_fields_parse_bit_identical_to_float(self):
        fields = ["nan", "-inf", "1e400", "1_0", "1.5e-310", "-0.0",
                  "0.1", "-2.5E-3", "+7", "1e-400", "Infinity", "-nan"]
        text = "w " + " ".join(fields) + "\n"
        vecs, _ = load_embeddings(text, ["w"])
        expected = np.array([float(f) for f in fields], dtype=np.float64)
        assert vecs["w"].dtype == np.float64
        assert vecs["w"].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", ["0x1p3", "1,5", "one"])
    def test_bad_field_names_its_line(self, bad):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings(f"2 2\ncat 1 2\ndog 3 {bad}\n", ["cat", "dog"])

    def test_attach_meanings_drops_missing(self):
        lex = parse_lexicon(LEX_TSV, "xx")
        vecs, _ = load_embeddings(EMB_TXT, [s.lemma for s in lex.signs])
        lex2 = attach_meanings(lex, vecs)
        assert [s.lemma for s in lex2.signs] == ["cat", "dog"]
        assert lex2.meaning_dim == 4
        np.testing.assert_allclose(lex2.signs[0].meaning, [0.1, 0.2, 0.3, 0.4])


class TestSplitFolds:
    def make_lex(self, n):
        return Lexicon.from_signs(
            "xx", [sign(f"w{i}", "ka") for i in range(n)])

    def test_partition_and_balance(self):
        lex = self.make_lex(23)
        fa = split_folds(lex, k=5, seed=11)
        sizes = [len(fa.indices(f)) for f in range(5)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        all_idx = np.sort(np.concatenate([fa.indices(f) for f in range(5)]))
        np.testing.assert_array_equal(all_idx, np.arange(23))

    def test_deterministic_in_seed(self):
        lex = self.make_lex(40)
        a = split_folds(lex, k=4, seed=3)
        b = split_folds(lex, k=4, seed=3)
        c = split_folds(lex, k=4, seed=4)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)
        assert not np.array_equal(a.fold_of, c.fold_of)

    def test_roles_disjoint_cover(self):
        lex = self.make_lex(31)
        fa = split_folds(lex, k=10, seed=0)
        for rot in range(10):
            train, val, test = fa.roles(rot)
            assert len(set(train) & set(val)) == 0
            assert len(set(train) & set(test)) == 0
            assert len(set(val) & set(test)) == 0
            assert len(train) + len(val) + len(test) == 31
        t0 = fa.roles(0)[1]
        t1 = fa.roles(1)[2]
        np.testing.assert_array_equal(np.sort(t0), np.sort(fa.indices(0)))
        np.testing.assert_array_equal(np.sort(t1), np.sort(fa.indices(2)))

    def test_too_many_folds(self):
        lex = self.make_lex(4)
        with pytest.raises(TooManyFoldsError):
            split_folds(lex, k=5, seed=0)

    def test_fold_assignment_frozen(self):
        fa = FoldAssignment(fold_of=np.zeros(4, dtype=np.int64), k=2, seed=0)
        with pytest.raises(Exception):
            fa.k = 3
