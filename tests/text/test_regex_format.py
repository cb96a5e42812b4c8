"""Tests for the format-describing regular expression strings."""

import random

from hypothesis import given, settings, strategies as st

from repro.text.regex_format import classify_token, format_set, format_string


def reference_format_set(values):
    """Oracle: the rset built with one ``format_string`` per value."""
    result = set()
    for value in values:
        rendered = format_string(value)
        if rendered:
            result.add(rendered)
    return result


#: Extents of a few values repeated many times, with whitespace-only,
#: punctuation-only and case-variant values in the mix.
repetitive_extents = st.lists(
    st.one_of(
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
        st.sampled_from(
            ["", " ", "\t \n", "--", "/.,;", "(!)", "Salford", "SALFORD", "salford", " Salford "]
        ),
    ),
    min_size=1,
    max_size=6,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40))


class TestClassifyToken:
    def test_capitalised_word(self):
        assert classify_token("Portland") == "C"

    def test_uppercase_run(self):
        assert classify_token("NHS") == "U"

    def test_lowercase_run(self):
        assert classify_token("street") == "L"

    def test_digit_run(self):
        assert classify_token("2024") == "N"

    def test_mixed_alphanumeric(self):
        assert classify_token("M1") == "A"
        assert classify_token("3BE") == "A"

    def test_punctuation(self):
        assert classify_token("--") == "P"
        assert classify_token("/") == "P"

    def test_first_match_wins(self):
        # "A" matches both C (no) and U? "Abc" is C; "ABC" is U not A.
        assert classify_token("Abc") == "C"
        assert classify_token("ABC") == "U"


class TestFormatString:
    def test_address_format(self):
        assert format_string("18 Portland Street") == "NC+"

    def test_postcode_format(self):
        assert format_string("M1 3BE") == "A+"

    def test_time_range_format(self):
        assert format_string("08:00-18:00") == "NPNPNPN"

    def test_empty_value(self):
        assert format_string("") == ""
        assert format_string(None) == ""

    def test_single_word(self):
        assert format_string("Salford") == "C"

    def test_collapse_repeats(self):
        assert format_string("One Two Three") == "C+"

    def test_email_like_format(self):
        assert format_string("smith12@nhs.uk") == "APLPL"

    def test_same_format_different_values(self):
        assert format_string("M3 6AF") == format_string("BL3 6PY")


class TestFormatSet:
    def test_collects_distinct_formats(self):
        formats = format_set(["M1 3BE", "M3 6AF", "18 Portland Street"])
        assert formats == {"A+", "NC+"}

    def test_empty_values_ignored(self):
        assert format_set(["", "   "]) == set()

    def test_uniform_extent_has_single_format(self):
        assert len(format_set(["08:00-18:00", "07:30-20:00"])) <= 2

    def test_many_formats_keep_the_per_value_order(self):
        # Enough distinct formats for hash collisions, so the set's iteration
        # order depends on the order the formats were added in.
        rng = random.Random(5)
        pieces = ["Salford", "NHS", "street", "2024", "M1", "--", "/"]
        values = [
            " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 6))) for _ in range(400)
        ]
        assert len(reference_format_set(values)) > 50
        assert list(format_set(values)) == list(reference_format_set(values))

    def test_repeats_and_none(self):
        values = ["M1 3BE", "M1 3BE", None, "m1 street", "  ", "M1 3BE"]
        assert format_set(values) == reference_format_set(values) == {"A+", "AL"}

    def test_equal_values_of_other_types_format_apart(self):
        values = [1, 1.0, True]
        assert format_set(values) == reference_format_set(values) == {"N", "NPN", "C"}

    @given(repetitive_extents)
    @settings(max_examples=150, deadline=None)
    def test_equals_per_value_reference(self, values):
        # Equal iteration order too: the set is filled in the same order, so
        # a pickled profile is byte-identical.
        assert list(format_set(values)) == list(reference_format_set(values))
