"""The fallback TOML parser against ``tomllib``.

Sweep specs load through ``tomllib`` where it exists (Python >= 3.11)
and through ``_parse_minimal_toml`` elsewhere. The fallback may accept
less than ``tomllib`` but never something different: on every input the
two parsers agree, or the fallback raises :class:`SweepError`.
"""

import math

import pytest

from repro.errors import SweepError
from repro.sweeps.spec import _parse_minimal_toml

tomllib = pytest.importorskip("tomllib")

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False


def _normal(value):
    """NaN-aware comparable form of a parsed document."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {k: _normal(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normal(v) for v in value]
    return (type(value).__name__, value)


def assert_consistent(text):
    """The fallback equals tomllib, or raises SweepError."""
    try:
        expected = tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        expected = None
    try:
        got = _parse_minimal_toml(text, "<test>")
    except SweepError:
        return
    assert expected is not None, f"fallback accepted invalid TOML {text!r}"
    assert _normal(got) == _normal(expected), text


@pytest.mark.parametrize(
    "text",
    [
        # tomllib rejects: a key defined twice.
        "a = 1\na = 2\n",
        # tomllib rejects: a table header repeated.
        "[s]\na = 1\n[s]\nb = 2\n",
        # tomllib decodes the escape; the fallback kept the backslash.
        '[s]\nx = "x\\ty"\n',
        # tomllib rejects: two adjacent strings.
        'a = "1" "2"\n',
    ],
    ids=["duplicate-key", "repeated-table", "escape", "adjacent-strings"],
)
def test_known_divergences_rejected(text):
    with pytest.raises(SweepError):
        _parse_minimal_toml(text, "<test>")
    assert_consistent(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n",
        '[sweep]\nname = "smoke" # trailing comment\ncampaigns = 2\n',
        "[axes]\nrate = [1.0, 1.25]\nburstiness = []\n",
        "[axes]\nrate = [1, 2,]\n",
        '[[cells]]\nprofile = "smoke"\n[[cells]]\nprofile = "mixed"\n',
        "a = 1_000\nb = -0.5e-3\nc = +inf\nd = true\n",
        "a = 1\r\nb = 2\r\n",
        "  indented = 3\n\t[t]\n",
    ],
)
def test_restricted_subset_agrees(text):
    assert _parse_minimal_toml(text, "<test>") == tomllib.loads(text)


@pytest.mark.parametrize(
    "text",
    [
        "a.b = 1\n",
        '"quoted" = 1\n',
        "[a.b]\n",
        "a = 01\n",
        "a = .5\n",
        "a = 5.\n",
        "a = Infinity\n",
        "a = 0x10\n",
        "a = [1,,2]\n",
        "a = [\n1]\n",
        "a = 'literal'\n",
        'a = "x#y"\n',
        "a = 1\x0c\n",
        "[[t]]\n[t]\n",
        "[t]\n[[t]]\n",
        "t = 1\n[t]\n",
        "a = ٣\n",
    ],
)
def test_outside_subset_rejected(text):
    with pytest.raises(SweepError):
        _parse_minimal_toml(text, "<test>")
    assert_consistent(text)


if HAVE_HYPOTHESIS:
    _names = st.sampled_from(
        ["a", "b", "rate", "x-y", "k_1", "1", "a.b", '"a"', "a b", ""]
    )
    _numbers = st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.floats(allow_nan=True).map(repr),
        st.sampled_from(
            ["1_000", "1__0", "01", "+0", "-0.0", "1e5", "1E+05", ".5",
             "5.", "inf", "-nan", "Infinity", "0x1F", "1_", "2e1_0"]
        ),
    )
    _strings = st.one_of(
        st.text(max_size=6).map(lambda t: '"' + t + '"'),
        st.sampled_from(['"x\\ty"', '"1" "2"', "'lit'", '"a#b"', '""']),
    )
    _scalars = st.one_of(
        _numbers, _strings, st.sampled_from(["true", "false", "True"])
    )
    _arrays = st.lists(_scalars, max_size=4).flatmap(
        lambda items: st.sampled_from(
            [
                "[" + ", ".join(items) + "]",
                "[" + ", ".join(items) + ",]",
                "[" + ",".join(items) + ",,]",
            ]
        )
    )
    _lines = st.one_of(
        st.tuples(_names, st.one_of(_scalars, _arrays)).map(
            lambda kv: f"{kv[0]} = {kv[1]}"
        ),
        _names.map(lambda n: f"[{n}]"),
        _names.map(lambda n: f"[[{n}]]"),
        st.sampled_from(["", "# comment", "   ", "\t# tab comment"]),
        st.text(max_size=8),
    )
    _documents = st.lists(_lines, max_size=8).map(
        lambda lines: "\n".join(lines) + "\n"
    )

    @settings(max_examples=400, deadline=None)
    @given(_documents)
    def test_fallback_agrees_or_rejects(text):
        assert_consistent(text)
