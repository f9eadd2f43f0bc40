"""PEPA lexer: token kinds, positions, comments, errors, and identity
with the frozen character-at-a-time oracle."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload
from repro.allocation.machines import machine_model_source
from repro.allocation.mapping import MACHINES
from repro.errors import PepaSyntaxError
from repro.pepa.lexer import KEYWORDS, Token, tokenize
from repro.pepa.models import MODEL_NAMES, get_source


def kinds(source: str) -> list[str]:
    return [t.kind for t in tokenize(source)]


def texts(source: str) -> list[str]:
    return [t.text for t in tokenize(source) if t.kind != "EOF"]


class TestBasics:
    def test_empty_source(self):
        assert kinds("") == ["EOF"]

    def test_identifiers_case_split(self):
        assert kinds("Server client") == ["UNAME", "LNAME", "EOF"]

    def test_prime_in_identifier(self):
        assert texts("Server'") == ["Server'"]

    def test_underscore_identifier(self):
        assert kinds("_x Client_busy") == ["LNAME", "UNAME", "EOF"]

    def test_infty_keywords(self):
        assert kinds("infty T") == ["INFTY", "INFTY", "EOF"]

    def test_numbers(self):
        assert texts("1 2.5 0.001 1e-3 2.5E+4 .5") == [
            "1",
            "2.5",
            "0.001",
            "1e-3",
            "2.5E+4",
            ".5",
        ]

    def test_punctuation(self):
        assert kinds("( ) , . + / { } < > [ ] ; * = %") == [
            "(", ")", ",", ".", "+", "/", "{", "}", "<", ">", "[", "]", ";",
            "*", "=", "%", "EOF",
        ]

    def test_two_char_tokens(self):
        assert kinds("|| <>") == ["||", "<>", "EOF"]

    def test_coop_set_is_separate_tokens(self):
        assert kinds("<a, b>") == ["<", "LNAME", ",", "LNAME", ">", "EOF"]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment here\n b") == ["LNAME", "LNAME", "EOF"]

    def test_block_comment(self):
        assert kinds("a /* multi\nline */ b") == ["LNAME", "LNAME", "EOF"]

    def test_unterminated_block_comment(self):
        with pytest.raises(PepaSyntaxError, match="unterminated"):
            tokenize("a /* oops")

    def test_many_unterminated_comments_scan_once(self):
        # Each "/*" rescanning to the end for a "*/" made this quadratic:
        # 50k openers took minutes; one linear scan takes milliseconds.
        start = time.perf_counter()
        with pytest.raises(PepaSyntaxError, match="unterminated") as err:
            tokenize("a\n" + "/* " * 50_000)
        assert time.perf_counter() - start < 1.0
        assert (err.value.line, err.value.column) == (2, 1)


class TestPositions:
    def test_line_column_tracking(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_position(self):
        with pytest.raises(PepaSyntaxError) as err:
            tokenize("abc\n   ?")
        assert err.value.line == 2
        assert err.value.column == 4


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(PepaSyntaxError, match="unexpected character"):
            tokenize("a @ b")

    def test_token_repr_compact(self):
        tok = Token("LNAME", "abc", 1, 1)
        assert "abc" in repr(tok)


# ---------------------------------------------------------------------------
# Frozen oracle: the character-at-a-time tokenizer the master regex
# replaced, kept verbatim as test-only code.  The regex lexer must give
# the same tokens, or raise the same error at the same place.
# ---------------------------------------------------------------------------

_PUNCT2 = ("||", "<>")
_PUNCT1 = "=(),.+/{}<>[];*-%"


def _oracle_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise PepaSyntaxError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            start_line, start_col = line, col
            while i < n and (source[i].isdigit() or source[i] == "."):
                advance(1)
            # scientific notation: 1e-3, 2.5E+4
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    while i < j:
                        advance(1)
                    while i < n and source[i].isdigit():
                        advance(1)
            text = source[start:i]
            try:
                float(text)
            except ValueError:
                raise PepaSyntaxError(f"malformed number {text!r}", start_line, start_col)
            tokens.append(Token("NUMBER", text, start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_line, start_col = line, col
            while i < n and (source[i].isalnum() or source[i] in "_'"):
                advance(1)
            text = source[start:i]
            if text in KEYWORDS:
                tokens.append(Token("INFTY", text, start_line, start_col))
            elif text[0].isupper():
                tokens.append(Token("UNAME", text, start_line, start_col))
            else:
                tokens.append(Token("LNAME", text, start_line, start_col))
            continue
        two = source[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token(two, two, line, col))
            advance(2)
            continue
        if ch in _PUNCT1:
            tokens.append(Token(ch, ch, line, col))
            advance(1)
            continue
        raise PepaSyntaxError(f"unexpected character {ch!r}", line, col)

    tokens.append(Token("EOF", "", line, col))
    return tokens


def _outcome(lex, source):
    """Every field of every token, or the error's message and place."""
    try:
        return [tuple(t) for t in lex(source)]
    except PepaSyntaxError as err:
        return (str(err), err.line, err.column)


#: Fragments a generated source is spliced from: the grammar's pieces,
#: its edge cases, and non-ASCII letters and digits ``str.isalpha`` /
#: ``str.isdigit`` accept (``²`` is a digit ``float`` refuses).
_FRAGMENTS = [
    *"abzAZT_'0159.eE+-/*|<>=(),{}[];%@?!#\\$",
    " ", "\t", "\n", "\r\n", "\r", "\f", "\x00",
    "//", "/*", "*/", "// note\n", "/* a\nb */", "/*/", "/**/",
    "infty", "T", "Tx", "infty'", "P'", "P''", "x_1",
    "1.2.3", "1e", "1e-", "2.5E+4", "1e5.3", ".5", "..5", "3.", "007",
    "é", "É", "ñ", "ǅ", "Ω", "一", "²", "٣", "½", "Ⅻ", "①", "\u00a0", "€",
]


class TestOracleIdentity:
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_generated_sources(self, source):
        assert _outcome(tokenize, source) == _outcome(_oracle_tokenize, source)

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, source):
        assert _outcome(tokenize, source) == _outcome(_oracle_tokenize, source)

    @pytest.mark.parametrize(
        "source",
        ["", "\n", "a /* oops", "x\n  /* open\n", "1.2.3", "1e", "2.5E+4",
         "P'' = (a, 1.0).P;", "a\tb\r\nc", "é²", "x²", "٣.5", "1²", "Ⅻ", "½x"],
    )
    def test_edge_cases(self, source):
        assert _outcome(tokenize, source) == _outcome(_oracle_tokenize, source)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bundled_models(self, name):
        source = get_source(name)
        assert _outcome(tokenize, source) == _outcome(_oracle_tokenize, source)

    @pytest.mark.parametrize("absorbing", [True, False])
    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("mapping", [MAPPING_A, MAPPING_B], ids=["A", "B"])
    def test_machine_sources(self, mapping, machine, absorbing):
        source = machine_model_source(mapping, machine, synthetic_workload(), absorbing)
        assert _outcome(tokenize, source) == _outcome(_oracle_tokenize, source)
