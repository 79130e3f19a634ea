"""Every text reader and the CLI read a file alike: LF, CRLF and a lone CR
each end one line in every text format but CSV, which takes LF and CRLF.
Arbitrary text edited from a valid file fails only with the reader's own
error, naming a line of the text."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from firedss import cli, data_path, data_text, fwi, ingest, retrieval, rules, semweb
from firedss._syntax import key_values

HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area"
ROW = "8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0"
EX = "http://example.org/forest#"


def _key_value_lines(text):
    def fail(lineno, message):
        return ValueError(f"{lineno}: {message}")
    list(key_values(text, fail))


# format -> (LF text with a syntax error on line 3, the library's reader,
# the CLI arguments that read the file at a path or None, the error). The
# CLI reads a query file with the bundled graph and a graph file with the
# bundled query; facts have no command.
PARITY = {
    "csv": (f"{HEADER}\n{ROW}\n{ROW.replace('24.1', 'hot')}\n", ingest.parse_dataset,
            lambda path: ["convert", path, path + ".nt"],
            "line 3, column temp: cannot parse 'hot'"),
    "ntriples": (f'<{EX}s> <{EX}p> "1" .\n# a comment\n<{EX}s> <{EX}p> .\n',
                 semweb.parse_ntriples,
                 lambda path: ["query", path, str(data_path("hot_dry_regions.rq"))],
                 "line 3: malformed triple"),
    "rules": ("# alerts\nrule a: when A(?x) then assert B(?x)  # one\n"
              "rule b: when A(?x) $ then assert C(?x)\n", rules.parse_rules,
              lambda path: ["rules-check", path],
              "line 3, column 20: unexpected character '$'"),
    "facts": ('A(a)\n# a comment\nhasName(b, "x") $\n', rules.parse_facts, None,
              "line 3, column 17: unexpected character '$'"),
    "query": (f"PREFIX ex: <{EX}>\nSELECT ?a # the areas\nWHERE {{ ?a $ ?b }}\n",
              semweb.parse_query,
              lambda path: ["query", str(data_path("regions_fixture.nt")), path],
              "line 3, column 12: unexpected character '$'"),
    "bands": ("# bands\n# one key a line\nbui_class = 40:low, x:moderate, inf:high\n"
              + data_text("default.bands"), fwi.load_bands,
              lambda path: ["bands", "check", "--bands", path],
              "line 3: bad band 'x:moderate'"),
    "config": ("# run settings\nseed = 1\nturbo\n", _key_value_lines,
               lambda path: ["--config", path, "bands", "print"],
               "3: expected 'key = value'"),
    "corpus": ('{"id": "a", "text": "x"}\n\n{"id": "b", "text": }\n', retrieval.load_corpus,
               lambda path: ["retrieve", "x", "--corpus", path],
               "corpus line 3: Expecting value: line 1 column 21 (char 20)"),
}
CSV_LONE_CR = ("line 1: new-line character seen in unquoted field - "
               "do you need to open the file in universal-newline mode?")


def _outcome(read, text, error=ValueError):
    """None if `read(text)` succeeds, else the text of its error, which
    must be an `error`."""
    try:
        read(text)
    except error as exc:
        return str(exc)
    return None


def _cli(capsys, argv, path):
    code = cli.main(argv)
    err = capsys.readouterr().err
    if code == 0:
        return None
    # a config error names the file before its line
    return err.removeprefix("firedss: error: ").removesuffix("\n").replace(f"{path}:", "")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name", PARITY)
def test_library_and_cli_read_each_line_end_alike(capsys, tmp_path, name, end):
    text, read, argv, error = PARITY[name]
    text = text.replace("\n", end)
    if name == "csv" and end == "\r":
        error = CSV_LONE_CR
    assert _outcome(read, text) == error
    if argv is not None:
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        assert _cli(capsys, argv(str(path)), str(path)) == error


# --- arbitrary text ------------------------------------------------------------

# CR, CRLF and LF end a line; str.splitlines also breaks at the others
LINE_ENDS = ["\r", "\r\n", "\n"]
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x85", "\u2028", " "]
_LINE_END = re.compile(r"\r\n?|\n")


@st.composite
def edits(draw, seed, fragments):
    """The seed text, each of its line ends drawn anew, under a few
    insertions, half of them line ends and other whitespace, each replacing
    up to 8 characters or none."""
    pieces = st.sampled_from(fragments) | st.sampled_from(LINE_ENDS + NOT_LINE_ENDS)
    first, *rest = seed.split("\n")
    text = first + "".join(draw(st.sampled_from(LINE_ENDS)) + line for line in rest)
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.sampled_from([0, 0, 1, 8]))
        text = text[:at] + draw(pieces) + text[at + cut:]
    return text


def _check(read, text, error, line_of):
    """`read` fails on `text` only with `error`, naming a line of it, and
    reads `text` as it reads its LF form. If it reads `text`, a last line
    `x`, which no format takes, fails on that line."""
    message = _outcome(read, text, error)
    assert message == _outcome(read, _LINE_END.sub("\n", text), error)
    if message is None:
        text += "\nx"
        message = _outcome(read, text, error)
        assert message is not None
        assert int(line_of.search(message).group(1)) == len(_LINE_END.split(text)), message
    m = line_of.search(message)
    assert m is not None, message
    assert 1 <= int(m.group(1)) <= len(_LINE_END.split(text)), message


NT_SEED = "\n".join(data_text("regions_fixture.nt").splitlines()[:3]) + "\n# end\n"
NT_FRAGMENTS = ["<", ">", '"', "\\", ".", "^^", "#", "\t", f"<{EX}x>", '"29"', '"a\\rb"',
                "^^<http://www.w3.org/2001/XMLSchema#integer>", "\\u00e9", "é"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits(NT_SEED, NT_FRAGMENTS))
def test_arbitrary_ntriples_fail_only_with_a_graph_error_naming_a_line(text):
    _check(semweb.parse_ntriples, text, semweb.GraphError, re.compile(r"^line (\d+): "))


BANDS_FRAGMENTS = ["=", ",", ":", "&", "#", "inf", "nan", "-1", "40", "low", "trigger",
                   "bui_class", "fwi_class = 5:low, inf:high", "trigger ="]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits(data_text("default.bands"), BANDS_FRAGMENTS))
def test_arbitrary_bands_fail_only_with_a_band_error_naming_a_line(text):
    _check(fwi.load_bands, text, fwi.BandConfigError, re.compile(r"^line (\d+): "))


CONFIG_SEED = "# run settings\ndataset = x.csv\nbatch_size = 20\nseed = 1\n"
CONFIG_FRAGMENTS = ["=", "#", "seed", "batch_size", "embed_dim", "corpus", "turbo", "12",
                    "-3", "x", "٢"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(edits(CONFIG_SEED, CONFIG_FRAGMENTS))
def test_arbitrary_config_fails_only_with_a_cli_error_naming_a_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "arbitrary.conf"

    def load(text):
        path.write_bytes(text.encode("utf-8"))
        return cli.load_config(str(path))
    _check(load, text, cli.CliError, re.compile(rf"^{re.escape(str(path))}:(\d+): "))


CORPUS_SEED = ('{"id": "a", "text": "dry fuel", "metadata": {"group": "g"}}\n\n'
               '{"id": "b", "text": "wind"}\n')
CORPUS_FRAGMENTS = ["{", "}", '"', ":", ",", '"id"', '"text"', '"metadata"', "[]", "null",
                    '"a"', "\\n", "\\u2028", "\\ud800"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits(CORPUS_SEED, CORPUS_FRAGMENTS))
def test_arbitrary_corpus_fails_only_with_a_retrieval_error_naming_a_line(text):
    _check(retrieval.load_corpus, text, retrieval.RetrievalError,
           re.compile(r"^corpus line (\d+): "))
