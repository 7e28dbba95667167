"""Parsers and loaders fed arbitrary bytes raise only their typed error.

Each input either parses or raises the one DualcapError its caller maps
to an exit code: DataError for images and caption files, ConfigError
for config files, VocabError for vocabularies.  Inputs mix raw bytes
with near-valid ones (a netpbm magic and header, text lines built from
the characters the parsers split on), so the fuzzing reaches past the
first check.  Runs are derandomized and keep no example database.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dualcap.cli import parse_config_file
from dualcap.data import parse_caption_file, parse_netpbm
from dualcap.errors import ConfigError, DataError, VocabError
from dualcap.textdec import Vocabulary

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)

NETPBM_STARTS = (b"", b"P5", b"P6", b"P5 2 2 255\n", b"P6 1 1 1 ", b"P5 #c\n3 1\n4\n")
netpbm_bytes = st.builds(lambda head, rest: head + rest, st.sampled_from(NETPBM_STARTS), st.binary(max_size=64))
# lines from the characters the text parsers split on, plus invalid UTF-8 bytes
text_lines = st.lists(st.text(alphabet="ab <>\t=#.\r\x1c\xe9", max_size=12), max_size=6).map(
    lambda lines: "\n".join(lines).encode("utf-8")
)
text_bytes = st.one_of(st.binary(max_size=64), text_lines, st.builds(bytes.__add__, text_lines, st.binary(max_size=4)))


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@FUZZ
@given(data=netpbm_bytes)
def test_parse_netpbm(data):
    try:
        pixels, maxval = parse_netpbm(data)
    except DataError:
        return
    assert pixels.ndim == 3 and pixels.max(initial=0) <= maxval


@FUZZ
@given(data=text_bytes)
def test_parse_caption_file(text_file, data):
    text_file.write_bytes(data)
    try:
        pairs = parse_caption_file(text_file)
    except DataError:
        return
    assert pairs and all(name and caption for name, caption in pairs)


@FUZZ
@given(data=text_bytes)
def test_parse_config_file(text_file, data):
    text_file.write_bytes(data)
    try:
        parse_config_file(text_file)
    except ConfigError:
        pass


@FUZZ
@given(data=text_bytes)
def test_vocabulary_load(text_file, data):
    text_file.write_bytes(data)
    try:
        vocab = Vocabulary.load(text_file)
    except VocabError:
        return
    assert len(vocab) >= 4
