"""Fuzz the matrix-file and model readers through `mvcontrast eval`.

Whatever a view, label or projection file holds, the CLI must end with one
of its exit codes; any other exception escaping `cli.main` fails the test.
"""

import contextlib
import io
import os
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mvcontrast.cli import main
from test_cli import write_file_dataset

# file name -> (rows, columns) of its valid content
SHAPES = {"view0.csv": (8, 4), "labels.csv": (8, 1),
          "projection_view0.csv": (4, 2)}

CELLS = st.one_of(
    st.sampled_from(["", " ", "#", "# 1", "x", "1e999", "-0", "0x1", "1_0",
                     "nan", "-inf", "\t2", "3 ", "1.5", "\"1\""]),
    st.integers(-2, 2).map(str),
    st.floats().map(repr))


def file_text(shape):
    rows, cols = shape

    def row(n):
        return st.lists(CELLS, min_size=n, max_size=n).map(",".join)

    shaped = st.lists(row(cols), min_size=rows, max_size=rows)
    loose = st.lists(st.integers(0, cols + 1).flatmap(row), max_size=rows + 1)
    return st.one_of(st.text(), shaped.map("\n".join), loose.map("\n".join))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_eval_exits_cleanly_on_arbitrary_files(data):
    name = data.draw(st.sampled_from(sorted(SHAPES)), label="file")
    text = data.draw(file_text(SHAPES[name]), label="text")
    with tempfile.TemporaryDirectory() as root:
        cfg, _, _ = write_file_dataset(pathlib.Path(root))
        folder = "model" if name.startswith("projection") else "data"
        with open(os.path.join(root, folder, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        for extra in ([], ["--model", os.path.join(root, "model")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["eval", "--config", cfg,
                             "--out", os.path.join(root, "r"), *extra])
            assert code in {0, 1, 2, 3}
