import pathlib
import re
import shlex

from mvcontrast.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL)


def test_library_quick_start_runs(capsys):
    assert len(blocks("python")) == 1
    exec(compile(blocks("python")[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("Train-2\n")


def test_example_config_runs_every_command_line(tmp_path, monkeypatch, capsys):
    (config,) = blocks("json")
    lines = [shlex.split(line, comments=True) for text in blocks("sh")
             for line in text.splitlines() if line.startswith("mvcontrast ")]
    assert [argv[1] for argv in lines] == ["synth", "train", "eval", "eval",
                                           "gradcheck", "diagnose"]
    writing = [argv for argv in lines if "--out" in argv]
    trees = []
    # a rerun of the writing lines in a second directory writes the same
    # files, byte for byte
    for run, argvs in (("first", lines), ("second", writing)):
        (tmp_path / run).mkdir()
        (tmp_path / run / "cfg.json").write_text(config, encoding="utf-8")
        monkeypatch.chdir(tmp_path / run)
        for argv in argvs:
            assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        trees.append({path.relative_to(tmp_path / run).as_posix(): path.read_bytes()
                      for path in (tmp_path / run).rglob("*") if path.is_file()})
    first, second = trees
    assert sorted(first) == sorted(second)
    assert [name for name in sorted(first) if first[name] != second[name]] == []
