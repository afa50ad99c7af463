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
    (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for text in blocks("sh")
             for line in text.splitlines() if line.startswith("mvcontrast ")]
    assert [argv[1] for argv in lines] == ["synth", "train", "eval", "eval",
                                           "gradcheck", "diagnose"]
    for argv in lines:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
