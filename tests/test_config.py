import os
import subprocess
import sys
from pathlib import Path

import pytest

import mzdmd
from mzdmd import ConfigError, default_config
from mzdmd.config import build_config, read_config


def write_cfg(tmp_path, text):
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return path


class TestDefaults:
    def test_paper_defaults(self):
        cfg = default_config()
        assert cfg.sim.dt == 0.1
        assert cfg.sim.t_max == 50.0
        assert cfg.sim.n_points == 501
        assert cfg.sim.sigma == 1.0
        assert cfg.sim.n_mc == 1000
        assert cfg.n_u == 100
        assert cfg.adam.learning_rate == 1e-3
        assert cfg.adam.iterations == 5
        assert cfg.resolved_init == (1.0, 0.0)

    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = build_config(read_config(write_cfg(tmp_path, "")))
        assert cfg == default_config()

    def test_comment_only_file(self, tmp_path):
        cfg = build_config(read_config(write_cfg(tmp_path, "# nothing here\n\n   # still nothing\n")))
        assert cfg == default_config()


class TestParsing:
    def test_round_trip_values(self, tmp_path):
        cfg = build_config(read_config(
            write_cfg(
                tmp_path,
                "dt = 0.2\n"
                "t_max = 10\n"
                "n_points = 51\n"
                "sigma = 0.5\n"
                "n_mc = 10\n"
                "n_u = 3\n"
                "seed = 99\n"
                "lr = 0.01\n"
                "iterations = 2\n"
                "method = t-model\n"
                "resolved_init = 0.5, -0.5\n"
                "output_dir = /tmp/somewhere\n"
                "emit_plots = true\n",
            )
        ))
        assert cfg.sim.dt == 0.2 and cfg.sim.n_points == 51 and cfg.sim.seed == 99
        assert cfg.adam.learning_rate == 0.01 and cfg.adam.iterations == 2
        assert cfg.method == "t-model"
        assert cfg.resolved_init == (0.5, -0.5)
        assert str(cfg.output_dir) == "/tmp/somewhere"
        assert cfg.emit_plots is True

    def test_inline_comments_and_spacing(self, tmp_path):
        cfg = build_config(read_config(write_cfg(tmp_path, "  seed=5   # master seed\n")))
        assert cfg.sim.seed == 5

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("Yes", True), ("ON", True), ("1", True),
        ("false", False), ("No", False), ("OFF", False), ("0", False),
    ])
    def test_boolean_spellings(self, tmp_path, text, value):
        assert build_config(read_config(write_cfg(tmp_path, f"emit_plots = {text}\n"))).emit_plots is value

    def test_resolved_init_space_separated(self, tmp_path):
        cfg = build_config(read_config(write_cfg(tmp_path, "resolved_init = 2 3\n")))
        assert cfg.resolved_init == (2.0, 3.0)

    @pytest.mark.parametrize("head", [b"", b"\xef\xbb\xbf"], ids=["utf-8", "utf-8 with a byte-order mark"])
    def test_utf8_file(self, tmp_path, head):
        path = tmp_path / "experiment.cfg"
        path.write_bytes(head + "dt = 0.1  # Schrittweite, größer wird's ungenau\nseed = 3\n".encode())
        assert read_config(path) == {"dt": 0.1, "seed": 3}

    def test_utf8_file_in_an_ascii_locale(self, tmp_path):
        # the C locale without UTF-8 mode decodes text files as ASCII unless
        # the reader names its encoding
        path = tmp_path / "experiment.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 3  # gr\xc3\xb6\xc3\x9fer\n")
        src = str(Path(mzdmd.__file__).parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
        code = "import sys; from mzdmd.config import read_config; print(read_config(sys.argv[1]))"
        run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "{'seed': 3}\n"), run.stderr


class TestErrors:
    def test_negative_dt_names_field(self, tmp_path):
        path = write_cfg(tmp_path, "dt = -1\nt_max = -500\n")
        with pytest.raises(ConfigError, match="dt"):
            build_config(read_config(path))

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="foo"):
            build_config(read_config(write_cfg(tmp_path, "foo = 1\n")))

    @pytest.mark.parametrize("key", ["beta1", "beta2", "epsilon"])
    def test_fixed_adam_constants_are_unknown_keys(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            build_config(read_config(write_cfg(tmp_path, f"{key} = 0.9\n")))

    def test_empty_output_dir_is_refused(self, tmp_path):
        # Path("") is ".", which would write the outputs into the cwd
        with pytest.raises(ConfigError, match="line 2: invalid value for 'output_dir'") as excinfo:
            build_config(read_config(write_cfg(tmp_path, "seed = 1\noutput_dir =\n")))
        assert excinfo.value.line == 2

    def test_empty_output_dir_key_is_refused(self):
        with pytest.raises(ConfigError, match="output_dir"):
            build_config({"output_dir": ""})
        assert str(build_config({"output_dir": "."}).output_dir) == "."

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 3") as excinfo:
            build_config(read_config(write_cfg(tmp_path, "seed = 1\n# ok\nnot a pair\n")))
        assert excinfo.value.line == 3

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match="n_points"):
            build_config(read_config(write_cfg(tmp_path, "n_points = many\n")))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            build_config(read_config(write_cfg(tmp_path, "seed = 1\nseed = 2\n")))

    def test_bad_method(self, tmp_path):
        # refused by ExperimentConfig, like n_u = 0, so no line is named
        with pytest.raises(ConfigError, match="^method must be one of ") as excinfo:
            build_config(read_config(write_cfg(tmp_path, "method = nonsense\n")))
        assert excinfo.value.line is None

    def test_inconsistent_grid(self, tmp_path):
        with pytest.raises(ConfigError, match="t_max"):
            build_config(read_config(write_cfg(tmp_path, "dt = 0.05\n")))

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ConfigError, match="emit_plots"):
            build_config(read_config(write_cfg(tmp_path, "emit_plots = maybe\n")))

    def test_bad_resolved_init(self, tmp_path):
        with pytest.raises(ConfigError, match="resolved_init"):
            build_config(read_config(write_cfg(tmp_path, "resolved_init = 1 2 3\n")))

    def test_negative_seed_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"seed": -3})
        with pytest.raises(ConfigError, match="seed"):
            build_config(read_config(write_cfg(tmp_path, "seed = -1\n")))

    @pytest.mark.parametrize("overrides, match", [
        ({"n_u": 0}, "^n_u must be at least 1$"),
        ({"beta1": 0.9, "bogus": 1}, "^unknown keys: beta1, bogus$"),
        ({"method": "bogus"}, "^method must be one of "),
    ], ids=["zero n_u", "unknown keys", "unknown method"])
    def test_build_config_refuses(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            build_config(overrides)

    def test_zero_seed_accepted(self):
        assert build_config({"seed": 0}).sim.seed == 0


@pytest.mark.parametrize("line, field", [
    ("t_max = nan", "t_max"),
    ("t_max = inf", "t_max"),
    ("sigma = nan", "sigma"),
    ("sigma = inf", "sigma"),
    ("lr = nan", "learning_rate"),
    ("lr = inf", "learning_rate"),
    ("resolved_init = nan 0", "resolved_init"),
    ("resolved_init = 0 -inf", "resolved_init"),
])
def test_non_finite_value_names_field(tmp_path, line, field):
    with pytest.raises(ConfigError, match=field):
        build_config(read_config(write_cfg(tmp_path, line + "\n")))
