import json

import numpy as np
import pytest

from ergosmp import ConfigError, ConvexSet, ModelSpec, load_model_config, model_config_dict, save_model_config
from ergosmp.config import parse_model_config

LQ3 = dict(A=[[-1.0, 0.4, 0.0], [0.0, -1.2, 0.4], [0.0, 0.0, -0.8]], B=[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
           S=[[0.6, 0.0], [0.3, 0.5], [0.0, 0.4]], Q=np.eye(3), R=np.eye(2))
MODELS = {
    "lq1": ModelSpec.lq1,
    "cubic1": ModelSpec.cubic1,
    "lq3": lambda: ModelSpec.lq(**LQ3, control_set=ConvexSet.box([-5.0, -5.0], [5.0, 5.0])),
    "lq3box": lambda: ModelSpec.lq(**LQ3, control_set=ConvexSet.box([-0.3, -0.15], [0.25, 0.2])),
    "cubic2ball": lambda: ModelSpec.cubic(
        [1.0, 0.5], A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0, 0.0], [0.5, 1.0]], S=[[0.8, 0.0], [0.2, 0.6]],
        Q=np.eye(2), R=np.eye(2), control_set=ConvexSet.ball([0.1, -0.1], 0.6)),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_config_round_trip_is_identity(name, tmp_path):
    model = MODELS[name]()
    obj = model_config_dict(model)
    assert set(obj) == {"A", "B", "Sigma", "Q", "R", "control_set"} | ({"cubic"} if model.has_cubic else set())
    back = parse_model_config(json.loads(json.dumps(obj)))
    assert model_config_dict(back) == obj
    for field in ("A", "B", "S", "Q", "R", "alpha"):
        assert getattr(back, field).tobytes() == getattr(model, field).tobytes(), field
    assert back.control_set.describe() == model.control_set.describe()
    path = tmp_path / "model.json"
    save_model_config(model, str(path))
    text = path.read_text()
    save_model_config(load_model_config(str(path)), str(path))
    assert path.read_text() == text


def test_old_format_config_names_its_stale_keys():
    # Before the structural constants were derived a config also stated the
    # family, the dimensions and (m, p, k).
    old = {**model_config_dict(ModelSpec.lq1()), "family": "lq", "n": 1, "d": 1, "l": 1, "m": 0, "p": 6.0, "k": 3.0}
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['d', 'family', 'k', 'l', 'm', 'n', 'p'\]"):
        parse_model_config(old)


def test_cubic_config_with_zero_alpha_saves_as_lq():
    obj = model_config_dict(ModelSpec.cubic1())
    obj["cubic"] = [0.0]
    saved = model_config_dict(parse_model_config(obj))
    assert "cubic" not in saved
    assert saved == model_config_dict(ModelSpec.lq1())


def test_family_decides_the_cubic_key():
    # The cubic key makes a model cubic and its absence makes it LQ; the
    # dimensions come from the arrays, so a wrong-length alpha is a shape error.
    obj = model_config_dict(ModelSpec.cubic1())
    assert parse_model_config(obj).has_cubic
    del obj["cubic"]
    assert not parse_model_config(obj).has_cubic
    with pytest.raises(ConfigError, match=r"alpha \(cubic\): expected shape \(1,\)"):
        parse_model_config({**obj, "cubic": [1.0, 1.0]})
    with pytest.raises(ConfigError, match=r"missing key\(s\) \['Sigma'\]"):
        parse_model_config({key: value for key, value in obj.items() if key != "Sigma"})
