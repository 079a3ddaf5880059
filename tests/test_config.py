import json

import numpy as np
import pytest

from ergosmp import ConfigError, ConvexSet, ModelSpec, load_model_config, model_config_dict, save_model_config
from ergosmp.config import parse_model_config

MODELS = {
    "lq1": ModelSpec.lq1,
    "cubic1": ModelSpec.cubic1,
    "lq3": lambda: ModelSpec.lq(
        A=[[-1.0, 0.4, 0.0], [0.0, -1.2, 0.4], [0.0, 0.0, -0.8]], B=[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
        S=[[0.6, 0.0], [0.3, 0.5], [0.0, 0.4]], Q=np.eye(3), R=np.eye(2),
        control_set=ConvexSet.box([-5.0, -5.0], [5.0, 5.0])),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_config_round_trip_is_identity(name, tmp_path):
    model = MODELS[name]()
    obj = model_config_dict(model)
    back = parse_model_config(json.loads(json.dumps(obj)))
    assert model_config_dict(back) == obj
    for field in ("A", "B", "S", "Q", "R", "alpha"):
        assert getattr(back, field).tobytes() == getattr(model, field).tobytes(), field
    assert (back.m, back.p, back.k) == (model.m, model.p, model.k)
    path = tmp_path / "model.json"
    save_model_config(model, str(path))
    text = path.read_text()
    save_model_config(load_model_config(str(path)), str(path))
    assert path.read_text() == text


def test_cubic_config_with_zero_alpha_saves_as_lq():
    obj = model_config_dict(ModelSpec.cubic1())
    obj["cubic"] = [0.0]
    saved = model_config_dict(parse_model_config(obj))
    assert saved["family"] == "lq"
    assert "cubic" not in saved


def test_family_decides_the_cubic_key():
    obj = model_config_dict(ModelSpec.cubic1())
    with pytest.raises(ConfigError, match="unknown key"):
        parse_model_config({**obj, "family": "lq"})
    del obj["cubic"]
    with pytest.raises(ConfigError, match="missing key"):
        parse_model_config(obj)
    with pytest.raises(ConfigError, match="family must be"):
        parse_model_config({**obj, "family": "quartic"})
