import pytest

from noisecycle import BpDecoder, OrbgrandDecoder, SgrandabDecoder
from noisecycle.configio import (check_code, load_channel_model, load_code,
                                 load_decoder, load_pipeline)


class TestDecoderTable:
    def test_each_type_builds_its_class(self):
        assert load_decoder({"type": "orbgrand", "max_queries": 7}) == OrbgrandDecoder(7)
        assert load_decoder({"type": "sgrandab", "max_queries": 9}) == SgrandabDecoder(9)
        assert load_decoder({"type": "bp", "max_iters": 3}) == BpDecoder(3)

    def test_bp_iterations_default(self):
        assert load_decoder({"type": "bp"}) == BpDecoder(50)

    def test_unknown_type_named(self):
        with pytest.raises(ValueError, match="'gnd'"):
            load_decoder({"type": "gnd", "max_queries": 7})

    @pytest.mark.parametrize("spec, field", [
        ({"type": "orbgrand", "max_queries": 0}, "max_queries"),
        ({"type": "sgrandab", "max_queries": -1}, "max_queries"),
        ({"type": "bp", "max_iters": 0}, "max_iters"),
    ])
    def test_limit_below_one_rejected(self, spec, field):
        with pytest.raises(ValueError, match=field):
            load_decoder(spec)


class TestUnknownKeys:
    """A key a descriptor does not know is an error naming the descriptor
    and the key, never a silently defaulted setting."""

    def test_decoder(self):
        with pytest.raises(ValueError, match="orbgrand decoder.*'max_querys'"):
            load_decoder({"type": "orbgrand", "max_querys": 7})

    def test_decoder_field_of_another_type(self):
        with pytest.raises(ValueError, match="bp decoder.*'max_queries'"):
            load_decoder({"type": "bp", "max_queries": 7})

    def test_code(self):
        spec = {"type": "rlc", "n": 16, "k": 8, "seed": 1, "crc_poly": "111"}
        with pytest.raises(ValueError, match="rlc code.*'crc_poly'"):
            load_code(spec)

    def test_code_checked_without_building(self):
        assert check_code({"type": "ldpc", "n": 24, "col_weight": 3,
                           "row_weight": 6, "seed": 1, "label": "x"}) == "ldpc"
        with pytest.raises(ValueError, match="ldpc code.*'k'"):
            check_code({"type": "ldpc", "n": 24, "k": 12, "col_weight": 3,
                        "row_weight": 6, "seed": 1})

    def test_pipeline(self):
        spec = {"mode": "static", "forced-lead": 2, "rerecylce": True}
        with pytest.raises(ValueError, match="pipeline.*'forced-lead', 'rerecylce'"):
            load_pipeline(spec)

    def test_pipeline_parents_allowed(self):
        pipe = load_pipeline({"mode": "static", "parents": [0, 1], "rerecycle": True})
        assert pipe.rerecycle

    def test_channel(self):
        with pytest.raises(ValueError, match="gm channel.*'rh0'"):
            load_channel_model({"m": 2, "mode": "gm", "rho": 0.5, "rh0": 0.5})

    def test_channel_key_of_other_mode(self):
        with pytest.raises(ValueError, match="gm channel.*'corr'"):
            load_channel_model({"m": 2, "mode": "gm", "rho": 0.5,
                                "corr": [[1, 0], [0, 1]]})


class TestMissingKeys:
    @pytest.mark.parametrize("loader, spec", [(load_decoder, {"max_queries": 7}),
                                              (load_code, {})])
    def test_type_named(self, loader, spec):
        with pytest.raises(ValueError, match="key 'type' must be one of .*got None"):
            loader(spec)

    @pytest.mark.parametrize("loader, spec, key", [
        (load_decoder, {"type": "sgrandab"}, "'max_queries'"),
        (load_code, {"type": "rlc", "n": 16, "seed": 1}, "'k'"),
        (load_code, {"type": "alist"}, "'alist_path'"),
        (load_channel_model, {"mode": "gm", "rho": 0.5}, "'m'"),
        (load_channel_model, {"m": 2, "mode": "gm"}, "'rho'"),
        (load_channel_model, {"m": 2}, "'corr'"),
    ])
    def test_named(self, loader, spec, key):
        with pytest.raises(ValueError, match=f"missing key.*{key}"):
            loader(spec)
