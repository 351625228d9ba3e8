"""SchedArgs validation."""

import pytest

from repro.core import SchedArgs


class TestDefaults:
    def test_paper_defaults(self):
        args = SchedArgs()
        assert args.num_threads == 1
        assert args.chunk_size == 1
        assert args.extra_data is None
        assert args.num_iters == 1

    def test_repro_extension_defaults(self):
        args = SchedArgs()
        assert args.block_size is None
        assert args.engine == "serial"
        assert args.map_path == "auto"
        assert args.copy_input is False
        assert args.disable_early_emission is False
        assert args.buffer_capacity == 4


class TestEngineField:
    def test_default_resolves_to_serial(self):
        assert SchedArgs().resolved_engine == "serial"

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_known_engines_accepted(self, name):
        assert SchedArgs(engine=name).resolved_engine == name

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SchedArgs(engine="cuda")

    @pytest.mark.parametrize("spelling", ["use_threads", "vectorized"])
    def test_removed_spellings_rejected(self, spelling):
        with pytest.raises(TypeError, match=spelling):
            SchedArgs(**{spelling: True})


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_threads=0),
            dict(chunk_size=0),
            dict(num_iters=0),
            dict(block_size=0),
            dict(buffer_capacity=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchedArgs(**kwargs)

    def test_valid_accepted(self):
        SchedArgs(num_threads=8, chunk_size=16, num_iters=10, block_size=1024)
