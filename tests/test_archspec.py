import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_lists, flatten, one_site_broken
from regionbound import archspec
from regionbound.archspec import ArchSpecError


def mlp_doc(n0, widths):
    blocks = [{"dense": {"out": w, "relu": True}} for w in widths]
    blocks.append({"dense": {"out": 1, "relu": False}})
    return {"input": {"nodes": n0}, "blocks": blocks}


class TestParse:
    def test_minimal_mlp(self):
        spec = archspec.parse(json.dumps(mlp_doc(10, [10, 10])))
        assert spec.input_nodes == 10
        assert spec.blocks[0] == archspec.Dense(10, True)
        assert spec.blocks[-1] == archspec.Dense(1, False)

    def test_roundtrip(self):
        for spec in (archspec.unet_small(), archspec.resnet_small(),
                     archspec.mlp(10, 6, 2)):
            assert archspec.parse(archspec.render(spec)) == spec

    def test_unknown_block_kind(self):
        doc = {"input": {"nodes": 3}, "blocks": [{"swish": {}}]}
        with pytest.raises(ArchSpecError, match="blocks\\[0\\].*unknown"):
            archspec.parse(doc)

    def test_unknown_field_rejected(self):
        doc = {"input": {"nodes": 3},
               "blocks": [{"dense": {"out": 2, "relu": True, "bias": 1}}]}
        with pytest.raises(ArchSpecError, match="unknown field"):
            archspec.parse(doc)

    def test_missing_field(self):
        doc = {"input": {"nodes": 3}, "blocks": [{"dense": {"out": 2}}]}
        with pytest.raises(ArchSpecError, match="missing field 'relu'"):
            archspec.parse(doc)

    def test_degenerate_maxpool(self):
        doc = {"input": {"channels": 1, "height": 4, "width": 4},
               "blocks": [{"maxpool": {"window": 1}}]}
        with pytest.raises(ArchSpecError, match="degenerate maxout"):
            archspec.parse(doc)

    @pytest.mark.parametrize("inp", [
        {"nodes": True},
        {"channels": True, "height": 4, "width": 4},
        {"channels": 1, "height": True, "width": 4},
        {"channels": 1, "height": 4, "width": True},
    ])
    def test_bool_input_size_rejected(self, inp):
        doc = {"input": inp, "blocks": [{"dense": {"out": 1, "relu": False}}]}
        with pytest.raises(ArchSpecError, match="must be a positive integer"):
            archspec.parse(doc)

    def test_malformed_json(self):
        with pytest.raises(ArchSpecError, match="malformed JSON"):
            archspec.parse("{not json")

    def test_integer_past_digit_limit(self):
        # json.loads raises a plain ValueError for a 5000-digit integer
        with pytest.raises(ArchSpecError, match="malformed JSON"):
            archspec.parse('{"input": {"nodes": 1' + "1" * 5000
                           + '}, "blocks": []}')

    def test_even_kernel_rejected(self):
        doc = {"input": {"channels": 1, "height": 8, "width": 8},
               "blocks": [{"conv": {"out_channels": 2, "kernel": 2,
                                    "stride": 1, "padding": 1,
                                    "relu": True}}]}
        with pytest.raises(ArchSpecError, match="kernel"):
            archspec.parse(doc)


arch_docs = one_site_broken(st.fixed_dictionaries({
    "input": st.fixed_dictionaries({"nodes": st.integers(1, 40)})
    | st.fixed_dictionaries({"channels": st.integers(1, 3),
                             "height": st.integers(1, 16),
                             "width": st.integers(1, 16)}),
    "blocks": block_lists}))


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(arch_docs)
    def test_documents_parse_or_raise_archspec_error(self, doc):
        for arg in (doc, json.dumps(doc)):
            try:
                archspec.parse(arg)
            except ArchSpecError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    def test_text_parses_or_raises_archspec_error(self, text):
        try:
            archspec.parse(text)
        except ArchSpecError:
            pass


class TestResolve:
    def test_conv_lowering(self):
        doc = {"input": {"channels": 1, "height": 24, "width": 24},
               "blocks": [{"conv": {"out_channels": 4, "kernel": 3,
                                    "stride": 1, "padding": 1,
                                    "relu": True}}]}
        stages = archspec.resolve(archspec.parse(doc))
        assert stages[0].kind == "dense"
        assert (stages[0].n_in, stages[0].n_out) == (576, 2304)

    def test_avgpool_rank(self):
        doc = {"input": {"channels": 4, "height": 24, "width": 24},
               "blocks": [{"avgpool": {"factor": 2}}]}
        st = archspec.resolve(archspec.parse(doc))[0]
        assert (st.kind, st.n_in, st.n_out, st.relu) == \
            ("dense", 2304, 576, False)

    def test_unpool_rank(self):
        doc = {"input": {"channels": 4, "height": 6, "width": 6},
               "blocks": [{"unpool": {"factor": 2}}]}
        st = archspec.resolve(archspec.parse(doc))[0]
        assert (st.kind, st.n_in, st.n_out, st.relu) == \
            ("dense", 144, 576, False)

    def test_maxpool_rank(self):
        doc = {"input": {"channels": 2, "height": 4, "width": 4},
               "blocks": [{"maxpool": {"window": 2}}]}
        st = archspec.resolve(archspec.parse(doc))[0]
        assert (st.kind, st.n_in, st.n_out, st.k) == ("maxpool", 32, 8, 4)

    def test_nondivisible_pooling_rejected(self):
        doc = {"input": {"channels": 1, "height": 5, "width": 5},
               "blocks": [{"avgpool": {"factor": 2}}]}
        with pytest.raises(ArchSpecError, match="not divisible"):
            archspec.resolve(archspec.parse(doc))

    def test_residual_dim_mismatch_rejected(self):
        doc = {"input": {"nodes": 4},
               "blocks": [{"residual": {"body": [
                   {"dense": {"out": 3, "relu": True}}]}}]}
        with pytest.raises(ArchSpecError, match="residual body"):
            archspec.resolve(archspec.parse(doc))

    def test_deterministic(self):
        spec = archspec.unet_small()
        assert archspec.resolve(spec) == archspec.resolve(spec)

    def test_skip_widens_ambient(self):
        doc = {"input": {"nodes": 4},
               "blocks": [{"skip": {"body": [
                   {"dense": {"out": 3, "relu": True}}]}}]}
        st = archspec.resolve(archspec.parse(doc))[0]
        assert (st.kind, st.n_in, st.n_out) == ("skip", 4, 7)


class TestBuiltins:
    def test_mlp_family(self):
        spec = archspec.mlp(10, 10, 10)
        stages = archspec.resolve(spec)
        assert len(stages) == 11
        assert all(s.n_out == 10 for s in stages[:-1])
        assert stages[-1].relu is False

    def test_unknown_name(self):
        with pytest.raises(ArchSpecError, match="unknown builtin"):
            archspec.builtin("transformer_xl")

    def test_unet_is_three_level(self):
        stages = archspec.resolve(archspec.builtin("unet_small"))
        outer = next(s for s in stages if s.kind == "skip")
        inner = next(s for s in outer.body if s.kind == "skip")
        assert inner.body  # nested skip present

    def test_ae_matches_unet_without_skips(self):
        unet = flatten(archspec.resolve(archspec.builtin("unet_small")))
        ae = archspec.resolve(archspec.builtin("ae_small"))
        assert [(s.kind, s.n_out, s.relu, s.k) for s in unet] == \
            [(s.kind, s.n_out, s.relu, s.k) for s in ae]

    def test_node_arithmetic(self):
        stages = archspec.resolve(archspec.builtin("resnet_small"))
        assert stages[0].n_in == 64  # 1*8*8
        assert stages[0].n_out == 128  # 2*8*8
        residuals = [s for s in stages if s.kind == "residual"]
        assert len(residuals) == 2
        assert all(s.n_in == s.n_out == 64 for s in residuals)
