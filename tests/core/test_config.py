"""Tests for ActorConfig validation."""

import pickle
from dataclasses import asdict, replace

import pytest

from repro.core import ActorConfig

# An ActorConfig with the three retired storage fields set (the mmap
# backend over two shards), pickled before those fields were removed.
LEGACY_CONFIG = (
    b'\x80\x04\x95\x11\x02\x00\x00\x00\x00\x00\x00\x8c\x11repro.core.config'
    b'\x94\x8c\x0bActorConfig\x94\x93\x94)\x81\x94}\x94(\x8c\x03dim\x94K@\x8c'
    b'\x02lr\x94G?\x94z\xe1G\xae\x14{\x8c\tnegatives\x94K\x01\x8c\nbatch_size'
    b'\x94M\x00\x01\x8c\x06epochs\x94K\x1e\x8c\x11batches_per_epoch\x94N\x8c\t'
    b'use_inter\x94\x88\x8c\ruse_intra_bow\x94\x88\x8c\x0finit_from_users\x94'
    b'\x88\x8c\x10inter_edge_types\x94N\x8c\x0cline_samples\x94J\xa0\x86\x01'
    b'\x00\x8c\x0eline_negatives\x94K\x05\x8c\tn_threads\x94K\x01\x8c\x11spati'
    b'al_bandwidth\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x12temporal_bandwidth'
    b'\x94G?\xe8\x00\x00\x00\x00\x00\x00\x8c\x13min_hotspot_support\x94K\x03'
    b'\x8c\x0fvocab_min_count\x94K\x02\x8c\x0evocab_max_size\x94M N\x8c\rlink_'
    b'mentions\x94\x88\x8c\x13mention_link_weight\x94G?\xf0\x00\x00\x00\x00'
    b'\x00\x00\x8c\ninit_noise\x94G?\x94z\xe1G\xae\x14{\x8c\x0bnoise_power\x94'
    b'G?\xe8\x00\x00\x00\x00\x00\x00\x8c\rstore_backend\x94\x8c\x04mmap\x94'
    b'\x8c\tstore_dir\x94N\x8c\x0cstore_shards\x94K\x02\x8c\x04seed\x94K\x00ub'
    b'.'
)


class TestActorConfig:
    def test_defaults_valid(self):
        config = ActorConfig()
        assert config.dim > 0
        assert config.use_inter and config.use_intra_bow

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0),
            ("lr", 0.0),
            ("negatives", 0),
            ("batch_size", 0),
            ("epochs", 0),
            ("batches_per_epoch", 0),
            ("n_threads", 0),
            ("spatial_bandwidth", 0.0),
            ("temporal_bandwidth", -1.0),
            ("init_noise", -0.1),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
            ActorConfig(**{field: value})

    def test_ablation_flags(self):
        wo_inter = ActorConfig(use_inter=False)
        assert not wo_inter.use_inter
        wo_intra = ActorConfig(use_intra_bow=False)
        assert not wo_intra.use_intra_bow

    def test_batches_per_epoch_none_allowed(self):
        assert ActorConfig(batches_per_epoch=None).batches_per_epoch is None

    def test_legacy_pickle_with_store_fields_loads(self):
        config = pickle.loads(LEGACY_CONFIG)
        assert config == ActorConfig()
        assert asdict(config) == asdict(ActorConfig())
        assert replace(config, dim=8) == ActorConfig(dim=8)
