"""Closed-form counts vs enumeration oracle, FLOP formulas, network audits."""

import json
from importlib import resources

import pytest

from elakit.accounting import (
    PlacementSpec,
    audit_network,
    flop_count,
    param_count,
    param_count_enumerated,
)
from elakit.modules import MODULE_CHOICES as ALL_KINDS
from elakit.modules import build_attention

CHANNEL_GRID = (16, 64, 256, 512)


def load_bundled(name):
    ref = resources.files("elakit") / "data" / name
    return PlacementSpec.from_dict(json.loads(ref.read_text()))


class TestParamCount:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("channels", CHANNEL_GRID)
    def test_closed_form_equals_enumeration(self, kind, channels):
        assert param_count(kind, channels) == param_count_enumerated(kind, channels)

    def test_ela_b_512(self):
        assert param_count("ela-b", 512) == 2 * 7 * 512 + 4 * 512 == 9216

    def test_se_r32_512(self):
        assert param_count("se", 512) == 512 * 16 + 16 * 512 == 16384

    def test_lightweight_ordering(self):
        # per-site lightweight claim: depthwise ELA beats SE at wide layers
        # the SE bottleneck floor (mip >= 8) keeps SE small at C=128/256, so
        # the ordering holds for ELA-T everywhere and for ELA-B once the SE
        # bottleneck grows past the floor
        for channels in (128, 256, 512):
            assert param_count("ela-t", channels) < param_count("se", channels)
        assert param_count("ela-b", 512) < param_count("se", 512)

    def test_monotone_in_channels_and_kernel(self):
        counts = [param_count("ela-b", c) for c in CHANNEL_GRID]
        assert counts == sorted(counts)
        assert param_count("ela-t", 64) <= param_count("ela-b", 64)  # k5 vs k7

    def test_invalid_channels_error(self):
        with pytest.raises(ValueError):
            param_count("ela-s", 10)  # channels_over_8 needs C % 8 == 0
        with pytest.raises(ValueError):
            param_count("nonsense", 64)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_counts_reject_exactly_the_channels_a_block_rejects(self, kind):
        # one sizing path: ELA-B at C=24 has no GN grouping (16 does not
        # divide 24), so neither the block nor either count may exist
        def raises(fn, *args):
            try:
                fn(kind, *args)
            except ValueError:
                return True
            return False

        for c in range(1, 65):
            rejected = raises(build_attention, c)
            assert raises(param_count, c) == rejected, (kind, c)
            assert raises(flop_count, c, 7, 7) == rejected, (kind, c)


class TestFlopCount:
    def test_gating_product_alone(self):
        # two gate multiplies per output element of a 1x2x2 map
        from elakit.accounting import SIGMOID_COST

        ela = flop_count("ela-b", 16, 4, 4)
        pools = 2 * 16 * 16 + 16 * 8
        convs = 16 * 1 * 7 * 8
        norms = 4 * 16 * 8
        gates = SIGMOID_COST * 16 * 8
        product = 2 * 16 * 16
        assert ela == pools + convs + norms + gates + product

    def test_depthwise_conv_term(self):
        # depthwise conv1d k=5 over length 7 at C=16 contributes 16*7*5 MACs
        with_k5 = flop_count("ela-t", 16, 7, 7)
        assert (16 * 1 * 5 * 14) == 16 * 5 * 14  # formula sheet spot value
        base = 2 * 16 * 49 + 16 * 14 + 4 * 16 * 14 + 3 * 16 * 14 + 2 * 16 * 49
        assert with_k5 - base == 16 * 5 * 14

    def test_doubling_w_doubles_pool_macs(self):
        # strip_pool_h cost is C*H*W; isolate it by differencing widths
        c, h = 8, 4
        delta = flop_count("se", c, h, 8) - flop_count("se", c, h, 4)
        # gap + gate both scale with H*W: C*H*dW each
        assert delta == 2 * c * h * 4

    def test_se_formula(self):
        c, h, w = 64, 7, 7
        mip = 8
        expected = (c * h * w + c) + mip * c + mip + c * mip + 3 * c + c * h * w
        assert flop_count("se", c, h, w) == expected


class TestAudit:
    def test_empty_spec_zero_delta(self):
        spec = PlacementSpec(network="empty", module="ela-b", sites=[])
        report = audit_network(spec)
        assert report.total_params == 0 and report.total_flops == 0
        assert report.enumeration_ok

    def test_resnet18_ela_b_delta(self):
        report = audit_network(load_bundled("resnet18-ela-b.json"))
        assert report.total_params == 18 * (2 * 64 + 2 * 128 + 2 * 256 + 2 * 512) == 34560
        assert report.enumeration_ok
        rec = report.reconciliation
        # published delta is 0.020M; ours is larger but must sit inside x2
        assert rec["published_delta_params_m"] == pytest.approx(0.020, abs=1e-9)
        assert rec["within_2x"]
        assert 1.0 < rec["ratio"] < 2.0  # the discrepancy is flagged, not hidden

    def test_resnet18_ca_delta(self):
        report = audit_network(load_bundled("resnet18-ca-r32.json"))
        assert report.total_params == pytest.approx(0.0747e6, rel=0.01)
        rec = report.reconciliation
        assert rec["published_delta_params_m"] == pytest.approx(0.098, abs=1e-9)
        assert rec["within_2x"]

    def test_assumption_log_present(self):
        report = audit_network(load_bundled("resnet18-ela-b.json"))
        assert len(report.assumptions) >= 4
        joined = " ".join(report.assumptions)
        assert "bias" in joined and "mip" in joined

    def test_csv_format(self):
        report = audit_network(load_bundled("resnet18-ela-b.json"))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "site,module,params,flops"
        assert len(lines) == 1 + 8 + 2  # header, 8 sites, TOTAL, DELTA
        assert lines[-2].startswith("TOTAL,") and lines[-1].startswith("DELTA,")
        totals = sum(int(line.split(",")[2]) for line in lines[1:9])
        assert totals == int(lines[-2].split(",")[2])

    def test_json_report_embeds_everything(self):
        report = audit_network(load_bundled("resnet18-ca-r32.json"))
        data = json.loads(report.to_json())
        assert data["delta_params"] == data["total_params"]
        assert data["enumeration_ok"] is True
        assert data["reconciliation"]["within_2x"] is True
        assert data["assumptions"]

    def test_determinism(self):
        spec = load_bundled("resnet18-ela-b.json")
        assert audit_network(spec).to_json() == audit_network(spec).to_json()

    def test_module_name_is_stored_in_lower_case(self):
        site = {"name": "a", "channels": 16, "height": 4, "width": 4}
        spec = PlacementSpec.from_dict({"module": "ELA-B", "sites": [site]})
        assert spec.module == "ela-b"
        lines = audit_network(spec).to_csv().strip().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["ela-b"] * 3

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError):
            PlacementSpec.from_dict(
                {
                    "module": "se",
                    "sites": [
                        {"name": "a", "channels": 16, "height": 4, "width": 4},
                        {"name": "a", "channels": 32, "height": 4, "width": 4},
                    ],
                }
            )

    def test_bad_site_dims_rejected(self):
        with pytest.raises(ValueError):
            PlacementSpec.from_dict(
                {
                    "module": "se",
                    "sites": [{"name": "a", "channels": 0, "height": 4, "width": 4}],
                }
            )
