"""Public-API surface tests: imports, exports, lazy attributes."""

import importlib

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_lazy_placer_attrs(self):
        import repro

        assert repro.DreamPlacer is not None
        assert repro.PlacementParams is not None
        assert repro.GlobalPlacer is not None

    def test_unknown_attr_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.NoSuchThing

    @pytest.mark.parametrize("module", [
        "repro.nn", "repro.nn.optim", "repro.ops", "repro.core",
        "repro.lg", "repro.dp", "repro.route", "repro.timing",
        "repro.baseline", "repro.benchgen", "repro.bookshelf",
        "repro.geometry", "repro.netlist", "repro.viz", "repro.cli",
    ])
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name) is not None

    def test_ops_expose_strategy_lists(self):
        from repro.ops.density_map import STRATEGIES as density
        from repro.ops.wa_wirelength import STRATEGIES as wirelength

        assert set(wirelength) == {"net_by_net", "atomic", "merged"}
        assert set(density) == {"naive", "sorted", "stamp", "flat"}

    def test_public_items_documented(self):
        """Every exported callable/class carries a docstring."""
        for module_name in ("repro.core", "repro.ops", "repro.lg",
                            "repro.dp", "repro.route", "repro.timing",
                            "repro.nn"):
            mod = importlib.import_module(module_name)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if callable(obj) or isinstance(obj, type):
                    assert obj.__doc__, f"{module_name}.{name} undocumented"
