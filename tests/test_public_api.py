"""Tests for the top-level public API surface."""

import types

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export: {name}"

    def test_all_matches_exports_both_directions(self):
        """``__all__`` is exactly the public surface: nothing missing, nothing extra.

        Every public module-level attribute (submodules excluded) must be
        listed, and everything listed must resolve — so an import added to
        ``repro/__init__.py`` without an ``__all__`` entry (or vice versa)
        fails here instead of silently drifting.
        """
        exported = {
            name
            for name in dir(repro)
            if not name.startswith("_")
            and not isinstance(getattr(repro, name), types.ModuleType)
        }
        listed = set(repro.__all__) - {"__version__"}
        assert exported - listed == set(), f"public but not in __all__: {sorted(exported - listed)}"
        assert listed - exported == set(), f"in __all__ but not public: {sorted(listed - exported)}"

    def test_engine_surface_exported(self):
        for name in (
            "JoinEstimationEngine",
            "EngineConfig",
            "EstimateRequest",
            "EstimateResult",
            "Provenance",
            "EstimatorBackend",
        ):
            assert name in repro.__all__
        # and the engine subpackage agrees with the top level
        from repro import engine

        for name in engine.__all__:
            if hasattr(repro, name):
                assert getattr(repro, name) is getattr(engine, name)

    def test_key_estimators_exported(self):
        for name in (
            "LSHSSEstimator",
            "LSHSEstimator",
            "UniformityEstimator",
            "RandomPairSampling",
            "CrossSampling",
            "LatticeCountingEstimator",
            "MedianEstimator",
            "VirtualBucketEstimator",
        ):
            assert name in repro.__all__

    def test_substrates_exported(self):
        for name in (
            "VectorCollection",
            "LSHIndex",
            "LSHTable",
            "SimilarityHistogram",
            "exact_join_size",
            "make_dblp_like",
            "ExperimentRunner",
        ):
            assert name in repro.__all__

    def test_one_bucket_table(self):
        """``LSHTable`` is the only bucket table; the mutable table, its
        live-id list and its layout freezer are gone from the surface."""
        from repro import streaming

        for name in ("MutableLSHTable", "LiveIds", "freeze_bucket_layout"):
            assert not hasattr(repro, name)
            assert not hasattr(streaming, name)
        assert isinstance(repro.MutableLSHIndex(3, num_hashes=2).primary_table, repro.LSHTable)

    def test_docstring_quickstart_runs(self):
        """The quickstart in the package docstring must actually work."""
        corpus = repro.make_dblp_like(num_vectors=300, random_state=0)
        index = repro.LSHIndex(corpus.collection, num_hashes=10, random_state=0)
        estimator = repro.LSHSSEstimator(index.primary_table)
        estimate = estimator.estimate(0.8, random_state=0)
        true_size = repro.exact_join_size(corpus.collection, 0.8)
        assert estimate.value >= 0
        assert true_size >= 0
