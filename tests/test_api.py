import adasel

REMOVED = ["FlowPoint", "GeodesicKernel", "as_feature_vector",
           "geodesic_flow", "kernel_distance"]


def test_public_names_resolve_once_from_the_package_root():
    names = adasel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adasel, name), name
    assert not set(REMOVED) & set(names)
    assert not any(hasattr(adasel, name) for name in REMOVED)
